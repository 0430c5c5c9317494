package dram

import (
	"encoding/binary"
	"math/bits"
)

// Pure (side-effect-free) victim checks.
//
// A search that wants to know "would stopping here produce a bitflip?"
// used to have to actually fetch the victim rows — materializing flips,
// resetting exposure, and advancing per-row PRE history, which forced the
// next probe to replay the whole pattern. ProbeCheck answers the question
// without mutating anything: it walks the exact FetchRow sequence the
// caller would issue (including the fetch stream's own self-disturbance
// and the sequential neighbor-coupling of flips materialized earlier in
// the same check) over a per-call overlay of the touched rows.

// probeRow is ProbeCheck's view of one row at the current point of the
// simulated stream, seeded from the live row on first touch.
type probeRow struct {
	row     int
	exp     Exposure // pending exposure
	data    []byte   // live buffer until a simulated flip lands, then a private copy
	own     bool     // data is a private copy
	restore TimePS   // last charge restore
	pre     TimePS   // last PRE instant, if hasPre
	hasPre  bool
}

// probeWalk is the overlay of one ProbeCheck call. Rows are few (the
// fetched rows and their blast radii), so lookup is a linear scan.
type probeWalk struct {
	m    *Module
	bank int
	rows []probeRow
}

// at returns the index of row's overlay entry, creating it from the live
// row. Appending may move entries: callers re-index after every at.
func (w *probeWalk) at(row int) int {
	for i := range w.rows {
		if w.rows[i].row == row {
			return i
		}
	}
	pr := probeRow{row: row}
	if rs := w.m.peekRow(w.bank, row); rs != nil {
		pr.exp, pr.data, pr.restore = rs.exp, rs.data, rs.lastRestore
		pr.pre, pr.hasPre = rs.lastPreAt, rs.lastPreSet
	}
	w.rows = append(w.rows, pr)
	return len(w.rows) - 1
}

// dataOf returns the contents the stream would see in row, nil off the
// array or for a never-written row.
func (w *probeWalk) dataOf(row int) []byte {
	if row < 0 || row >= w.m.Geo.RowsPerBank {
		return nil
	}
	return w.rows[w.at(row)].data
}

// ProbeCheck simulates FetchRow(at, bank, rows[0]) … FetchRow(…, rows[n-1])
// back to back — the standard victim-check stream — and returns how many
// of the fetched bits differ from expect, leaving the module untouched:
// its exposure, contents, per-row PRE history, clock, and counters all
// stay as they were. Flip evaluation goes through the same Disturber calls
// as the real fetch, so the count is exactly that of executing the stream
// and diffing. A row is copied only when a flip lands in it (FlipProber's
// WouldFlip says so, or the disturber cannot tell).
//
// With limit > 0 the walk stops once the count reaches limit. That is
// exact: a row's count is final when its fetch is, so a search that only
// needs "did anything flip?" passes limit 1. limit 0 counts every row.
func (m *Module) ProbeCheck(at TimePS, bank int, rows []int, expect byte, limit int) (int, error) {
	if err := m.checkBank(bank); err != nil {
		return 0, err
	}
	b := m.banks[bank]
	if b.open {
		return 0, timingErr("ACT", bank, "row %d already open", b.openRow)
	}
	w := probeWalk{m: m, bank: bank, rows: make([]probeRow, 0, len(rows)*(2*BlastRadius+1))}
	add := func(victim int, above bool, h, p float64) {
		e := &w.rows[w.at(victim)].exp
		if above {
			e.HammerAbove += h
			e.PressAbove += p
		} else {
			e.HammerBelow += h
			e.PressBelow += p
		}
	}
	n := 0
	hasPre, lastPre := b.hasPre, b.lastPreAt
	now := at
	for _, row := range rows {
		if err := m.checkRow(row); err != nil {
			return n, err
		}
		if hasPre && now < lastPre+m.Timing.TRP {
			return n, timingErr("ACT", bank, "tRP violated: PRE at %d, ACT at %d", lastPre, now)
		}

		// ACT: materialize pending disturbance.
		nb := NeighborData{Above: w.dataOf(row + 1), Below: w.dataOf(row - 1)}
		pr := &w.rows[w.at(row)]
		exp := pr.exp
		exp.Retention = m.retentionStress(pr.restore, now)
		if pr.data != nil && (!exp.IsZero() || exp.Retention > 0) && m.flipLands(bank, row, pr.data, nb, exp) {
			if !pr.own {
				pr.data, pr.own = append([]byte(nil), pr.data...), true
			}
			m.dist.ApplyFlips(bank, row, pr.data, nb, exp)
		}
		// The restore resets exposure; later self-disturbance accrues from
		// zero, exactly as the real fetch leaves the row.
		pr.exp, pr.restore = Exposure{}, now

		// The fetch returns the row (zero-filled if never written).
		n += diffBits(pr.data, expect, m.Geo.RowBytes)
		if limit > 0 && n >= limit {
			return n, nil
		}

		// PRE: the fetch's own activation disturbs the row's neighborhood.
		preAt := now + m.Timing.TRAS
		off := recoveredOff
		if pr.hasPre {
			off = min(now-pr.pre, recoveredOff)
		}
		pr.pre, pr.hasPre = preAt, true
		m.AccrueOne(row, m.Timing.TRAS, off, m.TemperatureAt(preAt), add)
		hasPre, lastPre = true, preAt
		now = preAt + m.Timing.TRP
	}
	return n, nil
}

// diffBits counts the bits of a rowBytes-long row that differ from the
// fill byte expect; nil data reads as zeros. It compares eight bytes at a
// time.
func diffBits(data []byte, expect byte, rowBytes int) int {
	if data == nil {
		return bits.OnesCount8(expect) * rowBytes
	}
	word := uint64(expect) * 0x0101010101010101
	n, i := 0, 0
	for ; i+8 <= len(data); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(data[i:]) ^ word)
	}
	for ; i < len(data); i++ {
		n += bits.OnesCount8(data[i] ^ expect)
	}
	return n
}
