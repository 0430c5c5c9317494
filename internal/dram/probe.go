package dram

// Pure (side-effect-free) probing of pending disturbance.
//
// A search that wants to know "would stopping here produce a bitflip?"
// used to have to actually fetch the victim rows — materializing flips,
// resetting exposure, and advancing per-row PRE history, which forced the
// next probe to replay the whole pattern. ProbeFetch answers the question
// without mutating anything: it simulates the exact FetchRow sequence the
// caller would issue (including the fetch stream's own self-disturbance
// and the sequential neighbor-coupling of flips materialized earlier in
// the same check) against scratch copies of the row contents and a
// copy-on-write exposure overlay.

// RowProbe is the simulated outcome of fetching one row.
type RowProbe struct {
	Row   int
	Data  []byte // contents as the fetch would return them (a private copy)
	Flips int    // bitflips the fetch would materialize at that instant
}

// ProbeFetch simulates FetchRow(at, bank, rows[0]) … FetchRow(…, rows[n-1])
// back to back — the standard victim-check stream — and returns what each
// fetch would observe plus the completion time, leaving the module
// untouched. Flip evaluation goes through the same Disturber calls as the
// real fetch, on scratch row copies, so results are bit-identical to
// executing the stream; the module's exposure, contents, per-row PRE
// history, clock, and counters all stay as they were.
func (m *Module) ProbeFetch(at TimePS, bank int, rows []int) ([]RowProbe, TimePS, error) {
	if err := m.checkBank(bank); err != nil {
		return nil, at, err
	}
	b := m.banks[bank]
	if b.open {
		return nil, at, timingErr("ACT", bank, "row %d already open", b.openRow)
	}

	scratch := make(map[int][]byte, len(rows))     // post-flip contents overlay
	overlay := make(map[int]*Exposure, len(rows))  // exposure overlay (fetch self-disturbance)
	virtPre := make(map[int]TimePS, len(rows))     // PRE instants of earlier simulated fetches
	virtRestore := make(map[int]TimePS, len(rows)) // restore instants of earlier simulated fetches

	// expOf returns the exposure the row would hold at this point of the
	// simulated stream, copy-on-write.
	expOf := func(row int) *Exposure {
		if e, ok := overlay[row]; ok {
			return e
		}
		e := &Exposure{}
		if rs := m.peekRow(bank, row); rs != nil {
			*e = rs.exp
		}
		overlay[row] = e
		return e
	}
	// dataOf returns the row contents the stream would see: the scratch
	// copy once a simulated fetch materialized flips into it, the live
	// buffer otherwise (read-only).
	dataOf := func(row int) []byte {
		if d, ok := scratch[row]; ok {
			return d
		}
		if rs := m.peekRow(bank, row); rs != nil {
			return rs.data
		}
		return nil
	}
	prevOff := func(row int, actAt TimePS) TimePS {
		if pre, ok := virtPre[row]; ok {
			off := actAt - pre
			if off > recoveredOff {
				off = recoveredOff
			}
			return off
		}
		return m.prevOff(bank, row, actAt)
	}

	out := make([]RowProbe, 0, len(rows))
	hasPre, lastPre := b.hasPre, b.lastPreAt
	now := at
	for _, row := range rows {
		if err := m.checkRow(row); err != nil {
			return nil, now, err
		}
		if hasPre && now < lastPre+m.Timing.TRP {
			return nil, now, timingErr("ACT", bank, "tRP violated: PRE at %d, ACT at %d", lastPre, now)
		}

		// ACT: materialize pending disturbance into a scratch copy.
		exp := *expOf(row)
		lastRestore, restored := virtRestore[row]
		if !restored {
			if rs := m.peekRow(bank, row); rs != nil {
				lastRestore = rs.lastRestore
			}
		}
		exp.Retention = m.retentionStress(lastRestore, now)
		data := scratch[row]
		if data == nil {
			if live := dataOf(row); live != nil {
				data = append([]byte(nil), live...)
				scratch[row] = data
			}
		}
		flips := 0
		if data != nil && (!exp.IsZero() || exp.Retention > 0) {
			nb := NeighborData{}
			if row+1 < m.Geo.RowsPerBank {
				nb.Above = dataOf(row + 1)
			}
			if row-1 >= 0 {
				nb.Below = dataOf(row - 1)
			}
			flips = m.dist.ApplyFlips(bank, row, data, nb, exp)
		}
		// The restore resets exposure; later self-disturbance accrues from
		// zero, exactly as the real fetch leaves the row.
		*overlay[row] = Exposure{}
		virtRestore[row] = now

		// Fetch returns a full-row copy (zero-filled for never-written rows).
		probe := RowProbe{Row: row, Flips: flips, Data: make([]byte, m.Geo.RowBytes)}
		if data != nil {
			copy(probe.Data, data)
		}
		out = append(out, probe)

		// PRE: the fetch's own activation disturbs the row's neighborhood.
		preAt := now + m.Timing.TRAS
		off := prevOff(row, now)
		accrueSpec(m.dist, m.Geo.RowsPerBank, row, m.Timing.TRAS, off, m.TemperatureAt(preAt), 1, nil,
			func(victim int, above bool, h, p float64) {
				e := expOf(victim)
				if above {
					e.HammerAbove += h
					e.PressAbove += p
				} else {
					e.HammerBelow += h
					e.PressBelow += p
				}
			})
		virtPre[row] = preAt
		hasPre, lastPre = true, preAt
		now = preAt + m.Timing.TRP
	}
	return out, now, nil
}

// ProbeWouldFlip reports whether the simulated fetch stream of ProbeFetch
// would materialize at least one bitflip, without mutating anything. With
// a FlipProber disturber it needs no row copies at all: rows before the
// first flip are unmutated in the simulated stream, so the live buffers
// are exactly what each fetch would evaluate, and the walk returns at the
// first crossing cell. Searches that only need the any-flip predicate
// (the scenario min-exposure bisection) probe through here.
func (m *Module) ProbeWouldFlip(at TimePS, bank int, rows []int) (bool, error) {
	fp, ok := m.dist.(FlipProber)
	if !ok {
		probes, _, err := m.ProbeFetch(at, bank, rows)
		if err != nil {
			return false, err
		}
		for _, p := range probes {
			if p.Flips > 0 {
				return true, nil
			}
		}
		return false, nil
	}
	if err := m.checkBank(bank); err != nil {
		return false, err
	}
	b := m.banks[bank]
	if b.open {
		return false, timingErr("ACT", bank, "row %d already open", b.openRow)
	}

	overlay := make(map[int]*Exposure, len(rows))
	virtPre := make(map[int]TimePS, len(rows))
	virtRestore := make(map[int]TimePS, len(rows))
	expOf := func(row int) *Exposure {
		if e, ok := overlay[row]; ok {
			return e
		}
		e := &Exposure{}
		if rs := m.peekRow(bank, row); rs != nil {
			*e = rs.exp
		}
		overlay[row] = e
		return e
	}

	hasPre, lastPre := b.hasPre, b.lastPreAt
	now := at
	for _, row := range rows {
		if err := m.checkRow(row); err != nil {
			return false, err
		}
		if hasPre && now < lastPre+m.Timing.TRP {
			return false, timingErr("ACT", bank, "tRP violated: PRE at %d, ACT at %d", lastPre, now)
		}
		exp := *expOf(row)
		lastRestore, restored := virtRestore[row]
		var data []byte
		if rs := m.peekRow(bank, row); rs != nil {
			data = rs.data
			if !restored {
				lastRestore = rs.lastRestore
			}
		}
		exp.Retention = m.retentionStress(lastRestore, now)
		if data != nil && (!exp.IsZero() || exp.Retention > 0) {
			nb := NeighborData{}
			if row+1 < m.Geo.RowsPerBank {
				if rs := m.peekRow(bank, row+1); rs != nil {
					nb.Above = rs.data
				}
			}
			if row-1 >= 0 {
				if rs := m.peekRow(bank, row-1); rs != nil {
					nb.Below = rs.data
				}
			}
			if fp.WouldFlip(bank, row, data, nb, exp) {
				return true, nil
			}
		}
		*overlay[row] = Exposure{}
		virtRestore[row] = now

		preAt := now + m.Timing.TRAS
		off := RecoveredOff
		if pre, ok := virtPre[row]; ok {
			if o := now - pre; o < off {
				off = o
			}
		} else {
			off = m.prevOff(bank, row, now)
		}
		accrueSpec(m.dist, m.Geo.RowsPerBank, row, m.Timing.TRAS, off, m.TemperatureAt(preAt), 1, nil,
			func(victim int, above bool, h, p float64) {
				e := expOf(victim)
				if above {
					e.HammerAbove += h
					e.PressAbove += p
				} else {
					e.HammerBelow += h
					e.PressBelow += p
				}
			})
		virtPre[row] = preAt
		hasPre, lastPre = true, preAt
		now = preAt + m.Timing.TRP
	}
	return false, nil
}
