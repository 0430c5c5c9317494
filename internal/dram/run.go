package dram

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Run-length windows.
//
// Every access pattern here is one loop — ACT a row, keep it open, PRE,
// wait tRP plus an extra off time — and a window writes a stretch of it
// on one bank as segments played back to back, each a HammerSpec (a row
// ring, a count, an on-time and an extra-off). HammerRun's window is its
// spec, one segment; TraceRun's is one count-1 segment per Slot. A run
// repeats the window on a fixed period (back to back for a trace).
//
// A window plays segment by segment in closed form (accrual.go): the
// first activation of each of a segment's rows restores it, every
// activation accrues to the rows outside the ring in one multiply per
// row, and the ring's rows keep the tail of their own loop. A count-1
// segment is thereby exactly the command path's ACT and PRE.
//
// Folding. Once a run is in steady state, every window sees the same
// off-times, the same retention intervals and the same exposure on the
// rows it activates, so it hands every row the same increments with the
// same inputs. The proof (steady) walks one window over its activated
// rows alone: the previous window left each row's PRE and restore one
// period back, the walk ends on the exposure it started from, and no
// restore along it flips. No row's contents then change, so every later
// window repeats this one. The rest of the run replays its victim adds
// once per window, in executor order — repeated, not multiplied, so the
// floats are bit-identical to playing every window — and sets the
// activated rows' restore and PRE times, the counters, the bank and the
// clock in closed form. A window that cannot be proved — not yet steady,
// a restore would flip, the disturber has no WouldFlip, or a temperature
// change lies ahead (foldable) — is played, and the next one tries again.
//
// A fold writes every row through touch or row, so an armed checkpoint
// journals it like any command would, and Rollback after a fold is exact.

// window is one period of a run on one bank: its segments back to back
// from the window's start, then idle until the next window.
type window struct {
	bank   int
	period TimePS // one window's start to the next one's
	length TimePS // first ACT to the end of the last off phase
	clock  TimePS // where a played window leaves the module clock
	segs   []segment
	acts   []actRow // the rows the window activates, in order of first activation
	rows   []int    // the rows of acts: the accrual skip set
}

// segment is one loop of a window.
type segment struct {
	HammerSpec
	start TimePS // its first ACT, as an offset from the window's start
}

// actRow is one row a window activates: how often, and when its last
// activation opens and closes, as offsets from the window's start.
type actRow struct {
	row              int
	acts             int
	lastAct, lastPre TimePS
	exp              Exposure // along walk: the row's exposure,
	restore, pre     TimePS   // last restore and last PRE
}

// newWindow builds the window of segs, back to back on bank, on the
// given buffers: it places each segment and tallies the rows it
// activates, which rows lists in order of first activation. The segments
// stay where the caller put them, so a window on a caller's arrays stays
// on its stack.
func newWindow(bank int, rows []int, segs []segment, acts []actRow, t Timing) window {
	for _, r := range rows {
		acts = append(acts, actRow{row: r})
	}
	var length TimePS
	for i := range segs {
		seg := &segs[i]
		seg.start = length
		slot := seg.SlotTime(t)
		for idx, row := range seg.activeRows() {
			n, last := seg.schedule(idx)
			a := &acts[slices.Index(rows, row)]
			a.acts += n
			a.lastAct = length + TimePS(last)*slot
			a.lastPre = a.lastAct + seg.OnTime
		}
		length += seg.TotalTime(t)
	}
	return window{bank: bank, length: length, segs: segs, acts: acts, rows: rows}
}

// trace builds in w, reusing its buffers, the window of slots on bank,
// repeated back to back: one one-activation segment per slot.
func (w *window) trace(bank int, slots []Slot, t Timing) {
	rows := w.rows[:0]
	for _, s := range slots {
		if !slices.Contains(rows, s.Row) {
			rows = append(rows, s.Row)
		}
	}
	segs := slices.Grow(w.segs[:0], len(slots))
	for _, s := range slots {
		j := slices.Index(rows, s.Row)
		segs = append(segs, segment{HammerSpec: HammerSpec{Bank: bank, Rows: rows[j : j+1], Count: 1,
			OnTime: s.OnTime, ExtraOff: s.ExtraOff}})
	}
	*w = newWindow(bank, rows, segs, w.acts[:0], t)
	w.period = w.length
	w.clock = w.length - t.TRP - slots[len(slots)-1].ExtraOff // PlayTrace leaves the clock at the last PRE
}

// run validates a run of reps windows of w from at against the bank, then
// plays it, window k at at + k×period, folding the rest of the run once a
// window is proved steady. It returns the end of the last window's off
// phase and how many windows folded.
func (w *window) run(m *Module, at TimePS, reps int) (end TimePS, folded int, err error) {
	if reps > 1 && w.period < w.length {
		return at, 0, fmt.Errorf("dram: run period %s shorter than its window %s",
			FormatTime(w.period), FormatTime(w.length))
	}
	// Validated segments keep tRAS and tRP among themselves and the period
	// between windows; only the first ACT can violate the bank's history.
	if b := m.banks[w.bank]; b.open {
		return at, 0, timingErr("ACT", w.bank, "bank must be precharged before a run")
	} else if b.hasPre && at < b.lastPreAt+m.Timing.TRP {
		return at, 0, timingErr("ACT", w.bank, "tRP violated: PRE at %d, ACT at %d", b.lastPreAt, at)
	}
	end = at
	for k := 0; k < reps; k++ {
		start := at + TimePS(k)*w.period
		if reps-k > 1 && m.foldable(start, w.period) && w.steady(m, start) {
			w.fold(m, start, reps-k)
			return start + TimePS(reps-1-k)*w.period + w.length, reps - k, nil
		}
		end = w.play(m, start)
	}
	return end, 0, nil
}

// play executes the window starting at at and returns the end of its last
// off phase.
func (w *window) play(m *Module, at TimePS) TimePS {
	off := func(row int, actAt TimePS) TimePS { return m.prevOff(w.bank, row, actAt) }
	onto := func(victim int, above bool, h, p float64) { m.row(w.bank, victim).exp.add(above, h, p) }
	for i := range w.segs {
		seg := &w.segs[i]
		segAt, slot, active := at+seg.start, seg.SlotTime(m.Timing), seg.activeRows()
		// Each row's first activation restores its charge, materializing
		// any exposure it brought in exactly as the command path does. Its
		// later ones each wipe one sub-threshold increment, which restores
		// without a flip: the row keeps only the tail of the loop.
		for idx, row := range active {
			m.restoreRow(w.bank, row, segAt+TimePS(idx)*slot)
			_, last := seg.schedule(idx)
			m.row(w.bank, row).lastRestore = segAt + TimePS(last)*slot
		}
		seg.accrue(m, segAt, off, active, onto)
		seg.tail(m, segAt, off, onto)
		for idx, row := range active {
			_, last := seg.schedule(idx)
			m.recordPre(w.bank, row, segAt+TimePS(last)*slot+seg.OnTime)
		}
	}
	m.finishWindows(w, at, 1)
	return at + w.length
}

// steady is the proof of the window starting at at: the previous window
// left its activated rows as this one will leave them, and none of its
// restores flips.
func (w *window) steady(m *Module, at TimePS) bool { return w.walk(m, at, true, nil) }

// walk plays the window starting at at over its activated rows alone,
// from their state in the module, handing each increment to a row outside
// them to add when add is set. It reports whether every activated row's
// PRE and restore lie one period back and the walk ends on the exposure
// it started from — then every later window repeats this one — and, with
// flips, whether no restore along it would flip (FlipProber.WouldFlip).
func (w *window) walk(m *Module, at TimePS, flips bool, add func(victim int, above bool, h, p float64)) bool {
	prev := at - w.period
	for j := range w.acts {
		a := &w.acts[j]
		rs := m.peekRow(w.bank, a.row)
		if rs == nil || !rs.lastPreSet || rs.lastPreAt != prev+a.lastPre || rs.lastRestore != prev+a.lastAct {
			return false
		}
		a.exp, a.restore, a.pre = rs.exp, rs.lastRestore, rs.lastPreAt
	}
	act := func(row int) *actRow { return &w.acts[slices.Index(w.rows, row)] }
	off := func(row int, actAt TimePS) TimePS { return min(actAt-act(row).pre, recoveredOff) }
	onto := func(victim int, above bool, h, p float64) {
		if j := slices.Index(w.rows, victim); j >= 0 {
			w.acts[j].exp.add(above, h, p)
		} else if add != nil {
			add(victim, above, h, p)
		}
	}
	for i := range w.segs {
		seg := &w.segs[i]
		segAt, slot, active := at+seg.start, seg.SlotTime(m.Timing), seg.activeRows()
		for idx, row := range active {
			a := act(row)
			if flips {
				seen := a.exp
				seen.Retention = m.retentionStress(a.restore, segAt+TimePS(idx)*slot)
				if rs := m.peekRow(w.bank, row); !seen.IsZero() && rs.data != nil &&
					m.flipLands(w.bank, row, rs.data, m.neighborData(w.bank, row), seen) {
					return false
				}
			}
			_, last := seg.schedule(idx)
			a.exp, a.restore = Exposure{}, segAt+TimePS(last)*slot
		}
		seg.accrue(m, segAt, off, active, onto)
		seg.tail(m, segAt, off, onto)
		for idx, row := range active {
			_, last := seg.schedule(idx)
			act(row).pre = segAt + TimePS(last)*slot + seg.OnTime
		}
	}
	for _, a := range w.acts {
		if expBits(a.exp) != expBits(m.peekRow(w.bank, a.row).exp) {
			return false
		}
	}
	return true
}

// foldAdd is one float add of a folded window: *f += v.
type foldAdd struct {
	f *float64
	v float64
}

// foldScratch holds the buffers folding reuses across a module's runs.
type foldScratch struct {
	adds  []foldAdd
	trace window
}

// scratch returns the module's fold buffers, making them on first use:
// most modules never fold, and stay a pointer smaller.
func (m *Module) scratch() *foldScratch {
	if m.fold == nil {
		m.fold = new(foldScratch)
	}
	return m.fold
}

// foldable reports whether the window starting at at, period after the
// one before it, may fold: the retention intervals and temperatures of
// every window from the previous one on must lie in the schedule's last
// segment.
func (m *Module) foldable(at, period TimePS) bool {
	return m.temps[len(m.temps)-1].at <= at-period
}

// fold executes reps windows of w starting at at, period apart, in closed
// form. The caller has proved the window at at foldable and steady.
func (w *window) fold(m *Module, at TimePS, reps int) {
	// Victims: every window repeats the adds.
	adds := w.victimAdds(m, at, m.scratch().adds[:0])
	replay(adds, reps)
	m.scratch().adds = adds

	// Activated rows: each restore left the exposure of the previous
	// window's tail, which every window's tail repeats, so only the times
	// move.
	last := at + TimePS(reps-1)*w.period
	for _, a := range w.acts {
		m.row(w.bank, a.row).lastRestore = last + a.lastAct
		m.recordPre(w.bank, a.row, last+a.lastPre)
	}
	m.finishWindows(w, last, reps)
}

// replay applies adds reps times over. It is the hot loop of a long fold
// and is kept out of line, where its place in the code is its own: on a
// 2-vCPU Xeon, the same loop ran ~40% slower (BenchmarkAttackCold) when
// its first instruction straddled a 64-byte line, which inlining or the
// code in front of it decides. The early return puts the loop 3 bytes
// into a 32-byte block, so it fits one whichever way the function is
// placed.
//
//go:noinline
func replay(adds []foldAdd, reps int) {
	if len(adds) == 0 {
		return
	}
	for range reps {
		for _, a := range adds {
			*a.f += a.v
		}
	}
}

// victimAdds appends the float adds the window starting at at makes to
// the rows it does not activate to adds, in executor order, journaling
// each victim as any write would.
func (w *window) victimAdds(m *Module, at TimePS, adds []foldAdd) []foldAdd {
	w.walk(m, at, false, func(victim int, above bool, h, p float64) {
		e := &m.row(w.bank, victim).exp
		if above {
			adds = append(adds, foldAdd{&e.HammerAbove, h}, foldAdd{&e.PressAbove, p})
		} else {
			adds = append(adds, foldAdd{&e.HammerBelow, h}, foldAdd{&e.PressBelow, p})
		}
	})
	return adds
}

// finishWindows records the bank's side of reps windows of w, the last of
// which starts at last: the command counters, the bank's last PRE and
// last-opened row, and the clock.
func (m *Module) finishWindows(w *window, last TimePS, reps int) {
	for _, a := range w.acts {
		m.acts += uint64(reps * a.acts)
		m.pres += uint64(reps * a.acts)
	}
	a := slices.MaxFunc(w.acts, func(x, y actRow) int { return cmp.Compare(x.lastAct, y.lastAct) })
	b := &m.banks[w.bank]
	b.openRow, b.openedAt = a.row, last+a.lastAct
	b.hasPre, b.lastPreAt = true, last+a.lastPre
	m.advance(last + w.clock)
}

// expBits is e's bit pattern, for comparisons that must tell -0 from +0.
func expBits(e Exposure) [5]uint64 {
	return [5]uint64{math.Float64bits(e.HammerAbove), math.Float64bits(e.HammerBelow),
		math.Float64bits(e.PressAbove), math.Float64bits(e.PressBelow), math.Float64bits(e.Retention)}
}
