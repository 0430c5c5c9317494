package dram

import "math"

// Folding a periodic run.
//
// A run repeats one window of activations back to back (TraceRun) or on
// a fixed period (HammerRun). Once the run is in steady state, every
// window sees the same off-times, the same retention intervals and the
// same exposure on the rows it activates, so it hands every row the same
// increments with the same inputs. If one such window's restores flip
// nothing, no later one can either: nothing changes the rows' contents.
// The rest of the run then replays that window's victim adds once per
// window, in executor order — repeated, not multiplied, so the floats are
// bit-identical to executing every window — and sets the activated rows'
// restore and PRE times, the counters, the bank and the clock in closed
// form. Each window kind proves itself (flipFree) and walks its own
// victim adds (victimAdds); the precondition (foldable), the replay
// (foldRun) and the bookkeeping (finishWindows) are shared.
//
// A fold writes every row through touch or row, so an armed checkpoint
// journals it like any command would, and Rollback after a fold is exact.

// actRow is one row a window activates: how often, and when its last
// activation opens and closes, as offsets from the window's start.
type actRow struct {
	row              int
	acts             int
	lastAct, lastPre TimePS
}

// windowFrame is what folding needs of a window besides its walks.
type windowFrame struct {
	bank    int
	acts    []actRow
	skip    []int  // the rows of acts: the accrual skip set
	length  TimePS // first ACT to the end of the last off phase
	lastPre TimePS // the bank's last PRE
	clock   TimePS // where the window leaves the module clock
	// lastOpen indexes the acts entry whose ACT is the window's last,
	// recorded as the bank's last-opened row; -1 leaves the bank's
	// open-row bookkeeping alone, as HammerBatch always has.
	lastOpen int
}

// foldAdd is one float add of a folded window: *f += v.
type foldAdd struct {
	f *float64
	v float64
}

// foldScratch holds the buffers folding reuses across a module's runs.
type foldScratch struct {
	adds  []foldAdd
	trace traceWindow
}

// scratch returns the module's fold buffers, making them on first use:
// most modules never fold, and stay a pointer smaller.
func (m *Module) scratch() *foldScratch {
	if m.fold == nil {
		m.fold = new(foldScratch)
	}
	return m.fold
}

// appendFoldAdds appends the two float adds one increment makes to a
// victim's exposure, journaling the victim as any write would.
func (m *Module) appendFoldAdds(adds []foldAdd, bank, victim int, above bool, h, p float64) []foldAdd {
	e := &m.row(bank, victim).exp
	if above {
		return append(adds, foldAdd{&e.HammerAbove, h}, foldAdd{&e.PressAbove, p})
	}
	return append(adds, foldAdd{&e.HammerBelow, h}, foldAdd{&e.PressBelow, p})
}

// foldable reports whether the window starting at at, period after the
// one before it, may fold: the retention intervals and temperatures of
// every window from the previous one on must lie in the schedule's last
// segment.
func (m *Module) foldable(at, period TimePS) bool {
	return m.temps[len(m.temps)-1].at <= at-period
}

// foldRun executes the reps windows of f starting at at, period apart,
// in closed form, given one window's victim adds in executor order
// (appendFoldAdds). The caller has proved the window foldable, steady
// and flip-free.
func (m *Module) foldRun(f *windowFrame, adds []foldAdd, at, period TimePS, reps int) {
	// Victims: every window repeats the adds.
	for range reps {
		for _, a := range adds {
			*a.f += a.v
		}
	}
	m.scratch().adds = adds

	// Activated rows: each restore left the exposure of the previous
	// window's tail, which every window's tail repeats, so only the times
	// move.
	last := at + TimePS(reps-1)*period
	for _, a := range f.acts {
		m.row(f.bank, a.row).lastRestore = last + a.lastAct
	}
	m.finishWindows(f, last, reps)
}

// finishWindows records the PRE bookkeeping of reps windows of f, the
// last of which starts at last: each activated row's last PRE, the
// command counters, the bank's last PRE (and last-opened row) and the
// clock.
func (m *Module) finishWindows(f *windowFrame, last TimePS, reps int) {
	for _, a := range f.acts {
		m.recordPre(f.bank, a.row, last+a.lastPre)
		m.acts += uint64(reps * a.acts)
		m.pres += uint64(reps * a.acts)
	}
	b := &m.banks[f.bank]
	b.hasPre = true
	b.lastPreAt = last + f.lastPre
	if f.lastOpen >= 0 {
		a := f.acts[f.lastOpen]
		b.openRow, b.openedAt = a.row, last+a.lastAct
	}
	m.advance(last + f.clock)
}

// expBits is e's bit pattern, for comparisons that must tell -0 from +0.
func expBits(e Exposure) [5]uint64 {
	return [5]uint64{math.Float64bits(e.HammerAbove), math.Float64bits(e.HammerBelow),
		math.Float64bits(e.PressAbove), math.Float64bits(e.PressBelow), math.Float64bits(e.Retention)}
}
