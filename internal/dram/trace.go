package dram

import (
	"fmt"
	"slices"
)

// Slot is one activation of an access-pattern trace: open Row for OnTime,
// precharge, then stay off for tRP + ExtraOff before the next slot. Unlike
// HammerSpec — a fixed-period loop over one aggressor set — a trace may
// vary the row and the open time per slot, which is what the combined
// RowHammer+RowPress patterns of arXiv:2406.13080 need (hammer bursts at
// tRAS interleaved with long press dwells).
type Slot struct {
	Row      int
	OnTime   TimePS // row-open time; min tRAS
	ExtraOff TimePS // extra off time beyond tRP after the PRE
}

// Duration returns the slot's total bus occupancy.
func (s Slot) Duration(t Timing) TimePS { return s.OnTime + t.TRP + s.ExtraOff }

// TraceObserver watches a trace's activations as they retire. It is
// invoked once per slot, after the slot's PRE completes, with the slot
// index, the slot, and the current time (the PRE instant). Observers may
// issue RestoreRow against the module (an online mitigation's preventive
// refresh); returning an error aborts the playback.
type TraceObserver func(i int, s Slot, now TimePS) error

// PlayTrace plays n slots of a deterministic trace through the command
// path, starting at time at on one bank. slot(i) generates the i-th slot
// (the trace is streamed, never materialized, so million-activation
// patterns cost no memory). observe may be nil. It returns the completion
// time of the last slot's off phase.
//
// Every activation goes through Activate/Precharge, so disturbance
// accrual, per-row off-time tracking, and flip materialization behave
// exactly as they do for any other command stream — and an observer sees
// every activation the way an in-DRAM or controller-side mitigation
// would. A play no observer needs to see slot by slot, whose slots repeat
// one window, is TraceRun's.
func (m *Module) PlayTrace(at TimePS, bank, n int, slot func(i int) Slot, observe TraceObserver) (TimePS, error) {
	if err := m.checkBank(bank); err != nil {
		return at, err
	}
	if n < 0 {
		return at, fmt.Errorf("dram: trace slot count must be non-negative, got %d", n)
	}
	if m.banks[bank].open {
		return at, timingErr("ACT", bank, "bank must be precharged before a trace")
	}
	now := at
	for i := 0; i < n; i++ {
		s := slot(i)
		if err := m.checkSlot(i, s); err != nil {
			return now, err
		}
		if err := m.Activate(now, bank, s.Row); err != nil {
			return now, err
		}
		preAt := now + s.OnTime
		if err := m.Precharge(preAt, bank); err != nil {
			return now, err
		}
		if observe != nil {
			if err := observe(i, s, preAt); err != nil {
				return preAt, err
			}
		}
		now += s.Duration(m.Timing)
	}
	return now, nil
}

// checkSlot validates slot i of a trace against the module's geometry
// and timing.
func (m *Module) checkSlot(i int, s Slot) error {
	if err := m.checkRow(s.Row); err != nil {
		return err
	}
	if s.OnTime < m.Timing.TRAS {
		return fmt.Errorf("dram: trace slot %d: OnTime %s below tRAS %s",
			i, FormatTime(s.OnTime), FormatTime(m.Timing.TRAS))
	}
	if s.ExtraOff < 0 {
		return fmt.Errorf("dram: trace slot %d: negative ExtraOff", i)
	}
	return nil
}

// TraceRun plays window reps times back to back on one bank from at and
// returns the completion time of the last slot's off phase, with how many
// of the windows it folded. The effect is exactly that of PlayTrace over
// the concatenated windows with no observer, bit for bit, but a run in
// steady state accrues as float adds instead of commands (run.go).
//
// A window folds once the window before it left every row the window
// activates — aggressors and decoys alike — as the window itself will
// leave it one window later: same exposure, same restore and PRE
// offsets. After a history unlike the window that is the third window
// at the latest; when the slots before at already repeat the window, it
// is the first. The proof that the rest of the run is flip-free is then
// a FlipProber.WouldFlip check of every restore in that window. A window that cannot be proved
// flip-free — not yet steady, a restore would flip, the disturber has no
// WouldFlip, or a temperature change lies ahead — is played slot by slot,
// and the next window tries again. An armed checkpoint journals a fold
// like any played slot.
func (m *Module) TraceRun(at TimePS, bank int, window []Slot, reps int) (end TimePS, folded int, err error) {
	if err := m.checkBank(bank); err != nil {
		return at, 0, err
	}
	if reps < 0 {
		return at, 0, fmt.Errorf("dram: trace run window count must be non-negative, got %d", reps)
	}
	if len(window) == 0 {
		return at, 0, fmt.Errorf("dram: trace run needs at least one slot per window")
	}
	for i, s := range window {
		if err := m.checkSlot(i, s); err != nil {
			return at, 0, err
		}
	}
	// Validated slots keep tRAS and tRP among themselves; only the first
	// ACT can violate the bank's history.
	if b := m.banks[bank]; b.open {
		return at, 0, timingErr("ACT", bank, "bank must be precharged before a trace")
	} else if b.hasPre && at < b.lastPreAt+m.Timing.TRP {
		return at, 0, timingErr("ACT", bank, "tRP violated: PRE at %d, ACT at %d", b.lastPreAt, at)
	}
	w := &m.scratch().trace
	w.reset(bank, window, m.Timing)
	end = at
	for k := 0; k < reps; k++ {
		start := at + TimePS(k)*w.length
		if reps-k > 1 && m.foldable(start, w.length) && w.flipFree(m, start) {
			m.foldRun(&w.windowFrame, w.victimAdds(m, start, m.scratch().adds[:0]), start, w.length, reps-k)
			return at + TimePS(reps)*w.length, reps - k, nil
		}
		if end, err = m.PlayTrace(start, bank, len(window), func(i int) Slot { return window[i] }, nil); err != nil {
			return end, 0, err
		}
	}
	return end, 0, nil
}

// traceWindow is one window of a TraceRun: per slot, where its ACT
// falls, which activated row it opens and the steady off time before it.
type traceWindow struct {
	windowFrame
	slots []windowSlot
	walk  []rowWalk // flipFree's state per activated row
}

type windowSlot struct {
	Slot
	start TimePS   // the ACT, as an offset from the window's start
	off   TimePS   // the off time before the ACT once the run is steady
	act   int      // the slot's row's index in acts
	seen  Exposure // the exposure flipFree's walk saw its restore materialize
}

// rowWalk is one activated row along flipFree's walk: its exposure, last
// restore and last PRE.
type rowWalk struct {
	exp          Exposure
	restore, pre TimePS
}

// reset builds the window of slots on bank in w, reusing w's buffers.
func (w *traceWindow) reset(bank int, slots []Slot, t Timing) {
	f := &w.windowFrame
	*f = windowFrame{bank: bank, acts: f.acts[:0], skip: f.skip[:0]}
	w.slots = slices.Grow(w.slots[:0], len(slots))
	var now TimePS
	for _, s := range slots {
		j := slices.Index(f.skip, s.Row)
		if j < 0 {
			j = len(f.acts)
			f.acts = append(f.acts, actRow{row: s.Row})
			f.skip = append(f.skip, s.Row)
		}
		a := &f.acts[j]
		a.acts++
		a.lastAct, a.lastPre = now, now+s.OnTime
		w.slots = append(w.slots, windowSlot{Slot: s, start: now, act: j})
		now += s.Duration(t)
	}
	f.length = now
	f.lastPre = now - t.TRP - slots[len(slots)-1].ExtraOff
	f.clock = f.lastPre // PlayTrace leaves the clock at the last PRE
	f.lastOpen = w.slots[len(slots)-1].act

	// Each ACT follows its row's previous PRE: earlier in the window, or
	// at the same offset one window back.
	w.walk = slices.Grow(w.walk[:0], len(f.acts))[:len(f.acts)]
	for j, a := range f.acts {
		w.walk[j].pre = a.lastPre - now
	}
	for i := range w.slots {
		s, r := &w.slots[i], &w.walk[w.slots[i].act]
		s.off = min(s.start-r.pre, recoveredOff)
		r.pre = s.start + s.OnTime
	}
}

// flipFree walks the window's commands over the activated rows alone. The
// window is steady when the previous one left each activated row's PRE
// and restore one window back and the walk ends on the exposure it
// started from; then every later window repeats this one exactly, and a
// WouldFlip check of each restore the walk saw proves them all
// flip-free.
func (w *traceWindow) flipFree(m *Module, at TimePS) bool {
	f := &w.windowFrame
	prev := at - f.length
	for j, a := range f.acts {
		rs := m.peekRow(f.bank, a.row)
		if rs == nil || !rs.lastPreSet || rs.lastPreAt != prev+a.lastPre || rs.lastRestore != prev+a.lastAct {
			return false
		}
		w.walk[j].exp, w.walk[j].restore = rs.exp, rs.lastRestore
	}
	tempC := m.TemperatureAt(at)
	for i := range w.slots {
		s := &w.slots[i]
		r, actAt := &w.walk[s.act], at+s.start
		s.seen = r.exp
		s.seen.Retention = m.retentionStress(r.restore, actAt)
		r.exp, r.restore = Exposure{}, actAt
		// Precharge's accrue, onto the activated rows only.
		inc := m.dist.Increments(s.OnTime, s.off, tempC)
		for d := 1; d <= BlastRadius; d++ {
			h, p := inc.Hammer[d], inc.Press[d]
			if h == 0 && p == 0 {
				continue
			}
			if k := slices.Index(f.skip, s.Row-d); k >= 0 {
				w.walk[k].exp.HammerAbove += h
				w.walk[k].exp.PressAbove += p
			}
			if k := slices.Index(f.skip, s.Row+d); k >= 0 {
				w.walk[k].exp.HammerBelow += h
				w.walk[k].exp.PressBelow += p
			}
		}
	}
	for j, a := range f.acts {
		if expBits(w.walk[j].exp) != expBits(m.peekRow(f.bank, a.row).exp) {
			return false
		}
	}
	for i := range w.slots {
		if s := &w.slots[i]; !s.seen.IsZero() {
			rs := m.peekRow(f.bank, s.Row)
			if rs.data != nil && m.flipLands(f.bank, s.Row, rs.data, m.neighborData(f.bank, s.Row), s.seen) {
				return false
			}
		}
	}
	return true
}

// victimAdds appends the float adds of the window starting at at to
// adds, in executor order.
func (w *traceWindow) victimAdds(m *Module, at TimePS, adds []foldAdd) []foldAdd {
	tempC := m.TemperatureAt(at)
	add := func(victim int, above bool, h, p float64) {
		adds = m.appendFoldAdds(adds, w.bank, victim, above, h, p)
	}
	for i := range w.slots {
		s := &w.slots[i]
		accrueSpec(m.dist, m.Geo.RowsPerBank, s.Row, s.OnTime, s.off, tempC, 1, w.skip, add)
	}
	return adds
}
