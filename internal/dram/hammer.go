package dram

import (
	"fmt"
	"slices"
)

// HammerSpec describes a (Row)Hammer/(Row)Press access-pattern loop, i.e.
// the patterns of Figs. 5, 16, and 21 of the paper:
//
//	repeat: ACT rows[i], keep open OnTime, PRE, wait tRP+ExtraOff — next row
//
// With one row and OnTime = tRAS this is single-sided RowHammer; with a
// large OnTime it is single-sided RowPress; with two rows it is the
// double-sided variant; ExtraOff > 0 yields the RowPress-ONOFF pattern of
// §5.4 where tA2A = OnTime + tRP + ExtraOff.
type HammerSpec struct {
	Bank     int
	Rows     []int  // aggressor rows, activated round-robin
	Count    int    // total activations across all aggressor rows
	OnTime   TimePS // tAggON per activation; min tRAS
	ExtraOff TimePS // extra off time beyond tRP after each PRE
}

// SlotTime returns the duration of one activation slot
// (tAggON + tRP + ExtraOff).
func (s HammerSpec) SlotTime(t Timing) TimePS { return s.OnTime + t.TRP + s.ExtraOff }

// TotalTime returns the duration of the whole loop.
func (s HammerSpec) TotalTime(t Timing) TimePS { return TimePS(s.Count) * s.SlotTime(t) }

// Validate checks the spec against the module's timing and geometry.
func (s HammerSpec) Validate(m *Module) error {
	if err := m.checkBank(s.Bank); err != nil {
		return err
	}
	if len(s.Rows) == 0 {
		return fmt.Errorf("dram: hammer spec needs at least one aggressor row")
	}
	for i, r := range s.Rows {
		if err := m.checkRow(r); err != nil {
			return err
		}
		// Rows lists are a few entries long: a quadratic scan allocates
		// nothing.
		if slices.Contains(s.Rows[:i], r) {
			return fmt.Errorf("dram: duplicate aggressor row %d", r)
		}
	}
	if s.Count <= 0 {
		return fmt.Errorf("dram: hammer count must be positive, got %d", s.Count)
	}
	if s.OnTime < m.Timing.TRAS {
		return fmt.Errorf("dram: OnTime %s below tRAS %s", FormatTime(s.OnTime), FormatTime(m.Timing.TRAS))
	}
	if s.ExtraOff < 0 {
		return fmt.Errorf("dram: ExtraOff must be non-negative")
	}
	return nil
}

// activeRows returns the listed rows that activate at least once. The
// loop activates rows round-robin, so that is the first min(Count, len)
// of them; a listed row past it (Count < len(Rows)) behaves as a plain
// victim. It is the accrual paths' skip set, and allocates nothing.
func (s HammerSpec) activeRows() []int { return s.Rows[:min(s.Count, len(s.Rows))] }

// HammerBatch executes the access pattern starting at time at and returns
// the completion time, in O(aggressors × blast radius) instead of
// O(count): every iteration after the first delivers an identical
// disturbance increment (the closed form in accrual.go). The observable
// effect on every row's exposure is equivalent to issuing every ACT/PRE
// through the command path (up to float summation order); property tests
// hold it against that per-command reference. It is HammerRun's
// one-window case.
func (m *Module) HammerBatch(at TimePS, spec HammerSpec) (TimePS, error) {
	return m.HammerRun(at, spec, 0, 1)
}

// HammerRun executes the access pattern reps times, window k starting at
// at + k×period, and returns the completion time of the last window. The
// effect is exactly that of reps HammerBatch calls at those times, bit
// for bit, but the spec is validated and scheduled once, and a run in
// steady state accrues as float adds instead of commands (run.go).
//
// From the third window on, every window sees the same aggressor
// off-times, the same aggressor exposure (the previous window's tail) and
// the same retention interval. The proof that the rest of the run is
// flip-free is a FlipProber.WouldFlip check of that window's aggressor
// restores. A window that cannot be proved flip-free — a restore would
// flip, the disturber has no WouldFlip, or a temperature change lies
// ahead — is played, and the next window tries again. An armed checkpoint
// journals a fold like any played window.
func (m *Module) HammerRun(at TimePS, spec HammerSpec, period TimePS, reps int) (TimePS, error) {
	end, _, err := m.hammerRun(at, spec, period, reps)
	return end, err
}

// steadyWindow is the first window of a run whose inputs repeat: window 1
// already sees steady off-times and retention, but its aggressors still
// carry the tail of window 0, whose first activations followed the
// pre-run history.
const steadyWindow = 2

// hammerRun is HammerRun, also reporting how many windows it folded.
func (m *Module) hammerRun(at TimePS, spec HammerSpec, period TimePS, reps int) (end TimePS, folded int, err error) {
	if err := spec.Validate(m); err != nil {
		return at, 0, err
	}
	if reps < 1 {
		return at, 0, fmt.Errorf("dram: hammer run needs at least one window, got %d", reps)
	}
	if reps > 1 && period < spec.TotalTime(m.Timing) {
		return at, 0, fmt.Errorf("dram: hammer run period %s shorter than its window %s",
			FormatTime(period), FormatTime(spec.TotalTime(m.Timing)))
	}
	if m.banks[spec.Bank].open {
		return at, 0, timingErr("ACT", spec.Bank, "bank must be precharged before hammering")
	}
	// Double-sided and few-sided loops fit the buffers.
	var sched [4]AggSchedule
	var acts [4]actRow
	w := newHammerWindow(spec, m.Timing, sched[:0], acts[:0])
	for k := 0; k < reps; k++ {
		start := at + TimePS(k)*period
		if k >= steadyWindow && reps-k > 1 && m.foldable(start, period) && w.flipFree(m, start) {
			m.foldRun(&w.windowFrame, w.victimAdds(m, start, m.scratch().adds[:0]), start, period, reps-k)
			return start + TimePS(reps-1-k)*period + w.length, reps - k, nil
		}
		end = w.play(m, start)
	}
	return end, 0, nil
}

// hammerWindow is one HammerSpec loop's constants, built once per run.
type hammerWindow struct {
	windowFrame
	spec      HammerSpec
	sched     []AggSchedule
	slot      TimePS
	steadyOff TimePS
}

// newHammerWindow builds spec's window, appending its schedule and its
// activated rows to the given buffers so a caller with small arrays at
// hand allocates nothing.
func newHammerWindow(spec HammerSpec, t Timing, sched []AggSchedule, acts []actRow) hammerWindow {
	w := hammerWindow{spec: spec, sched: spec.AppendSchedule(sched),
		slot: spec.SlotTime(t), steadyOff: spec.SteadyOff(t)}
	for _, ag := range w.sched {
		if ag.Acts > 0 {
			lastAct := TimePS(ag.LastSlot) * w.slot
			acts = append(acts, actRow{row: ag.Row, acts: ag.Acts, lastAct: lastAct, lastPre: lastAct + spec.OnTime})
		}
	}
	length := spec.TotalTime(t)
	w.windowFrame = windowFrame{bank: spec.Bank, acts: acts, skip: spec.activeRows(), length: length,
		lastPre: length - t.TRP - spec.ExtraOff, clock: length, lastOpen: -1}
	return w
}

// flipFree is the proof of a steady window (k ≥ steadyWindow): its
// aggressor restores flip nothing. Their inputs repeat in every later
// window, and no row's contents change.
func (w *hammerWindow) flipFree(m *Module, at TimePS) bool {
	for idx, ag := range w.sched {
		if ag.Acts == 0 {
			continue
		}
		rs := m.peekRow(w.bank, ag.Row)
		exp := rs.exp
		exp.Retention = m.retentionStress(rs.lastRestore, at+TimePS(idx)*w.slot)
		if rs.data != nil && !exp.IsZero() &&
			m.flipLands(w.bank, ag.Row, rs.data, m.neighborData(w.bank, ag.Row), exp) {
			return false
		}
	}
	return true
}

// victimAdds appends the float adds of the window starting at at to
// adds, in executor order.
func (w *hammerWindow) victimAdds(m *Module, at TimePS, adds []foldAdd) []foldAdd {
	w.accrueVictims(m, at, nil, func(victim int, above bool, h, p float64) {
		adds = m.appendFoldAdds(adds, w.bank, victim, above, h, p)
	})
	return adds
}

// accrueVictims walks the window starting at at through the shared
// closed form, handing every non-aggressor increment to add in executor
// order. The first activation of each aggressor uses the off time
// preceding the window — firstOff's, or the module's PRE history when
// firstOff is nil — and the rest use the steady-state off time.
func (w *hammerWindow) accrueVictims(m *Module, at TimePS, firstOff func(row int, firstActAt TimePS) TimePS,
	add func(victim int, above bool, h, p float64)) {
	spec := w.spec
	tempC := m.TemperatureAt(at)
	for idx, ag := range w.sched {
		if ag.Acts == 0 {
			continue
		}
		var off TimePS
		if actAt := at + TimePS(idx)*w.slot; firstOff != nil {
			off = firstOff(ag.Row, actAt)
		} else {
			off = m.prevOff(spec.Bank, ag.Row, actAt)
		}
		accrueSpec(m.dist, m.Geo.RowsPerBank, ag.Row, spec.OnTime, off, tempC, 1, w.skip, add)
		if ag.Acts > 1 {
			accrueSpec(m.dist, m.Geo.RowsPerBank, ag.Row, spec.OnTime, w.steadyOff, tempC, ag.Acts-1, w.skip, add)
		}
	}
}

// play executes one window starting at at and returns its completion
// time.
func (w *hammerWindow) play(m *Module, at TimePS) TimePS {
	spec, sched, slot := w.spec, w.sched, w.slot
	n := len(spec.Rows)

	// Phase 1: each aggressor's first activation restores its own charge,
	// materializing any pre-loop exposure exactly as the command path does.
	for idx, ag := range sched {
		if ag.Acts > 0 {
			m.restoreRow(spec.Bank, ag.Row, at+TimePS(idx)*slot)
		}
	}

	// Phase 2: bulk-accrue disturbance to non-aggressor victims.
	w.accrueVictims(m, at, nil, func(victim int, above bool, h, p float64) {
		rs := m.row(spec.Bank, victim)
		if above {
			rs.exp.HammerAbove += h
			rs.exp.PressAbove += p
		} else {
			rs.exp.HammerBelow += h
			rs.exp.PressBelow += p
		}
	})

	// Phase 3: every aggressor activation wipes that aggressor's own
	// pending exposure in the command path, so at loop end each aggressor
	// only retains increments from slots after its own last activation.
	// Reset exposure without applying flips (the command path wiped it one
	// sub-threshold increment at a time), then replay the tail slots.
	for _, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		rs := m.row(spec.Bank, ag.Row)
		rs.exp = Exposure{}
		rs.lastRestore = at + TimePS(ag.LastSlot)*slot
	}
	tailStart := spec.Count - n
	if tailStart < 0 {
		tailStart = 0
	}
	for s := tailStart; s < spec.Count; s++ {
		actIdx := s % n
		actRow := spec.Rows[actIdx]
		off := w.steadyOff
		if s == actIdx { // this slot is the aggressor's first activation
			off = m.prevOff(spec.Bank, actRow, at+TimePS(s)*slot)
		}
		inc := m.dist.Increments(spec.OnTime, off, m.TemperatureAt(at))
		for j, victim := range spec.Rows {
			if j == actIdx || sched[j].LastSlot >= s || sched[j].Acts == 0 {
				continue
			}
			d := victim - actRow
			if d < 0 {
				d = -d
			}
			if d == 0 || d > BlastRadius {
				continue
			}
			rs := m.row(spec.Bank, victim)
			if actRow > victim {
				rs.exp.HammerAbove += inc.Hammer[d]
				rs.exp.PressAbove += inc.Press[d]
			} else {
				rs.exp.HammerBelow += inc.Hammer[d]
				rs.exp.PressBelow += inc.Press[d]
			}
		}
	}

	// Phase 4: bookkeeping — last PRE time per aggressor, counters, clock.
	m.finishWindows(&w.windowFrame, at, 1)
	return at + w.length
}
