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
// steady state accrues as float adds instead of commands: the spec is a
// one-segment run window (run.go), which folds like TraceRun's.
func (m *Module) HammerRun(at TimePS, spec HammerSpec, period TimePS, reps int) (TimePS, error) {
	end, _, err := m.hammerRun(at, spec, period, reps)
	return end, err
}

// hammerRun is HammerRun, also reporting how many windows it folded.
func (m *Module) hammerRun(at TimePS, spec HammerSpec, period TimePS, reps int) (TimePS, int, error) {
	if err := spec.Validate(m); err != nil {
		return at, 0, err
	}
	if reps < 1 {
		return at, 0, fmt.Errorf("dram: hammer run needs at least one window, got %d", reps)
	}
	// The window is one segment; double-sided and few-sided loops fit the
	// buffers. HammerBatch has always left the clock at the end of the
	// last off phase.
	segs := [1]segment{{HammerSpec: spec}}
	var acts [4]actRow
	w := newWindow(spec.Bank, spec.activeRows(), segs[:], acts[:0], m.Timing)
	w.period, w.clock = period, w.length
	return w.run(m, at, reps)
}
