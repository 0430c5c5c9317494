package dram

import "fmt"

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
// the concatenated windows with no observer, bit for bit: each slot is a
// one-activation segment of a run window (run.go), whose closed form is
// the command path's ACT and PRE, and a run in steady state accrues as
// float adds instead of commands. After a history unlike the window the
// third window folds at the latest; when the slots before at already
// repeat the window, the first does.
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
	w := &m.scratch().trace
	w.trace(bank, window, m.Timing)
	return w.run(m, at, reps)
}
