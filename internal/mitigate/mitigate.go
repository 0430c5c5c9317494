// Package mitigate implements the read-disturb mitigation mechanisms the
// paper builds on and extends (§6, §7): the in-DRAM target row refresh
// (TRR) samplers the attack must bypass, the PARA and Graphene RowHammer
// mitigations, the paper's adaptation methodology that re-configures
// them (tighter threshold + capped row-open time) to also stop RowPress,
// and an ImPress-style implicit RowPress mitigation (arXiv:2407.16006)
// that charges long row-open times as extra tracked activations. Every
// mechanism snapshots and restores its own state (checkpoint.go), so a
// replay-free search can roll a play back together with the module.
package mitigate

import "repro/internal/dram"

// Mitigation observes row activations in one bank and decides which rows
// to preventively refresh. Implementations are per-bank; callers own one
// instance per bank.
type Mitigation interface {
	// Name identifies the mechanism in reports.
	Name() string
	// OnActivate records an activation of row and returns the rows to
	// preventively refresh right now (empty for most activations). The
	// slice is the mechanism's own buffer, valid until its next call:
	// callers consume it at once.
	OnActivate(row int) []int
	// OnRefreshWindow notifies that a refresh window (tREFW) completed;
	// counter-based mechanisms reset here.
	OnRefreshWindow()
	// CheckpointState returns a self-contained snapshot of the
	// mechanism's state: mutating the mitigation afterwards must not
	// change it. Replay-free searches (the scenario min-exposure
	// bisection) checkpoint the mitigation together with the DRAM module
	// so a probe rolls the whole play back to the bracket's lower bound
	// instead of replaying the pattern from scratch.
	CheckpointState() any
	// RestoreState returns the mechanism to a snapshot; it must accept
	// any value the same instance's CheckpointState returned.
	RestoreState(st any)
}

// TimedMitigation is implemented by mechanisms whose bookkeeping depends
// on how long an activation kept the row open (ImPress). Callers that
// know the open time (the scenario playback harness, a memory controller)
// should prefer OnActivateTimed over OnActivate; plain OnActivate remains
// correct but sees every activation as a minimum-length one.
type TimedMitigation interface {
	Mitigation
	// OnActivateTimed records an activation of row that kept it open for
	// openFor and returns the rows to preventively refresh right now, in
	// a buffer valid until the mechanism's next call, as OnActivate.
	OnActivateTimed(row int, openFor dram.TimePS) []int
}

// Observe feeds one activation to a mitigation, routing through the
// open-time-aware hook when the mechanism has one.
func Observe(m Mitigation, row int, openFor dram.TimePS) []int {
	if tm, ok := m.(TimedMitigation); ok {
		return tm.OnActivateTimed(row, openFor)
	}
	return m.OnActivate(row)
}

// None is the no-mitigation baseline.
type None struct{}

// Name implements Mitigation.
func (None) Name() string { return "none" }

// OnActivate implements Mitigation.
func (None) OnActivate(int) []int { return nil }

// OnRefreshWindow implements Mitigation.
func (None) OnRefreshWindow() {}

// victimsOf fills buf with the blast-radius-1..2 neighbors a preventive
// refresh targets for an aggressor row and returns it as a slice.
func victimsOf(buf *[4]int, row int) []int {
	*buf = [4]int{row - 2, row - 1, row + 1, row + 2}
	return buf[:]
}
