package mitigate

import "slices"

// CheckpointState implements Mitigation. None carries no state.
func (None) CheckpointState() any { return nil }

// RestoreState implements Mitigation.
func (None) RestoreState(any) {}

type paraState struct {
	rng       uint64
	refreshes uint64
}

// CheckpointState implements Mitigation: PARA's only state is its RNG
// position (and the refresh counter).
func (pa *PARA) CheckpointState() any {
	return paraState{rng: pa.rng.State(), refreshes: pa.refreshes}
}

// RestoreState implements Mitigation.
func (pa *PARA) RestoreState(st any) {
	s := st.(paraState)
	pa.rng.SetState(s.rng)
	pa.refreshes = s.refreshes
}

// tableState snapshots a Misra-Gries tracker (Graphene, ImPress).
type tableState struct {
	rows, counts []int
	spillover    int
	refreshes    uint64
}

// CheckpointState implements Mitigation.
func (t *misraGries) CheckpointState() any {
	return tableState{slices.Clone(t.rows), slices.Clone(t.counts), t.spillover, t.refreshes}
}

// RestoreState implements Mitigation.
func (t *misraGries) RestoreState(st any) {
	s := st.(tableState)
	t.rows = append(t.rows[:0], s.rows...)
	t.counts = append(t.counts[:0], s.counts...)
	t.spillover, t.refreshes = s.spillover, s.refreshes
	t.reindex()
}

type trrState struct {
	recent []int
}

// CheckpointState implements Mitigation.
func (t *TRR) CheckpointState() any {
	return trrState{recent: append([]int(nil), t.recent...)}
}

// RestoreState implements Mitigation.
func (t *TRR) RestoreState(st any) {
	t.recent = append(t.recent[:0], st.(trrState).recent...)
}
