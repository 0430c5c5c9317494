package mitigate

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
	counts    map[int]int
	spillover int
	refreshes uint64
}

func snapshotTable(counts map[int]int, spillover int, refreshes uint64) tableState {
	// Audited for the maprange contract: a map-to-map copy is
	// order-insensitive — the result is the same set of key/value pairs
	// whatever order the source is walked in, and nothing here observes
	// the walk itself.
	cp := make(map[int]int, len(counts))
	for r, c := range counts {
		cp[r] = c
	}
	return tableState{counts: cp, spillover: spillover, refreshes: refreshes}
}

func (s tableState) restore(counts map[int]int) (map[int]int, int, uint64) {
	clear(counts)
	for r, c := range s.counts {
		counts[r] = c
	}
	return counts, s.spillover, s.refreshes
}

// CheckpointState implements Mitigation.
func (g *Graphene) CheckpointState() any {
	return snapshotTable(g.counts, g.spillover, g.refreshes)
}

// RestoreState implements Mitigation.
func (g *Graphene) RestoreState(st any) {
	g.counts, g.spillover, g.refreshes = st.(tableState).restore(g.counts)
}

// CheckpointState implements Mitigation.
func (im *ImPress) CheckpointState() any {
	return snapshotTable(im.counts, im.spillover, im.refreshes)
}

// RestoreState implements Mitigation.
func (im *ImPress) RestoreState(st any) {
	im.counts, im.spillover, im.refreshes = st.(tableState).restore(im.counts)
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
