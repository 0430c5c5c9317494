package mitigate

// TRR models the in-DRAM target row refresh samplers DRAM vendors ship
// (§6.2): a small table of candidate aggressor rows maintained between
// REF commands; each REF preventively refreshes the neighbors of the
// tracked rows and clears the table. Real TRR implementations track only a
// few rows and favor the most recent distinct activations before the REF —
// exactly the weakness the U-TRR-style dummy-row patterns exploit: flood
// the sampler with dummies after the real aggressors so the aggressors are
// evicted by the time REF arrives.
type TRR struct {
	Entries int // tracked rows (typical: 2–4)

	recent  []int // most recent distinct rows, newest last
	victims []int // OnRefresh's buffer
}

// NewTRR builds a sampler with the given table size.
func NewTRR(entries int) *TRR {
	if entries <= 0 {
		panic("mitigate: TRR needs at least one entry")
	}
	return &TRR{Entries: entries}
}

// Name implements Mitigation.
func (t *TRR) Name() string { return "TRR" }

// OnActivate implements Mitigation: TRR never refreshes mid-window; it
// only updates its recency table.
func (t *TRR) OnActivate(row int) []int {
	for i, r := range t.recent {
		if r == row {
			t.recent = append(t.recent[:i], t.recent[i+1:]...)
			break
		}
	}
	t.recent = append(t.recent, row)
	if len(t.recent) > t.Entries {
		t.recent = t.recent[len(t.recent)-t.Entries:]
	}
	return nil
}

// OnRefresh is TRR's REF hook: it returns the victims of every tracked
// row, in a buffer valid until the next call, and clears the table. (This
// is distinct from OnRefreshWindow, which fires once per tREFW.)
func (t *TRR) OnRefresh() []int {
	t.victims = t.victims[:0]
	var buf [4]int
	for _, r := range t.recent {
		t.victims = append(t.victims, victimsOf(&buf, r)...)
	}
	t.recent = t.recent[:0]
	return t.victims
}

// OnRefreshWindow implements Mitigation.
func (t *TRR) OnRefreshWindow() { t.recent = t.recent[:0] }
