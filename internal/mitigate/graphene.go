package mitigate

import "fmt"

// Graphene is the Misra-Gries-based RowHammer mitigation of Park et al.
// [109]: a per-bank table of (row, counter) entries plus a spillover
// counter. When a row's estimated count reaches the table threshold T, its
// neighbors are preventively refreshed and the counter rebases on the
// spillover value. The Misra-Gries guarantee bounds undercounting by
// (total activations)/(table size + 1), which sizes T = T_RH/(4·...) in
// the original paper; here T is supplied by the configuration (Table 3).
type Graphene struct {
	Threshold int // T: estimated count triggering a preventive refresh
	TableSize int // entries; fixed at construction, which sizes the table

	misraGries
}

// NewGraphene builds a tracker with the given trigger threshold and table
// size. It panics on non-positive parameters (configuration bug).
func NewGraphene(threshold, tableSize int) *Graphene {
	if threshold <= 0 || tableSize <= 0 {
		panic(fmt.Sprintf("mitigate: bad Graphene config T=%d size=%d", threshold, tableSize))
	}
	return &Graphene{Threshold: threshold, TableSize: tableSize, misraGries: newMisraGries(tableSize)}
}

// Name implements Mitigation.
func (g *Graphene) Name() string { return "Graphene" }

// OnActivate implements Mitigation with the Misra-Gries update rule.
func (g *Graphene) OnActivate(row int) []int { return g.add(row, 1, g.Threshold, g.TableSize) }

// misraGries is the (weighted) Misra-Gries table Graphene and ImPress
// track rows with: parallel rows/counts slices of at most the table size,
// in no particular order, plus the spillover counter. idx finds a row's
// entry: an open-addressed index of entry+1 by row hash, at most a quarter
// full, rebuilt whenever entries move.
type misraGries struct {
	rows, counts []int
	idx          []int32
	shift        uint // 64 - log2(len(idx)): the hash keeps its top bits
	spillover    int
	refreshes    uint64
	victims      [4]int
}

func newMisraGries(size int) misraGries {
	shift := uint(63)
	for 1<<(64-shift) < 4*size {
		shift--
	}
	return misraGries{rows: make([]int, 0, size), counts: make([]int, 0, size),
		idx: make([]int32, 1<<(64-shift)), shift: shift}
}

// add charges an activation of row with weight w and returns the rows to
// preventively refresh, in t's buffer. A tracked row gains w; an untracked
// row enters at spillover+w while the table has room. A row whose count
// reaches threshold is refreshed and rebases on the spillover, so
// continued hammering must earn another full threshold's worth. When the
// table is full, an untracked row raises the spillover by its full weight
// and every entry that falls to it is evicted: this keeps the undercount
// bound proportional to total weighted activations, so long dwells cannot
// hide in the spillover.
func (t *misraGries) add(row, w, threshold, size int) []int {
	h := t.slot(row)
	i := int(t.idx[h]) - 1
	switch {
	case i >= 0:
	case len(t.rows) < size:
		i = len(t.rows)
		t.rows = append(t.rows, row)
		t.counts = append(t.counts, t.spillover)
		t.idx[h] = int32(i + 1)
	default:
		t.spillover += w
		n := 0
		for j, c := range t.counts {
			if c > t.spillover {
				t.rows[n], t.counts[n] = t.rows[j], c
				n++
			}
		}
		t.rows, t.counts = t.rows[:n], t.counts[:n]
		t.reindex()
		return nil
	}
	t.counts[i] += w
	if t.counts[i] < threshold {
		return nil
	}
	t.counts[i] = t.spillover
	t.refreshes++
	return victimsOf(&t.victims, row)
}

// slot returns the index slot holding row, or the free slot where linear
// probing from row's hash ends.
func (t *misraGries) slot(row int) int {
	mask := len(t.idx) - 1
	h := int(uint64(row) * 0x9E3779B97F4A7C15 >> t.shift)
	for t.idx[h] > 0 && t.rows[t.idx[h]-1] != row {
		h = (h + 1) & mask
	}
	return h
}

// reindex rebuilds idx from the entries.
func (t *misraGries) reindex() {
	clear(t.idx)
	for i, r := range t.rows {
		t.idx[t.slot(r)] = int32(i + 1)
	}
}

// OnRefreshWindow implements Mitigation: counters reset every tREFW.
func (t *misraGries) OnRefreshWindow() {
	t.rows, t.counts = t.rows[:0], t.counts[:0]
	clear(t.idx)
	t.spillover = 0
}

// PreventiveRefreshes returns the cumulative preventive refresh count.
func (t *misraGries) PreventiveRefreshes() uint64 { return t.refreshes }

// EstimatedCount returns the Misra-Gries estimate for a row (for tests of
// the undercount bound).
func (t *misraGries) EstimatedCount(row int) int {
	if i := t.idx[t.slot(row)]; i > 0 {
		return t.counts[i-1]
	}
	return t.spillover
}
