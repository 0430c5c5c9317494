package mitigate

import (
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
)

// mapTable is the reference Misra-Gries tracker: the map-based table
// Graphene and ImPress each kept before they shared the flat misraGries.
type mapTable struct {
	threshold, size int
	counts          map[int]int
	spillover       int
	refreshes       uint64
}

func (m *mapTable) add(row, w int) []int {
	if c, ok := m.counts[row]; ok {
		c += w
		m.counts[row] = c
		if c >= m.threshold {
			m.counts[row] = m.spillover
			m.refreshes++
			return []int{row - 2, row - 1, row + 1, row + 2}
		}
		return nil
	}
	if len(m.counts) < m.size {
		m.counts[row] = m.spillover + w
		if m.counts[row] >= m.threshold {
			m.counts[row] = m.spillover
			m.refreshes++
			return []int{row - 2, row - 1, row + 1, row + 2}
		}
		return nil
	}
	m.spillover += w
	for r, c := range m.counts {
		if c <= m.spillover {
			delete(m.counts, r)
		}
	}
	return nil
}

func (m *mapTable) estimate(row int) int {
	if c, ok := m.counts[row]; ok {
		return c
	}
	return m.spillover
}

func (m *mapTable) reset() {
	clear(m.counts)
	m.spillover = 0
}

type mapTableState struct {
	counts    map[int]int
	spillover int
	refreshes uint64
}

func (m *mapTable) checkpoint() mapTableState {
	cp := make(map[int]int, len(m.counts))
	for r, c := range m.counts {
		cp[r] = c
	}
	return mapTableState{cp, m.spillover, m.refreshes}
}

func (m *mapTable) restore(s mapTableState) {
	clear(m.counts)
	for r, c := range s.counts {
		m.counts[r] = c
	}
	m.spillover, m.refreshes = s.spillover, s.refreshes
}

// TestMisraGriesMatchesMapTable drives Graphene and ImPress and the map
// reference with the same random streams: rows drawn from a range wider
// than the table (spills), thresholds low enough to refresh often, a
// refresh window now and then, and a checkpoint taken mid-stream and
// restored later, after which both sides replay the same suffix again.
// Every activation's victims, every row's estimate and the refresh count
// must agree.
func TestMisraGriesMatchesMapTable(t *testing.T) {
	const quantum = 100 * dram.Nanosecond
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		size := 1 + rng.Intn(8)
		threshold := 2 + rng.Intn(40)
		distinct := size + rng.Intn(3*size+4)
		weighted := seed%2 == 0
		var mit interface {
			Mitigation
			EstimatedCount(int) int
			PreventiveRefreshes() uint64
		}
		if weighted {
			mit = NewImPress(threshold, size, quantum)
		} else {
			mit = NewGraphene(threshold, size)
		}
		ref := &mapTable{threshold: threshold, size: size, counts: map[int]int{}}
		check := func(step int, got, want []int) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: victims %v, want %v", seed, step, got, want)
			}
			for r := 0; r < distinct; r++ {
				if g, w := mit.EstimatedCount(r), ref.estimate(r); g != w {
					t.Fatalf("seed %d step %d: row %d estimate %d, want %d", seed, step, r, g, w)
				}
			}
			if g, w := mit.PreventiveRefreshes(), ref.refreshes; g != w {
				t.Fatalf("seed %d step %d: %d refreshes, want %d", seed, step, g, w)
			}
		}
		var (
			cp    any
			refCP mapTableState
			mark  uint64
		)
		restored := false
		for step := 0; step < 3000; step++ {
			switch {
			case step == 1000:
				cp, refCP, mark = mit.CheckpointState(), ref.checkpoint(), rng.State()
			case step == 2000 && !restored:
				mit.RestoreState(cp)
				ref.restore(refCP)
				rng.SetState(mark)
				step, restored = 1000, true
				check(step, nil, nil)
			}
			if rng.Intn(500) == 0 {
				mit.OnRefreshWindow()
				ref.reset()
				check(step, nil, nil)
				continue
			}
			row := rng.Intn(distinct)
			if rng.Float64() < 0.4 {
				row = rng.Intn(2)
			}
			w, open := 1, dram.TimePS(0)
			if weighted {
				open = dram.TimePS(rng.Intn(5)) * quantum
				w = 1 + int(open/quantum)
			}
			want := ref.add(row, w)
			check(step, Observe(mit, row, open), want)
		}
	}
}

// TestRefreshingActivationAllocatesNothing: an activation that triggers a
// preventive refresh returns the victims in the mechanism's own buffer.
func TestRefreshingActivationAllocatesNothing(t *testing.T) {
	for _, m := range []Mitigation{NewPARA(1, 1), NewGraphene(1, 4), NewImPress(1, 4, DefaultImPressQuantum)} {
		allocs := testing.AllocsPerRun(100, func() {
			if len(Observe(m, 100, dram.Microsecond)) == 0 {
				t.Fatalf("%s: activation did not refresh", m.Name())
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per refreshing activation", m.Name(), allocs)
		}
	}
}
