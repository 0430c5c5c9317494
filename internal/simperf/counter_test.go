package simperf

import (
	"maps"
	"math"
	"runtime"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// mapACTCounter is the reference per-window ACT counter: one map entry per
// (bank, row), as the simulator counted before actCounter.
type mapACTCounter struct {
	counts map[int64]int
	max    int
}

func (m *mapACTCounter) count(bank, row int) int {
	key := int64(bank)<<32 | int64(row)
	m.counts[key]++
	if m.counts[key] > m.max {
		m.max = m.counts[key]
	}
	return m.counts[key]
}

func (m *mapACTCounter) flush() { clear(m.counts) }

// tableContents lists actCounter's counts by (bank, row), in the reference's
// key form.
func tableContents(s *Sim) map[int64]int {
	got := make(map[int64]int)
	for _, sl := range s.acts.slots {
		if sl.key == 0 {
			continue
		}
		k := int(sl.key - 1)
		got[int64(k/s.cfg.RowsPerBank)<<32|int64(k%s.cfg.RowsPerBank)] = int(sl.n)
	}
	return got
}

// TestACTCounterMatchesMap drives the simulator's counter and the map
// reference with the same random (bank, row) streams: a few rows hammered
// hard, up to 5000 distinct rows (ten doublings, to 16k slots), and a
// window flush after each 20k ACTs, after which the same rows are counted
// again.
func TestACTCounterMatchesMap(t *testing.T) {
	cfg := DefaultConfig()
	for i, distinct := range []int{40, 300, 5000} {
		seed := uint64(i + 1)
		s, err := New(cfg, []workload.Profile{prof(t, "429.mcf")}, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref := &mapACTCounter{counts: make(map[int64]int)}
		rng := stats.NewRNG(seed)
		check := func(phase string) {
			t.Helper()
			if got := tableContents(s); !maps.Equal(got, ref.counts) {
				t.Fatalf("%d rows %s: table holds %d rows, reference %d, or their counts differ",
					distinct, phase, len(got), len(ref.counts))
			}
		}
		for window := 0; window < 3; window++ {
			for n := 0; n < 20_000; n++ {
				k := rng.Intn(distinct)
				if rng.Float64() < 0.3 {
					k = rng.Intn(4)
				}
				bank, row := k%cfg.Banks, k/cfg.Banks*37%cfg.RowsPerBank
				want := ref.count(bank, row)
				if got := s.countACT(bank, row); got != want {
					t.Fatalf("%d rows, window %d, ACT %d (%d,%d): count %d, want %d",
						distinct, window, n, bank, row, got, want)
				}
				if s.result.MaxRowACTsPerWindow != ref.max {
					t.Fatalf("%d rows, window %d, ACT %d: max %d, want %d",
						distinct, window, n, s.result.MaxRowACTsPerWindow, ref.max)
				}
			}
			if len(s.acts.slots) < 2*len(ref.counts) {
				t.Fatalf("%d rows: %d slots hold %d rows, past half load", distinct, len(s.acts.slots), len(ref.counts))
			}
			check("before flush")
			s.flushACTWindow()
			ref.flush()
			check("after flush")
		}
	}
}

// TestMaxRowACTsResetsAtTREFW runs one core that activates a single row
// about every 62 µs until past the first 64 ms refresh window: the row's
// ACTs split across two windows, so the per-window maximum must fall short
// of the run's total and cover the larger window.
func TestMaxRowACTsResetsAtTREFW(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Banks, cfg.RowsPerBank = 1, 1
	cfg.Policy = memctrl.ClosedRow()
	cfg.InstrPerCore = 1_500_000_000 // ~94 ms at the 62.5 ps peak retire rate
	sparse := workload.Profile{Name: "sparse", LLCMPKI: 0.001, RowHitRate: 0, HotRows: 1}
	s, err := New(cfg, []workload.Profile{sparse}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if s.now < s.timing.TREFW {
		t.Fatalf("simulation ended at %d ps, before the first tREFW (%d ps)", s.now, s.timing.TREFW)
	}
	acts := int(res.Activations)
	if res.MaxRowACTsPerWindow >= acts || 2*res.MaxRowACTsPerWindow < acts {
		t.Fatalf("MaxRowACTsPerWindow = %d over %d ACTs in two windows, want in [%d, %d)",
			res.MaxRowACTsPerWindow, acts, (acts+1)/2, acts)
	}
}

func TestNewRejectsRowKeyOverflow(t *testing.T) {
	p := []workload.Profile{prof(t, "429.mcf")}
	cfg := DefaultConfig()
	cfg.Banks, cfg.RowsPerBank = 3, math.MaxUint32/3 // exactly MaxUint32 rows
	if _, err := New(cfg, p, 1); err != nil {
		t.Fatalf("New rejected %d×%d rows: %v", cfg.Banks, cfg.RowsPerBank, err)
	}
	cfg.RowsPerBank++
	if _, err := New(cfg, p, 1); err == nil {
		t.Fatalf("New accepted %d×%d rows, past the counter's %d keys",
			cfg.Banks, cfg.RowsPerBank, uint64(math.MaxUint32))
	}
}

// TestSimAllocationsIndependentOfLength: a run's allocations do not grow
// with its request count. Quadrupling 429.mcf's instruction budget may add
// only the ACT counter's extra doublings.
func TestSimAllocationsIndependentOfLength(t *testing.T) {
	mcf := []workload.Profile{prof(t, "429.mcf")}
	measure := func(instr int) (allocs float64, doublings int) {
		cfg := DefaultConfig()
		cfg.InstrPerCore = instr
		run := func() *Sim {
			s, err := New(cfg, mcf, 1)
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			return s
		}
		for n := len(run().acts.slots); n > actCounterMinSlots; n /= 2 {
			doublings++
		}
		// The least of three measurements, each from a fresh GC cycle:
		// the runtime and the test framework allocate now and then on
		// their own.
		allocs = math.Inf(1)
		for range 3 {
			runtime.GC()
			allocs = min(allocs, testing.AllocsPerRun(5, func() { run() }))
		}
		return allocs, doublings
	}
	a1, d1 := measure(100_000)
	a4, d4 := measure(400_000)
	if a4-a1 != float64(d4-d1) {
		t.Fatalf("allocs/run: %v at 100k instructions, %v at 400k; counter doublings %d and %d",
			a1, a4, d1, d4)
	}
}

// TestACTCounterAllocatesNoMoreThanMap: filling the table with n distinct
// rows allocates no more bytes, doublings included, than the map reference
// filled with the same rows.
func TestACTCounterAllocatesNoMoreThanMap(t *testing.T) {
	// bytes is the least heap growth over five calls of f: the runtime
	// and the test framework allocate now and then on their own.
	bytes := func(f func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	for _, n := range []int{1, 8, 9, 33, 100, 1000, 3300, 4096, 20_000} {
		var tab actCounter
		ref := &mapACTCounter{}
		tabBytes := bytes(func() {
			tab = actCounter{}
			for k := 0; k < n; k++ {
				tab.add(uint32(k * 8))
			}
		})
		mapBytes := bytes(func() {
			ref.counts = make(map[int64]int)
			for k := 0; k < n; k++ {
				ref.count(k%8, k)
			}
		})
		if tabBytes > mapBytes {
			t.Errorf("%d rows: table allocated %d B, map %d B", n, tabBytes, mapBytes)
		}
	}
}
