package simperf

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/workload"
)

// mapACTCounter is the reference per-window ACT counter: one map entry per
// (bank, row), as the simulator counted before it numbered rows densely.
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

// TestACTCounterMatchesMap counts a recorded 4-core mix's requests, core
// by core, through the simulator's dense counter and through the map
// reference keyed by (bank, row), in three windows with a flush between
// them. Each recorded request must be its core's generator draw, the
// trace's row table must name each (bank, row) once, and every count, the
// running maximum and each window's final counts must agree.
func TestACTCounterMatchesMap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 200_000
	mix := []workload.Profile{prof(t, "429.mcf"), prof(t, "483.xalancbmk"), prof(t, "bfs_ny"), prof(t, "462.libquantum")}
	for seed := uint64(1); seed <= 3; seed++ {
		tr, err := Record(cfg, mix, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[bankRow]bool, len(tr.rows))
		for id, br := range tr.rows {
			if seen[br] {
				t.Fatalf("seed %d: row id %d repeats (bank %d, row %d)", seed, id, br.bank, br.row)
			}
			seen[br] = true
		}
		s, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		ref := &mapACTCounter{counts: make(map[int64]int)}
		for window, ct := range tr.cores[:3] {
			gen, err := workload.NewGenerator(mix[window], cfg.Banks, cfg.RowsPerBank, cfg.BlocksRow, seed+uint64(window)*0x9E37)
			if err != nil {
				t.Fatal(err)
			}
			for n, req := range ct.reqs {
				br := tr.rows[req.id]
				if g := gen.Next(); g != (workload.Request{Bank: int(br.bank), Row: int(br.row), Col: int(req.col), InstrGap: int(req.gap)}) {
					t.Fatalf("seed %d, core %d, request %d: recorded (%d,%d) col %d gap %d, generator %+v",
						seed, window, n, br.bank, br.row, req.col, req.gap, g)
				}
				want := ref.count(int(br.bank), int(br.row))
				if got := s.countACT(req.id); got != want {
					t.Fatalf("seed %d, window %d, ACT %d (%d,%d): count %d, want %d",
						seed, window, n, br.bank, br.row, got, want)
				}
				if s.result.MaxRowACTsPerWindow != ref.max {
					t.Fatalf("seed %d, window %d, ACT %d: max %d, want %d",
						seed, window, n, s.result.MaxRowACTsPerWindow, ref.max)
				}
			}
			counted := 0
			for id, n := range s.acts {
				br := tr.rows[id]
				if want := ref.counts[int64(br.bank)<<32|int64(br.row)]; int(n) != want {
					t.Fatalf("seed %d, window %d: row (%d,%d) holds %d, want %d", seed, window, br.bank, br.row, n, want)
				}
				if n > 0 {
					counted++
				}
			}
			if counted != len(ref.counts) {
				t.Fatalf("seed %d, window %d: %d rows counted, reference %d", seed, window, counted, len(ref.counts))
			}
			clear(s.acts)
			ref.flush()
		}
	}
}

// TestMaxRowACTsResetsAtTREFW runs one core that activates a single row
// about every 62 µs until past the first 64 ms refresh window: the row's
// ACTs split across two windows, so the per-window maximum must fall short
// of the run's total and cover the larger window.
func TestMaxRowACTsResetsAtTREFW(t *testing.T) {
	cfg, sparse := pastTREFW()
	s := newSim(t, cfg, sparse, 1)
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

// pastTREFW is a one-bank, one-row, closed-row system and a sparse
// workload whose run ends past the first 64 ms refresh window.
func pastTREFW() (Config, []workload.Profile) {
	cfg := DefaultConfig()
	cfg.Banks, cfg.RowsPerBank = 1, 1
	cfg.Policy = memctrl.ClosedRow()
	cfg.InstrPerCore = 1_500_000_000 // ~94 ms at the 62.5 ps peak retire rate
	return cfg, []workload.Profile{{Name: "sparse", LLCMPKI: 0.001, RowHitRate: 0, HotRows: 1}}
}

func TestRecordRejectsRowKeyOverflow(t *testing.T) {
	p := []workload.Profile{prof(t, "429.mcf")}
	cfg := DefaultConfig()
	cfg.InstrPerCore = 10_000
	cfg.Banks, cfg.RowsPerBank = 3, math.MaxUint32/3 // exactly MaxUint32 rows
	if _, err := Record(cfg, p, 1); err != nil {
		t.Fatalf("Record rejected %d×%d rows: %v", cfg.Banks, cfg.RowsPerBank, err)
	}
	cfg.RowsPerBank++
	if _, err := Record(cfg, p, 1); err == nil {
		t.Fatalf("Record accepted %d×%d rows, past the row id map's %d keys",
			cfg.Banks, cfg.RowsPerBank, uint64(math.MaxUint32))
	}
}

// TestSimAllocationsIndependentOfLength: replaying a recorded trace
// (New+Run) allocates as often for 429.mcf's 400k-instruction stream as
// for its 100k one.
func TestSimAllocationsIndependentOfLength(t *testing.T) {
	mcf := []workload.Profile{prof(t, "429.mcf")}
	measure := func(instr int) float64 {
		cfg := DefaultConfig()
		cfg.InstrPerCore = instr
		tr, err := Record(cfg, mcf, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			s, err := New(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
		}
		// The least of three measurements, each from a fresh GC cycle:
		// the runtime and the test framework allocate now and then on
		// their own.
		allocs := math.Inf(1)
		for range 3 {
			runtime.GC()
			allocs = min(allocs, testing.AllocsPerRun(5, run))
		}
		return allocs
	}
	if a1, a4 := measure(100_000), measure(400_000); a1 != a4 {
		t.Fatalf("allocs/run: %v at 100k instructions, %v at 400k", a1, a4)
	}
}
