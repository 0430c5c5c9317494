package simperf

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigate"
	"repro/internal/workload"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 300_000
	return cfg
}

// newSim records profiles under cfg and seed and builds a simulator
// replaying them.
func newSim(t testing.TB, cfg Config, profiles []workload.Profile, seed uint64) *Sim {
	t.Helper()
	tr, err := Record(cfg, profiles, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func prof(t testing.TB, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return p
}

func TestSimRunsSingleCore(t *testing.T) {
	res := newSim(t, quickCfg(), []workload.Profile{prof(t, "433.milc")}, 1).Run()
	if len(res.Cores) != 1 {
		t.Fatal("expected one core")
	}
	c := res.Cores[0]
	if c.Instructions == 0 || c.Cycles == 0 {
		t.Fatalf("core did not retire: %+v", c)
	}
	if ipc := c.IPC(); ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %v, expected (0, 4]", ipc)
	}
}

func TestRowHitRateTracksProfile(t *testing.T) {
	// A row-buffer-friendly workload must see a far higher hit rate than a
	// random-access one under the open-row policy.
	fr := newSim(t, quickCfg(), []workload.Profile{prof(t, "462.libquantum")}, 1).Run().Cores[0].RowHitRate()
	hr := newSim(t, quickCfg(), []workload.Profile{prof(t, "429.mcf")}, 1).Run().Cores[0].RowHitRate()
	if fr < 0.8 {
		t.Errorf("libquantum row-hit rate = %.2f, want > 0.8", fr)
	}
	if hr > 0.5 {
		t.Errorf("mcf row-hit rate = %.2f, want < 0.5", hr)
	}
}

// TestClosedRowHurtsLocality covers Fig. 39: the minimally-open-row policy
// significantly slows row-buffer-friendly workloads.
func TestClosedRowHurtsLocality(t *testing.T) {
	cfg := quickCfg()
	rows, err := MinOpenRowStudy(cfg, []workload.Profile{
		prof(t, "462.libquantum"), prof(t, "510.parest"),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NormalizedIPC >= 0.95 {
			t.Errorf("%s: minimally-open-row IPC = %.2f of baseline, want noticeable slowdown (paper: 0.66–0.77)",
				r.Workload, r.NormalizedIPC)
		}
		if r.ACTIncrease <= 1.5 {
			t.Errorf("%s: per-row ACT increase = %.1fx, want substantial (paper: up to 372x)",
				r.Workload, r.ACTIncrease)
		}
	}
}

// TestMitigationCostsPerformance: PARA with a high refresh probability
// must slow memory-bound workloads relative to no mitigation.
func TestMitigationCostsPerformance(t *testing.T) {
	base := quickCfg()
	mix := []workload.Profile{prof(t, "429.mcf")}
	res0 := newSim(t, base, mix, 5).Run()
	withPARA := base
	withPARA.NewMitigation = func(bank int) mitigate.Mitigation {
		return mitigate.NewPARA(0.2, uint64(bank)+9)
	}
	res1 := newSim(t, withPARA, mix, 5).Run()
	if res1.PreventiveRefreshes == 0 {
		t.Fatal("PARA issued no preventive refreshes")
	}
	if res1.Cores[0].IPC() >= res0.Cores[0].IPC() {
		t.Errorf("aggressive PARA did not slow the workload: %.3f vs %.3f",
			res1.Cores[0].IPC(), res0.Cores[0].IPC())
	}
}

// TestGrapheneCheaperThanPARA covers the Table 3 contrast: Graphene's
// exact tracking issues far fewer preventive refreshes than PARA at
// comparable protection.
func TestGrapheneCheaperThanPARA(t *testing.T) {
	mix := []workload.Profile{prof(t, "433.milc")}
	g := quickCfg()
	g.NewMitigation = BaselineFactory(KindGraphene, 1)
	resG := newSim(t, g, mix, 7).Run()
	p := quickCfg()
	p.NewMitigation = BaselineFactory(KindPARA, 1)
	resP := newSim(t, p, mix, 7).Run()
	if resG.PreventiveRefreshes >= resP.PreventiveRefreshes {
		t.Errorf("Graphene refreshes (%d) should be far below PARA's (%d)",
			resG.PreventiveRefreshes, resP.PreventiveRefreshes)
	}
}

func TestMitigationStudyTable3Shape(t *testing.T) {
	cfg := quickCfg()
	cfg.InstrPerCore = 150_000
	mixes := [][]workload.Profile{
		{prof(t, "429.mcf"), prof(t, "462.libquantum"), prof(t, "calculix"), prof(t, "gcc")},
	}
	rows, err := MitigationStudy(KindPARA, cfg, mixes, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TmroLattice) {
		t.Fatalf("%d rows, want %d", len(rows), len(TmroLattice))
	}
	// T' must follow Table 3 and overheads must stay modest (the paper
	// reports ≤ ~15% average for PARA-RP).
	if rows[0].TPrime != 1000 || rows[5].TPrime != 419 {
		t.Errorf("T' endpoints = %d, %d; want 1000, 419", rows[0].TPrime, rows[5].TPrime)
	}
	for _, r := range rows {
		if r.AvgOverhead > 0.35 {
			t.Errorf("tmro %s: avg overhead %.1f%% implausibly high",
				dram.FormatTime(r.TMro), 100*r.AvgOverhead)
		}
	}
}

func TestHeterogeneousMixes(t *testing.T) {
	mixes := HeterogeneousMixes(2, 3)
	if len(mixes) != 5 {
		t.Fatalf("%d groups", len(mixes))
	}
	for group, ms := range mixes {
		if len(ms) != 2 {
			t.Fatalf("group %s has %d mixes", group, len(ms))
		}
		for _, m := range ms {
			if len(m) != 4 {
				t.Fatalf("group %s mix has %d workloads", group, len(m))
			}
			for i, ch := range group {
				if (ch == 'H') != m[i].MemHeavy {
					t.Fatalf("group %s position %d: wrong category %s", group, i, m[i].Name)
				}
			}
		}
	}
}

func TestWeightedSpeedup(t *testing.T) {
	r := Result{Cores: []CoreStats{
		{Instructions: 100, Cycles: 100}, // IPC 1.0
		{Instructions: 100, Cycles: 200}, // IPC 0.5
	}}
	ws := r.WeightedSpeedup([]float64{2.0, 1.0})
	if ws != 1.0 { // 0.5 + 0.5
		t.Fatalf("WS = %v, want 1.0", ws)
	}
}

func TestTmroPolicyForcesReactivation(t *testing.T) {
	// Under a tmro cap, a row left open past the cap counts as closed.
	var b memctrl.BankState
	tm := dram.DDR4()
	pol := memctrl.TmroCap(96 * dram.Nanosecond)
	done, act := b.Access(0, 7, pol, tm)
	if !act {
		t.Fatal("first access must activate")
	}
	// Immediately after: still open.
	if !b.RowOpenFor(7, done, pol) {
		t.Fatal("row should be open right after access")
	}
	// Long after: the cap expired.
	if b.RowOpenFor(7, done+dram.Microsecond, pol) {
		t.Fatal("row should have been force-closed after tmro")
	}
	_, act2 := b.Access(done+dram.Microsecond, 7, pol, tm)
	if !act2 {
		t.Fatal("post-tmro access must re-activate")
	}
}
