package core

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestListIsSortedAndComplete(t *testing.T) {
	es := List()
	if len(es) < 30 {
		t.Fatalf("only %d experiments registered", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatalf("list not sorted: %s >= %s", es[i-1].ID, es[i].ID)
		}
	}
	want := []string{
		"fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig17", "fig18", "fig19", "fig20",
		"fig22", "fig23", "fig24", "fig25", "fig26", "fig38", "fig39",
		"fig40", "fig41", "fig49", "table1", "table3", "table5", "table6",
		"appC", "appE", "appF", "sec63", "sec72",
	}
	ids := map[string]bool{}
	for _, e := range es {
		ids[e.ID] = true
		if e.Title == "" {
			t.Errorf("experiment %s has no title", e.ID)
		}
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig999", DefaultOptions()); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestRunValidatesOptions(t *testing.T) {
	if _, err := Run("table1", Options{Scale: 0}); err == nil {
		t.Fatal("zero scale should error")
	}
	if _, err := Run("table1", Options{Scale: 2}); err == nil {
		t.Fatal("scale > 1 should error")
	}
	if _, err := Run("table1", Options{Scale: math.NaN()}); err == nil {
		t.Fatal("NaN scale should error")
	}
}

func TestRunUnknownModule(t *testing.T) {
	_, err := Run("fig6", Options{Scale: 0.05, Modules: []string{"Z9"}})
	if err == nil || !strings.Contains(err.Error(), "Z9") {
		t.Fatalf("unknown module should be named in error: %v", err)
	}
}

func TestScaledHelper(t *testing.T) {
	o := Options{Scale: 0.1}
	if got := o.scaled(100, 3); got != 10 {
		t.Errorf("scaled(100) = %d", got)
	}
	if got := o.scaled(10, 3); got != 3 {
		t.Errorf("scaled floor = %d", got)
	}
}

func TestSweepTrimsAtSmallScale(t *testing.T) {
	small := sweepTAggONs(Options{Scale: 0.1})
	full := sweepTAggONs(Options{Scale: 1})
	if len(small) >= len(full) {
		t.Fatal("small scale should trim the lattice")
	}
	// Anchor points stay.
	for _, anchor := range []int64{36_000, 7_800_000, 70_200_000, 30_000_000_000} {
		found := false
		for _, t2 := range small {
			if int64(t2) == anchor*1 {
				found = true
			}
		}
		if !found {
			t.Errorf("anchor %d ps missing from trimmed lattice", anchor)
		}
	}
}

func TestNormalizeModules(t *testing.T) {
	got, err := NormalizeModules([]string{" S0 ", "", "S3", "  "})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "S0" || got[1] != "S3" {
		t.Fatalf("normalized=%v", got)
	}
	if got, err := NormalizeModules(nil); err != nil || got != nil {
		t.Fatalf("nil list: got=%v err=%v", got, err)
	}
	if _, err := NormalizeModules([]string{"S0", "S0"}); err == nil {
		t.Fatal("duplicate ids must be rejected")
	}
	if _, err := NormalizeModules([]string{"S0", " S0"}); err == nil {
		t.Fatal("duplicate-after-trim ids must be rejected")
	}
}

// TestPlanForNormalizesModules pins the contract that padded module
// lists address the same cached shards as their canonical form, and
// that duplicates never reach the engine as duplicate shard keys.
func TestPlanForNormalizesModules(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 0.05
	o.Modules = []string{" S0", "S3 "}
	p, err := PlanFor("fig7", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shards) != 2 || p.Shards[0].Key != "module/S0" || p.Shards[1].Key != "module/S3" {
		t.Fatalf("shard keys: %+v", p.Shards)
	}
	o.Modules = []string{"S0", "S0"}
	if _, err := PlanFor("fig7", o); err == nil {
		t.Fatal("duplicate modules must not plan")
	}
}

// TestStaticCellUnknownModule: a static key lattice naming a module the
// catalog lacks must fail its shard, not simulate a zero-value spec.
func TestStaticCellUnknownModule(t *testing.T) {
	_, err := workFig19(goldenOptions(), 0, "Z9/50")
	if err == nil || !strings.Contains(err.Error(), "Z9") {
		t.Fatalf("fig19 cell with unknown module should be named in error: %v", err)
	}
}

// TestPlanForAllocations bounds planning's per-call cost at the golden
// options at about twice the measured count and bytes (fig6: 99 allocs,
// 8 KB; scenario-grid: 457 allocs, 26 KB on linux/amd64, Go 1.24). Planning
// reads static catalogs; rebuilding one per call (fig6: 296 KB, the
// scenario grid: 3558 allocs, 10.9 MB) fails here rather than only in a
// benchmark.
func TestPlanForAllocations(t *testing.T) {
	for _, c := range []struct {
		id            string
		allocs, bytes float64
	}{
		{"fig6", 200, 16 << 10},
		{"scenario-grid", 920, 52 << 10},
	} {
		o := goldenOptions()
		plan := func() {
			if _, err := PlanFor(c.id, o); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, plan)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 50
		for range runs {
			plan()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("PlanFor(%s): %.0f allocs, %.0f B per call", c.id, allocs, bytes)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("PlanFor(%s) = %.0f allocs, %.0f B per call; want ≤ %.0f allocs, ≤ %.0f B",
				c.id, allocs, bytes, c.allocs, c.bytes)
		}
	}
}
