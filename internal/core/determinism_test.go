package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scenario"
)

// TestCharacterizationShardsPerModule pins the decomposition: selecting
// n modules must plan n shards for per-module experiments.
func TestCharacterizationShardsPerModule(t *testing.T) {
	for _, id := range []string{"fig6", "fig8", "table5", "table6", "appC", "summary"} {
		p, err := PlanFor(id, Options{Scale: 0.05, Seed: 1, Modules: []string{"S0", "S3", "M3"}})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Shards) != 3 {
			t.Errorf("%s: %d shards for 3 modules", id, len(p.Shards))
		}
	}
}

// TestShardCacheSharedAcrossModuleSubsets pins the addressing scheme:
// a request for a superset of modules reuses the subset's cached shards.
func TestShardCacheSharedAcrossModuleSubsets(t *testing.T) {
	eng := engine.New(2, 0)
	sub := Options{Scale: 0.05, Seed: 1, Modules: []string{"S0"}}
	super := Options{Scale: 0.05, Seed: 1, Modules: []string{"S0", "S3"}}
	if _, err := RunWith(eng, "fig7", sub); err != nil {
		t.Fatal(err)
	}
	p, err := PlanFor("fig7", super)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := eng.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.Executed != 1 {
		t.Fatalf("superset run should reuse the S0 shard: %+v", stats)
	}
	// Different scale or seed must not hit the cache.
	p2, err := PlanFor("fig7", Options{Scale: 0.06, Seed: 1, Modules: []string{"S0"}})
	if err != nil {
		t.Fatal(err)
	}
	_, stats2, err := eng.Execute(p2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHits != 0 {
		t.Fatalf("scale change must miss the cache: %+v", stats2)
	}
}

// TestRunMatchesRunWithSerial pins the public entry point: Run (default
// engine) and an explicit single-worker engine agree.
func TestRunMatchesRunWithSerial(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 1, Modules: []string{"S0"}}
	a, err := Run("fig12", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWith(engine.New(1, 0), "fig12", o)
	if err != nil {
		t.Fatal(err)
	}
	if report.Text(a) != report.Text(b) {
		t.Fatal("default engine and serial engine reports differ")
	}
}

// TestMitigationMergeShuffledCompletion pins the merge contract for the
// mitigation experiments (the satellite of the maprange audit on
// fourCoreMixes): shard *completion* order is a scheduling accident, and
// the merged document must not depend on it. The engine already hands
// Merge the payloads in plan order whatever order workers finish in, so
// the test drives the plan by hand — executing shard Runs in several
// adversarial completion orders (reversed, interleaved) before merging —
// and requires the rendered report to stay byte-identical to the
// serial engine's.
func TestMitigationMergeShuffledCompletion(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 1, Modules: []string{"S0"}}
	for _, id := range []string{"table3", "fig40", "fig41"} {
		id := id
		t.Run(id, func(t *testing.T) {
			want, err := RunWith(engine.New(1, 0), id, o)
			if err != nil {
				t.Fatal(err)
			}
			wantText := report.Text(want)
			p, err := PlanFor(id, o)
			if err != nil {
				t.Fatal(err)
			}
			n := len(p.Shards)
			if n < 2 {
				t.Fatalf("%s plans %d shard(s); need at least 2 to permute", id, n)
			}
			reversed := make([]int, n)
			for i := 0; i < n; i++ {
				reversed[i] = n - 1 - i
			}
			// Odd indices first, then even: an interleaving no worker
			// pool would produce by accident.
			var interleaved []int
			for i := 1; i < n; i += 2 {
				interleaved = append(interleaved, i)
			}
			for i := 0; i < n; i += 2 {
				interleaved = append(interleaved, i)
			}
			orders := [][]int{reversed, interleaved}
			for _, order := range orders {
				parts := make([]any, n)
				for _, i := range order {
					v, err := p.Shards[i].Run()
					if err != nil {
						t.Fatalf("shard %d (%s): %v", i, p.Shards[i].Key, err)
					}
					parts[i] = v
				}
				doc, err := p.Merge(parts)
				if err != nil {
					t.Fatal(err)
				}
				if got := report.Text(doc); got != wantText {
					t.Fatalf("completion order %v changed the %s report:\n--- want ---\n%s\n--- got ---\n%s", order, id, wantText, got)
				}
			}
		})
	}
}

// TestSubShardShuffledCompletion is the two-level twin of
// TestMitigationMergeShuffledCompletion: for experiments whose shards
// declare sub-shard splits, sub-shard *completion* order is a
// scheduling accident, and the gathered unit payload — and therefore
// the merged document — must not depend on it. The engine stores each
// sub's payload at its declared index whatever order workers finish
// in, so the test drives the split by hand: every shard's sub-shards
// execute in reverse declaration order before Gather folds them, and
// the rendered report must stay byte-identical to the serial engine's.
func TestSubShardShuffledCompletion(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 1, Modules: []string{"S0"}}
	for _, id := range []string{"fig7", "fig9", "fig18", "scenario-grid"} {
		id := id
		t.Run(id, func(t *testing.T) {
			want, err := RunWith(engine.New(1, 0), id, o)
			if err != nil {
				t.Fatal(err)
			}
			wantText := report.Text(want)
			p, err := PlanFor(id, o)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]any, len(p.Shards))
			split := 0
			for i, s := range p.Shards {
				if len(s.Subs) == 0 {
					if parts[i], err = s.Run(); err != nil {
						t.Fatalf("shard %q: %v", s.Key, err)
					}
					continue
				}
				split++
				subParts := make([]any, len(s.Subs))
				for j := len(s.Subs) - 1; j >= 0; j-- {
					if subParts[j], err = s.Subs[j].Run(); err != nil {
						t.Fatalf("shard %q sub %q: %v", s.Key, s.Subs[j].Key, err)
					}
				}
				if parts[i], err = s.Gather(subParts); err != nil {
					t.Fatalf("shard %q gather: %v", s.Key, err)
				}
			}
			if split == 0 {
				t.Fatalf("%s plans no split shards; the test exercises nothing", id)
			}
			doc, err := p.Merge(parts)
			if err != nil {
				t.Fatal(err)
			}
			if got := report.Text(doc); got != wantText {
				t.Fatalf("reverse sub-shard completion changed the %s report:\n--- want ---\n%s\n--- got ---\n%s", id, wantText, got)
			}
		})
	}
}

// TestScenarioShardDecomposition pins the scenario experiments' shard
// lattice: one shard per (module, scenario) for the grid and one per
// (module, scenario, mitigation) for the comparison, so overlapping
// module selections share cached scenario cells exactly like the
// characterization experiments do.
func TestScenarioShardDecomposition(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 1, Modules: []string{"S0", "H0"}}
	nScen := len(scenario.Names())
	nMits := len(scenario.AllMitigations())
	grid, err := PlanFor("scenario-grid", o)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * nScen; len(grid.Shards) != want {
		t.Fatalf("scenario-grid: %d shards, want %d", len(grid.Shards), want)
	}
	mit, err := PlanFor("scenario-mitigation", o)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * nScen * nMits; len(mit.Shards) != want {
		t.Fatalf("scenario-mitigation: %d shards, want %d", len(mit.Shards), want)
	}
	// Shard keys carry the module id, so a single-module run addresses a
	// subset of the two-module run's cache entries.
	sub, err := PlanFor("scenario-grid", Options{Scale: 0.05, Seed: 1, Modules: []string{"S0"}})
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool, len(grid.Shards))
	for _, s := range grid.Shards {
		keys[s.Key] = true
	}
	for _, s := range sub.Shards {
		if !keys[s.Key] {
			t.Fatalf("subset shard %q not addressed by the superset plan", s.Key)
		}
	}
}
