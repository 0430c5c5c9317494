// Package repro's benchmark harness. The cold benchmarks regenerate
// experiments on a fresh engine per iteration, so every shard runs every
// iteration: the engine's sharding series, the sweep grid, and the
// attack, scenario and mitigation-study experiments, each checked
// against its golden report. The warm benchmarks time cache hits on
// purpose: the serving cost of a fully cached request. Per-experiment
// regeneration cost is perfbench's regen-cold workload, and the golden
// tests under internal/core pin every report.
//
// BenchmarkFig06ACminSweep is the one per-figure benchmark left: it runs
// on the process-wide engine, so only its first iteration regenerates,
// and CI's baseline (BENCH_8.json) still gates on it.
//
// Full-scale runs: `go run ./cmd/rowpress run <id> -scale 1`.
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/sweep"
)

// benchScale keeps the whole suite within minutes. Figure shape is
// preserved (the anchor tAggON points and module diversity are kept).
const benchScale = 0.05

// benchModules is the module subset used by characterization benches: one
// vulnerable and one resistant die per manufacturer.
var benchModules = []string{"S0", "S3", "H0", "H4", "M0", "M3"}

var printOnce sync.Map

func benchExperiment(b *testing.B, id string, modules []string) {
	b.Helper()
	o := core.Options{Scale: benchScale, Seed: 1, Modules: modules}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := core.Run(id, o)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			fmt.Printf("\n%s\n", report.Text(out))
		}
	}
}

func BenchmarkFig06ACminSweep(b *testing.B) { benchExperiment(b, "fig6", benchModules) }

// Engine benchmarks: the same module-sharded sweep executed serially and
// at increasing worker counts, cold (every shard computed) and warm
// (every shard served from the content-addressed cache). The cold series
// tracks the sharding speedup on multi-core hardware; the warm number is
// the serving daemon's steady-state cost per request.

// engineBenchID is a representative per-module experiment: one ACmin
// sweep shard per benchModules entry.
const engineBenchID = "fig6"

func benchEngineCold(b *testing.B, workers int) {
	o := core.Options{Scale: benchScale, Seed: 1, Modules: benchModules}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := engine.New(workers, 0) // fresh engine: no shard reuse across iterations
		if _, err := core.RunWith(eng, engineBenchID, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineColdSerial(b *testing.B)   { benchEngineCold(b, 1) }
func BenchmarkEngineCold2Workers(b *testing.B) { benchEngineCold(b, 2) }
func BenchmarkEngineCold4Workers(b *testing.B) { benchEngineCold(b, 4) }
func BenchmarkEngineCold8Workers(b *testing.B) { benchEngineCold(b, 8) }

// Sweep benchmarks: a 2-seed × 3-module-set grid over the same
// representative experiment, overlapping module sets so the batch
// deduplicates shards. Cold measures grid execution on a fresh engine;
// warm is the steady-state cost of re-serving a fully cached grid — the
// daemon's per-/v1/sweep overhead (expansion, batch accounting, merges).
var benchSweepSpec = sweep.Spec{
	Experiment: engineBenchID,
	Scales:     []float64{benchScale},
	Seeds:      []uint64{1, 2},
	ModuleSets: [][]string{{"S0", "S3"}, {"S0", "M0"}, {"H0", "H4"}},
}

func BenchmarkSweepCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := engine.New(4, 0) // fresh engine: every unique shard computed
		res, err := sweep.Run(eng, benchSweepSpec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Aggregate.Failed != 0 || res.Aggregate.Deduplicated == 0 {
			b.Fatalf("aggregate=%+v", res.Aggregate)
		}
	}
}

func BenchmarkSweepWarm(b *testing.B) {
	eng := engine.New(4, 0)
	if _, err := sweep.Run(eng, benchSweepSpec); err != nil {
		b.Fatal(err) // prime the cache outside the timer
	}
	base := eng.Metrics().ShardsExecuted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(eng, benchSweepSpec); err != nil {
			b.Fatal(err)
		}
	}
	if m := eng.Metrics(); m.ShardsExecuted != base {
		b.Fatalf("warm sweeps re-executed shards: %+v", m)
	}
}

func BenchmarkEngineWarmCache(b *testing.B) {
	o := core.Options{Scale: benchScale, Seed: 1, Modules: benchModules}
	eng := engine.New(4, 0)
	if _, err := core.RunWith(eng, engineBenchID, o); err != nil {
		b.Fatal(err) // prime the cache outside the timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunWith(eng, engineBenchID, o); err != nil {
			b.Fatal(err)
		}
	}
	m := eng.Metrics()
	if m.ShardsExecuted != uint64(len(benchModules)) {
		b.Fatalf("warm iterations re-executed shards: %+v", m)
	}
}

// benchGoldenOptions are the options the golden reports under
// internal/core/testdata/golden were generated with.
var benchGoldenOptions = core.Options{Scale: benchScale, Seed: 1, Modules: []string{"S0", "S3", "M3"}}

// Attack benchmark: the §6.3 adaptive-policy and §7.2 row-buffer
// decoupling attacks, each regenerated on a fresh engine per iteration so
// every iteration runs the attack loop cold (the disturbance kernel and
// each victim's periodic hammer run), and checked against its golden
// report.
var attackBenchIDs = []string{"sec63", "sec72"}

func BenchmarkAttackCold(b *testing.B) { benchColdGolden(b, attackBenchIDs...) }

// Attack grid benchmark: Fig. 23's NUM_AGGR_ACTS × NUM_READS grid
// (Algorithm 1) and Fig. 49's second pass in Algorithm 2, on a fresh
// engine per iteration and checked against their golden reports. The
// grid mixes synchronized victims, each one periodic hammer run, with
// unsynchronized ones whose TRR catches split the run into stretches.
func BenchmarkAttackGridCold(b *testing.B) { benchColdGolden(b, "fig23", "fig49") }

// Scenario benchmarks, each regenerated on a fresh engine per iteration
// and checked against its golden report. scenario-grid plays every
// catalog scenario against every module unmitigated, each site a
// full-budget play with its minimum-exposure search folded in; the plays
// fold their periodic stretches (dram.Module.TraceRun), so an iteration
// pays the per-slot command path only around each pause.
// scenario-mitigation plays every scenario under every mitigation
// without the search: its none column folds the same way, while PARA,
// TRR, Graphene and ImPress play every slot through the command path.
func BenchmarkScenarioGridCold(b *testing.B)       { benchColdGolden(b, "scenario-grid") }
func BenchmarkScenarioMitigationCold(b *testing.B) { benchColdGolden(b, "scenario-mitigation") }

// Mitigation-study benchmark (§7.3, §7.4, Appendix D): Table 3 and
// Figs. 38–41, every simperf simulation of them on a fresh engine per
// iteration, checked against their golden reports.
func BenchmarkSimperfCold(b *testing.B) {
	benchColdGolden(b, "table3", "fig38", "fig39", "fig40", "fig41")
}

// benchColdGolden regenerates ids at the golden options on a fresh engine
// per iteration, so no shard is ever a cache hit, and fails on any report
// that differs from its golden file.
func benchColdGolden(b *testing.B, ids ...string) {
	want := make(map[string]string, len(ids))
	for _, id := range ids {
		golden, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "golden", id+".golden"))
		if err != nil {
			b.Fatal(err)
		}
		want[id] = string(golden)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := engine.New(4, 0) // fresh engine: every shard runs every iteration
		for _, id := range ids {
			doc, err := core.RunWith(eng, id, benchGoldenOptions)
			if err != nil {
				b.Fatalf("%s: %v", id, err)
			}
			if report.Text(doc) != want[id] {
				b.Fatalf("%s: report differs from its golden file", id)
			}
		}
	}
}

// Planning benchmark: core.PlanFor alone — option validation, module and
// scenario resolution, shard and sub-shard key construction — at the
// golden-suite options, with no engine involved. This is the first layer
// of every request, warm or cold; the catalogs it reads are static, so a
// regression here means per-call table rebuilding crept back in.
func BenchmarkPlanFor(b *testing.B) {
	plan := func(b *testing.B, ids ...string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if _, err := core.PlanFor(id, benchGoldenOptions); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	var all []string
	for _, e := range core.List() {
		all = append(all, e.ID)
	}
	b.Run("fig6", func(b *testing.B) { plan(b, "fig6") })
	b.Run("scenario-grid", func(b *testing.B) { plan(b, "scenario-grid") })
	b.Run("all", func(b *testing.B) { plan(b, all...) })
}
