// Package repro's benchmark harness: one testing.B per table and figure of
// "RowPress: Amplifying Read Disturbance in Modern DRAM Chips" (ISCA 2023).
// Each benchmark regenerates its experiment at a reduced scale and prints
// the resulting rows/series once, so `go test -bench=. -benchmem` both
// times the regenerators and emits the paper-shaped outputs.
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

func benchChar(b *testing.B, id string)  { benchExperiment(b, id, benchModules) }
func benchOther(b *testing.B, id string) { benchExperiment(b, id, nil) }

// Characterization figures (§4, §5).

func BenchmarkFig01ACminBoxes(b *testing.B)         { benchChar(b, "fig1") }
func BenchmarkFig06ACminSweep(b *testing.B)         { benchChar(b, "fig6") }
func BenchmarkFig07ACminLinear(b *testing.B)        { benchChar(b, "fig7") }
func BenchmarkFig08RowFraction(b *testing.B)        { benchChar(b, "fig8") }
func BenchmarkFig09TAggONmin(b *testing.B)          { benchChar(b, "fig9") }
func BenchmarkFig10OverlapACmin(b *testing.B)       { benchChar(b, "fig10") }
func BenchmarkFig11OverlapACmax(b *testing.B)       { benchChar(b, "fig11") }
func BenchmarkFig12Direction(b *testing.B)          { benchChar(b, "fig12") }
func BenchmarkFig13TempNormalized(b *testing.B)     { benchChar(b, "fig13") }
func BenchmarkFig14RowFraction80C(b *testing.B)     { benchChar(b, "fig14") }
func BenchmarkFig15TempSweepAC1(b *testing.B)       { benchChar(b, "fig15") }
func BenchmarkFig17DoubleSided(b *testing.B)        { benchChar(b, "fig17") }
func BenchmarkFig18SingleMinusDouble(b *testing.B)  { benchChar(b, "fig18") }
func BenchmarkFig19DataPatterns(b *testing.B)       { benchChar(b, "fig19") }
func BenchmarkFig20DataPatternsDouble(b *testing.B) { benchChar(b, "fig20") }
func BenchmarkFig22ONOFF(b *testing.B)              { benchChar(b, "fig22") }
func BenchmarkFigAppCONOFFAll(b *testing.B)         { benchChar(b, "appC") }
func BenchmarkFigAppERepeatability(b *testing.B)    { benchChar(b, "appE") }
func BenchmarkFigAppF65C(b *testing.B)              { benchChar(b, "appF") }

// Real-system demonstration (§6, Appendix G).

func BenchmarkFig23RealSystem(b *testing.B)       { benchOther(b, "fig23") }
func BenchmarkFig24LatencyHistogram(b *testing.B) { benchOther(b, "fig24") }
func BenchmarkFig49Algorithm2(b *testing.B)       { benchOther(b, "fig49") }

// ECC analysis (§7.1).

func BenchmarkFig25ECCWords(b *testing.B)     { benchChar(b, "fig25") }
func BenchmarkFig26ECCWords70us(b *testing.B) { benchChar(b, "fig26") }

// Inventory tables.

func BenchmarkTable01Inventory(b *testing.B)  { benchOther(b, "table1") }
func BenchmarkTable05Summary(b *testing.B)    { benchChar(b, "table5") }
func BenchmarkTable06BERSummary(b *testing.B) { benchChar(b, "table6") }

// Extensions beyond the paper's evaluated set.

func BenchmarkSec63AdaptivePolicy(b *testing.B)     { benchOther(b, "sec63") }
func BenchmarkSec72RowBufferDecoupled(b *testing.B) { benchOther(b, "sec72") }

func BenchmarkSummaryHeadline(b *testing.B) { benchChar(b, "summary") }

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
