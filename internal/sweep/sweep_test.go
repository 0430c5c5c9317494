package sweep

import (
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
)

// testScale keeps sweep tests fast while preserving per-module sharding.
const testScale = 0.05

func TestSpecExpansionOrderAndDefaults(t *testing.T) {
	pts, err := Spec{Experiment: "fig7"}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Scale != 1 || pts[0].Seed != 1 || pts[0].Modules != nil {
		t.Fatalf("default expansion: %+v", pts)
	}

	pts, err = Spec{
		Experiment: "fig7",
		Scales:     []float64{0.05, 0.1},
		Seeds:      []uint64{1, 2},
		ModuleSets: [][]string{{"S0"}, {" S3 ", ""}}, // sets are normalized
	}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("expected 2×2×2 points, got %d", len(pts))
	}
	// Module sets vary slowest, then seeds, then scales.
	want := []Point{
		{0.05, 1, []string{"S0"}}, {0.1, 1, []string{"S0"}},
		{0.05, 2, []string{"S0"}}, {0.1, 2, []string{"S0"}},
		{0.05, 1, []string{"S3"}}, {0.1, 1, []string{"S3"}},
		{0.05, 2, []string{"S3"}}, {0.1, 2, []string{"S3"}},
	}
	for i, w := range want {
		got := pts[i]
		if got.Scale != w.Scale || got.Seed != w.Seed || strings.Join(got.Modules, ",") != strings.Join(w.Modules, ",") {
			t.Fatalf("point %d: got %+v want %+v", i, got, w)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	for name, spec := range map[string]Spec{
		"no experiment":      {},
		"unknown experiment": {Experiment: "fig999"},
		"zero scale":         {Experiment: "fig7", Scales: []float64{0}},
		"scale above one":    {Experiment: "fig7", Scales: []float64{2}},
		"NaN scale":          {Experiment: "fig7", Scales: []float64{math.NaN()}},
		"duplicate modules":  {Experiment: "fig7", ModuleSets: [][]string{{"S0", "S0"}}},
	} {
		if _, err := spec.Points(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSpecGridSizeBounded(t *testing.T) {
	spec := Spec{Experiment: "fig7"}
	for i := 0; i < 100; i++ {
		spec.Scales = append(spec.Scales, float64(i+1)/100)
	}
	for i := 0; i < 50; i++ {
		spec.Seeds = append(spec.Seeds, uint64(i))
	}
	if _, err := spec.Points(); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("5000-point grid should exceed MaxPoints=%d: err=%v", MaxPoints, err)
	}
}

// TestSweepReusesShardsOfPriorSingleRuns is the PR's acceptance
// criterion: a sweep over N points where M points were previously run
// individually executes only the shards of the N−M new points, and each
// sweep report is byte-identical to its single run (so concatenating
// sweep reports equals concatenating the single-run outputs).
func TestSweepReusesShardsOfPriorSingleRuns(t *testing.T) {
	eng := engine.New(4, 0)
	spec := Spec{
		Experiment: "fig7",
		Scales:     []float64{testScale},
		ModuleSets: [][]string{{"S0"}, {"S3"}, {"M3"}}, // N = 3 points, 1 shard each
	}

	// Run M = 2 of the points individually first.
	singles := make([]string, 3)
	for i, mod := range []string{"S0", "S3"} {
		o := core.DefaultOptions()
		o.Scale, o.Modules = testScale, []string{mod}
		out, err := core.RunWith(eng, "fig7", o)
		if err != nil {
			t.Fatal(err)
		}
		singles[i] = report.Text(out)
	}
	pre := eng.Metrics()
	if pre.ShardsExecuted != 2 {
		t.Fatalf("priming runs executed %d shards", pre.ShardsExecuted)
	}

	res, err := Run(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	post := eng.Metrics()
	if got := post.ShardsExecuted - pre.ShardsExecuted; got != 1 {
		t.Fatalf("sweep should execute only the 1 new point's shard, executed %d", got)
	}
	if res.Aggregate.Executed != 1 || res.Aggregate.CacheHits != 2 || res.Aggregate.UniqueShards != 3 {
		t.Fatalf("aggregate=%+v", res.Aggregate)
	}
	for i, pt := range res.Points[:2] {
		if pt.Stats.Executed != 0 || pt.Stats.CacheHits != 1 {
			t.Fatalf("pre-run point %d recomputed: %+v", i, pt.Stats)
		}
		if pt.Report != singles[i] {
			t.Fatalf("point %d report differs from its single run", i)
		}
	}
	if res.Points[2].Stats.Executed != 1 {
		t.Fatalf("new point stats=%+v", res.Points[2].Stats)
	}

	// The remaining single run must also be byte-identical.
	o := core.DefaultOptions()
	o.Scale, o.Modules = testScale, []string{"M3"}
	lastDoc, err := core.RunWith(eng, "fig7", o)
	if err != nil {
		t.Fatal(err)
	}
	singles[2] = report.Text(lastDoc)
	var concat, sweepConcat strings.Builder
	for i := range singles {
		concat.WriteString(singles[i])
		sweepConcat.WriteString(res.Points[i].Report)
	}
	if concat.String() != sweepConcat.String() {
		t.Fatal("sweep reports are not byte-identical to concatenated single runs")
	}
}

func TestSweepDeduplicatesOverlappingPoints(t *testing.T) {
	eng := engine.New(4, 0)
	res, err := Run(eng, Spec{
		Experiment: "fig7",
		Scales:     []float64{testScale},
		ModuleSets: [][]string{{"S0", "S3"}, {"S0", "M3"}}, // S0 shared
	})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a.Points != 2 || a.ShardRefs != 4 || a.UniqueShards != 3 || a.Deduplicated != 1 {
		t.Fatalf("aggregate=%+v", a)
	}
	if a.Executed != 3 {
		t.Fatalf("cold overlapping sweep should execute each unique shard once: %+v", a)
	}
	// First-owner accounting: point 0 runs S0+S3, point 1 runs only M3.
	if res.Points[0].Stats.Executed != 2 || res.Points[1].Stats.Executed != 1 ||
		res.Points[1].Stats.CacheHits != 1 {
		t.Fatalf("points=%+v %+v", res.Points[0].Stats, res.Points[1].Stats)
	}
}

// subRemote is a fabric remote tier that owns only sub-shard keys: it
// answers them from a warmed peer engine's memory tier and sends every
// unit-level dispatch back for local execution.
type subRemote struct {
	peer     *engine.Engine
	answered atomic.Int64
}

func (r *subRemote) Resolve(key string, req engine.RemoteRequest) (any, string, bool, error) {
	if req.Sub == "" {
		return nil, "", false, nil
	}
	v, ok := r.peer.Cache().Get(key)
	if ok {
		r.answered.Add(1)
	}
	return v, "http://peer-1", ok, nil
}

// TestSweepTiersExactWithRemoteSubShards pins the sweep's tier split on
// a coordinator whose split shards gather locally from remotely
// answered sub-shards: every shard ref lands in exactly one tier, and
// the locally gathered units are the misses.
func TestSweepTiersExactWithRemoteSubShards(t *testing.T) {
	spec := Spec{
		Experiment: "fig6",
		Scales:     []float64{testScale},
		ModuleSets: [][]string{{"S0"}, {"S0", "S3"}}, // S0 shared
	}
	peer := engine.New(2, 0)
	want, err := Run(peer, spec)
	if err != nil {
		t.Fatal(err)
	}
	coord := engine.New(2, 0)
	remote := &subRemote{peer: peer}
	coord.AttachRemote(remote)
	res, err := Run(coord, spec)
	if err != nil {
		t.Fatal(err)
	}
	if remote.answered.Load() == 0 {
		t.Fatal("no sub-shard was answered remotely")
	}
	a, tc := res.Aggregate, res.Tiers
	if tc.Total() != a.ShardRefs || tc.Miss != a.Executed || tc.Join != a.Deduplicated || a.Executed == 0 {
		t.Fatalf("tiers %+v do not match aggregate %+v", tc, a)
	}
	for i := range res.Points {
		if res.Points[i].Report != want.Points[i].Report {
			t.Fatalf("point %d report differs from the peer's", i)
		}
	}
}

func TestSweepNilEngineUsesDefault(t *testing.T) {
	res, err := Run(nil, Spec{Experiment: "fig7", Scales: []float64{testScale}, ModuleSets: [][]string{{"S0"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Report == "" {
		t.Fatalf("result=%+v", res)
	}
}

func TestRenderings(t *testing.T) {
	res, err := Run(engine.New(2, 0), Spec{
		Experiment: "fig7",
		Scales:     []float64{testScale},
		Seeds:      []uint64{1, 2},
		ModuleSets: [][]string{{"S0"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	text := res.Text()
	if !strings.Contains(text, "## sweep point 1/2") || !strings.Contains(text, "## sweep aggregate: fig7") {
		t.Fatalf("text rendering missing sections:\n%s", text)
	}
	for _, p := range res.Points {
		if !strings.Contains(text, p.Report) {
			t.Fatal("text rendering omits a point report")
		}
	}

	csv := res.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv should be header + 2 rows:\n%s", csv)
	}
	if lines[0] != "experiment,scale,seed,modules,shards,cache_hits,executed,wall_ms,report_bytes,error" {
		t.Fatalf("csv header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "fig7,0.05,1,S0,1,") {
		t.Fatalf("csv row %q", lines[1])
	}

	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "fig7" || len(back.Points) != 2 || back.Aggregate.Points != 2 {
		t.Fatalf("json round trip: %+v", back)
	}
}

func TestCSVEscaping(t *testing.T) {
	r := &Result{Experiment: `e"x,p`, Points: []PointResult{{
		Point: Point{Scale: 0.1, Seed: 1},
		Error: "line1\nline2",
	}}}
	csv := r.CSV()
	if !strings.Contains(csv, `"e""x,p"`) || !strings.Contains(csv, "\"line1\nline2\"") {
		t.Fatalf("csv escaping:\n%s", csv)
	}
}
