// Package sweep batches parameter grids over the experiment engine. A
// Spec names one experiment and lists of scales, seeds, and module sets;
// it expands into the cartesian product of points, each point plans
// through core.PlanFor (so its shards carry exactly the cache addresses
// a single /v1/run or `rowpress run` of the same options would use), and
// the whole grid executes as one deduplicated engine.ExecuteBatch on the
// shared worker pool and shard cache. Points that overlap each other —
// or any previously completed single run on the same engine — hit the
// cache instead of recomputing, and each point's report is byte-identical
// to the equivalent single run.
//
// The follow-up RowPress characterization studies (arXiv:2406.16153,
// arXiv:2406.13080) structure their experiments exactly this way:
// grids over modules × timings × temperatures. This package is the
// serving-side shape of that methodology.
package sweep

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/report"
	"repro/internal/stats"
)

// Spec is a batched parameter sweep: one experiment crossed with lists
// of scales, seeds, and module sets. Empty lists default to the single
// default value (scale 1, seed 1, representative modules), so the
// minimal spec {"experiment":"fig6"} is one full-scale point.
type Spec struct {
	Experiment string     `json:"experiment"`
	Scales     []float64  `json:"scales,omitempty"`
	Seeds      []uint64   `json:"seeds,omitempty"`
	ModuleSets [][]string `json:"module_sets,omitempty"`
}

// Point is one expanded grid point of a Spec.
type Point struct {
	Scale   float64  `json:"scale"`
	Seed    uint64   `json:"seed"`
	Modules []string `json:"modules,omitempty"`
}

// PointStats is the per-point slice of the batch accounting, latency in
// milliseconds. CacheHits+Executed always equals Shards; Executed counts
// only shards no earlier point (and no earlier run on the engine)
// already computed.
type PointStats struct {
	Shards      int     `json:"shards"`
	CacheHits   int     `json:"cache_hits"`
	Executed    int     `json:"executed"`
	SubExecuted int     `json:"sub_executed,omitempty"` // sub-shards run for this point's split shards
	QueueWaitMS float64 `json:"queue_wait_ms"`
	WallMS      float64 `json:"wall_ms"`
}

// PointResult is one completed (or failed) grid point. Doc is the typed
// result document; Report is its text rendering (report.Text), kept on
// the wire so operators can read sweep responses without re-rendering.
type PointResult struct {
	Point
	Doc    *report.Doc `json:"doc,omitempty"`
	Report string      `json:"report,omitempty"`
	Error  string      `json:"error,omitempty"`
	Stats  PointStats  `json:"stats"`
}

// Aggregate summarizes a whole sweep: grid size, shard-level
// deduplication, cache effectiveness, and descriptive statistics over
// the per-point attributed compute times.
type Aggregate struct {
	Points       int     `json:"points"`
	Failed       int     `json:"failed"`
	ShardRefs    int     `json:"shard_refs"`
	UniqueShards int     `json:"unique_shards"`
	Deduplicated int     `json:"deduplicated"`
	CacheHits    int     `json:"cache_hits"`
	Executed     int     `json:"executed"`
	SubExecuted  int     `json:"sub_executed,omitempty"`
	QueueWaitMS  float64 `json:"queue_wait_ms"`
	WallMS       float64 `json:"wall_ms"`
	ReportBytes  int     `json:"report_bytes"`
	PointWallMS  Wall    `json:"point_wall_ms"`
}

// Wall is the min/mean/max envelope of per-point compute time.
type Wall struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// Result is a completed sweep: the expanded points in grid order plus
// the aggregate view. Tiers is the engine's exact cache-tier split of
// every shard ref; it feeds the ledger record and stays off the wire.
type Result struct {
	Experiment string            `json:"experiment"`
	Title      string            `json:"title,omitempty"`
	Points     []PointResult     `json:"points"`
	Aggregate  Aggregate         `json:"aggregate"`
	Tiers      engine.TierCounts `json:"-"`
}

// MaxPoints bounds a single sweep's expanded grid. The paper's largest
// grids (modules × timings × temperatures) are a few hundred points;
// the cap exists so a small request body cannot demand a
// memory-exhausting cartesian product from a serving daemon.
const MaxPoints = 4096

// Points validates the spec and expands the grid in deterministic order:
// module sets vary slowest, then seeds, then scales — so all points of
// one module set are adjacent in the output. Module sets are normalized
// through core.NormalizeModules; list-level problems (no experiment,
// duplicate module ids) fail here, before any shard runs.
func (s Spec) Points() ([]Point, error) {
	if s.Experiment == "" {
		return nil, fmt.Errorf("sweep: spec has no experiment")
	}
	if _, ok := core.Get(s.Experiment); !ok {
		return nil, fmt.Errorf("sweep: %w %q", core.ErrUnknownExperiment, s.Experiment)
	}
	scales := s.Scales
	if len(scales) == 0 {
		scales = []float64{core.DefaultOptions().Scale}
	}
	for _, sc := range scales {
		if !(sc > 0 && sc <= 1) { // NaN fails both comparisons
			return nil, fmt.Errorf("sweep: scale must be in (0,1], got %v", sc)
		}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{core.DefaultOptions().Seed}
	}
	sets := s.ModuleSets
	if len(sets) == 0 {
		sets = [][]string{nil}
	}
	if n := len(sets) * len(seeds) * len(scales); n > MaxPoints {
		return nil, fmt.Errorf("sweep: grid of %d points exceeds the %d-point limit", n, MaxPoints)
	}
	points := make([]Point, 0, len(sets)*len(seeds)*len(scales))
	for _, set := range sets {
		mods, err := core.NormalizeModules(set)
		if err != nil {
			return nil, fmt.Errorf("sweep: module set %v: %w", set, err)
		}
		for _, seed := range seeds {
			for _, sc := range scales {
				points = append(points, Point{Scale: sc, Seed: seed, Modules: mods})
			}
		}
	}
	return points, nil
}

// Run expands the spec and executes it as one batch on eng (nil selects
// the process-wide default engine). Spec-level problems — unknown
// experiment, out-of-range scale, malformed module set — return an
// error before anything executes; per-point execution failures land in
// that point's Error field and the aggregate Failed count, and do not
// abort the rest of the grid.
func Run(eng *engine.Engine, spec Spec) (*Result, error) {
	if eng == nil {
		eng = core.DefaultEngine()
	}
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	plans := make([]engine.Plan, len(points))
	for i, pt := range points {
		o := core.DefaultOptions()
		o.Scale, o.Seed, o.Modules = pt.Scale, pt.Seed, pt.Modules
		p, err := core.PlanFor(spec.Experiment, o)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
		plans[i] = p
	}

	outs, runStats, errs, bs := eng.ExecuteBatch(plans)

	res := &Result{Experiment: spec.Experiment, Points: make([]PointResult, len(points)), Tiers: bs.Tiers}
	if e, ok := core.Get(spec.Experiment); ok {
		res.Title = e.Title
	}
	walls := make([]float64, len(points))
	for i, pt := range points {
		pr := PointResult{Point: pt, Doc: outs[i], Report: report.Text(outs[i]), Stats: PointStats{
			Shards:      runStats[i].Shards,
			CacheHits:   runStats[i].CacheHits,
			Executed:    runStats[i].Executed,
			SubExecuted: runStats[i].SubExecuted,
			QueueWaitMS: ms(runStats[i].QueueWait),
			WallMS:      ms(runStats[i].Wall),
		}}
		if errs[i] != nil {
			pr.Error = errs[i].Error()
			pr.Doc, pr.Report = nil, ""
			res.Aggregate.Failed++
		}
		res.Aggregate.ReportBytes += len(pr.Report)
		walls[i] = pr.Stats.WallMS
		res.Points[i] = pr
	}
	sum := stats.Describe(walls)
	res.Aggregate.Points = bs.Plans
	res.Aggregate.ShardRefs = bs.ShardRefs
	res.Aggregate.UniqueShards = bs.UniqueShards
	res.Aggregate.Deduplicated = bs.Deduplicated
	res.Aggregate.CacheHits = bs.CacheHits
	res.Aggregate.Executed = bs.Executed
	res.Aggregate.SubExecuted = bs.SubExecuted
	res.Aggregate.QueueWaitMS = ms(bs.QueueWait)
	res.Aggregate.WallMS = ms(bs.Wall)
	res.Aggregate.PointWallMS = Wall{Min: sum.Min, Mean: sum.Mean, Max: sum.Max}
	return res, nil
}

// Failure summarizes the failed points, or "" when every point succeeded.
func (r *Result) Failure() string {
	if r.Aggregate.Failed == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d points failed", r.Aggregate.Failed, r.Aggregate.Points)
}

// LedgerRecord builds the sweep's durable ledger record: the spec's
// identity hash, every point's document (for Append to hash when it
// writes to disk), the exact tier split, and the engine's latency
// aggregates over window (the metrics accumulated while the sweep
// ran). Callers stamp what only they know, such as CompletedAt and
// Peers.
func (r *Result) LedgerRecord(spec Spec, workers int, window engine.Metrics) ledger.Record {
	docs := make([]*report.Doc, len(r.Points))
	for i := range r.Points {
		docs[i] = r.Points[i].Doc
	}
	lr := ledger.Record{
		Kind:        ledger.KindSweep,
		Experiment:  r.Experiment,
		OptionsHash: ledger.HashJSON("sweep", spec),
		Docs:        docs,
		Error:       r.Failure(),
		WallMS:      r.Aggregate.WallMS,
		Shards:      r.Aggregate.ShardRefs,
		Workers:     workers,
		SubShards:   r.Aggregate.SubExecuted,
		Tiers:       r.Tiers,
	}
	lr.FillWindow(window)
	return lr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
