// Package core is the public façade of the RowPress reproduction: a
// registry of experiment regenerators, one per table and figure of the
// paper, each producing a typed result document (report.Doc). The CLI
// (cmd/rowpress), the serving daemon (cmd/rowpressd), the examples, and
// the benchmark harness all go through this package and render the
// document through internal/report (Text, JSON, CSV).
//
// Experiments no longer register opaque closures: each registers a
// planner that decomposes its run into deterministic engine shards
// (per-module or per-configuration slices of the characterize/simperf
// sweeps) plus a merge that assembles the shards into the result
// document — report.Text of which is byte-identical to the historical
// serial report. Plans execute on an engine.Engine — concurrently when
// the engine has more than one worker, and served from its
// content-addressed cache tiers when the same (experiment, Options,
// shard) has completed before, in this process or (with a disk cache
// attached) a previous one.
//
// Usage:
//
//	doc, err := core.Run("fig6", core.Options{Scale: 0.5})      // default engine
//	doc, err = core.RunWith(engine.New(8, 0), "fig6", opts)     // explicit engine
//	fmt.Print(report.Text(doc))
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/characterize"
	"repro/internal/chipgen"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
)

// Options scales and seeds an experiment run. The zero value is not
// valid; start from DefaultOptions.
type Options struct {
	// Scale in (0, 1] multiplies the expensive dimensions (tested rows,
	// victim counts, simulated instructions). 1.0 is the full configured
	// run; benches use small scales.
	Scale float64
	// Modules restricts characterization experiments to the given Table 5
	// module IDs; empty = one representative module per die revision.
	Modules []string
	// Seed perturbs randomized components (PARA, workload mixes).
	Seed uint64
}

// DefaultOptions returns the full-scale configuration.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 1} }

func (o Options) validate() error {
	if !(o.Scale > 0 && o.Scale <= 1) { // NaN fails both comparisons
		return fmt.Errorf("core: Scale must be in (0,1], got %v", o.Scale)
	}
	return nil
}

// fingerprint canonically encodes the options every shard depends on:
// scale and seed. The module list is deliberately excluded — per-module
// shards carry their module in the shard key instead, so overlapping
// requests (e.g. modules=S0,S3 then modules=S0,S3,M3) share cached
// shards. Plans whose work reads o.Modules wholesale must fold the list
// into their shard keys (see register).
func (o Options) fingerprint() string {
	return fmt.Sprintf("scale=%g;seed=%d", o.Scale, o.Seed)
}

// Hash canonically addresses the full option set. Unlike fingerprint
// (which deliberately drops the module list so per-module shards can be
// shared across overlapping requests), Hash folds the normalized
// modules in: two runs carry the same Hash exactly when they answer the
// identical request. The run ledger's determinism check keys on it —
// equal hashes must yield equal document hashes.
func (o Options) Hash() string {
	mods, err := NormalizeModules(o.Modules)
	if err != nil {
		// A non-normalizable module list never plans, but hash it
		// faithfully so a failed run's record still has an identity.
		mods = o.Modules
	}
	return engine.Key("options", o.fingerprint(), strings.Join(mods, ","))
}

// scaled returns max(lo, round(n*Scale)).
func (o Options) scaled(n, lo int) int {
	v := int(float64(n) * o.Scale)
	if v < lo {
		return lo
	}
	return v
}

// NormalizeModules canonicalizes a user-supplied module-id list: ids are
// whitespace-trimmed and empty entries dropped (so "S0, S3" and "S0,,S3"
// mean S0+S3), and duplicate ids are rejected — a duplicate would plan
// two shards with the same key, violating the engine's key-uniqueness
// contract. A nil result selects the representative module set. Every
// plan entry point (PlanFor, and therefore Run, the HTTP layer, and the
// sweep subsystem) normalizes through here, so equal logical module
// lists always address the same cached shards.
func NormalizeModules(ids []string) ([]string, error) {
	var out []string
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if seen[id] {
			return nil, fmt.Errorf("core: duplicate module id %q", id)
		}
		seen[id] = true
		out = append(out, id)
	}
	return out, nil
}

// modules resolves the module set for characterization experiments.
func (o Options) modules() ([]chipgen.ModuleSpec, error) {
	if len(o.Modules) == 0 {
		return chipgen.Representative(), nil
	}
	out := make([]chipgen.ModuleSpec, len(o.Modules))
	for i, id := range o.Modules {
		spec, err := moduleByID(id)
		if err != nil {
			return nil, err
		}
		out[i] = spec
	}
	return out, nil
}

// moduleByID resolves one Table 5 module id, naming it when unknown.
func moduleByID(id string) (chipgen.ModuleSpec, error) {
	spec, ok := chipgen.ByID(id)
	if !ok {
		return chipgen.ModuleSpec{}, fmt.Errorf("core: unknown module id %q", id)
	}
	return spec, nil
}

// charConfig derives the characterization config at this scale.
func (o Options) charConfig() characterize.Config {
	cfg := characterize.DefaultConfig()
	cfg.RowsToTest = o.scaled(cfg.RowsToTest, 3)
	cfg.Trials = o.scaled(cfg.Trials, 2)
	return cfg
}

// planner decomposes one experiment at the given options into shards and
// a merge. The returned plan's Experiment/Fingerprint fields are filled
// in by PlanFor.
type planner func(Options) (engine.Plan, error)

// Experiment is one registered regenerator.
type Experiment struct {
	ID    string // figure/table id, e.g. "fig6", "table3"
	Title string
	plan  planner
}

// ErrUnknownExperiment reports an id not present in the registry;
// callers (the HTTP layer) match it with errors.Is.
var ErrUnknownExperiment = errors.New("unknown experiment")

var registry = map[string]Experiment{}

// registerPlan is the root registration hook: every experiment is a
// planner producing shardable units.
func registerPlan(id, title string, plan planner) {
	if _, dup := registry[id]; dup {
		panic("core: duplicate experiment id " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, plan: plan}
}

// register registers a monolithic experiment as a single-shard plan, for
// regenerators whose work does not decompose (demo-system grids, catalog
// walks). The run closure receives the full Options, so the module list
// is folded into the shard key. The cached payload is the document
// itself; the merge hands out a shallow copy so PlanFor's metadata
// stamping never mutates a value other runs share through the cache.
func register(id, title string, run func(Options) (*report.Doc, error)) {
	registerPlan(id, title, func(o Options) (engine.Plan, error) {
		return typedShards([]string{"all;modules=" + strings.Join(o.Modules, ",")},
			func(int) (*report.Doc, error) { return run(o) },
			func(parts []*report.Doc) (*report.Doc, error) {
				cp := *parts[0]
				return &cp, nil
			},
		), nil
	})
}

// Get returns the experiment registered under id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// List returns all experiments sorted by id.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PlanFor validates the options and returns the executable engine plan
// for one experiment. Callers that want per-run cache statistics hand the
// plan to engine.Engine.Execute themselves; everyone else uses Run.
func PlanFor(id string, o Options) (engine.Plan, error) {
	if err := o.validate(); err != nil {
		return engine.Plan{}, err
	}
	mods, err := NormalizeModules(o.Modules)
	if err != nil {
		return engine.Plan{}, err
	}
	o.Modules = mods
	e, ok := registry[id]
	if !ok {
		return engine.Plan{}, fmt.Errorf("core: %w %q (use List)", ErrUnknownExperiment, id)
	}
	p, err := e.plan(o)
	if err != nil {
		return engine.Plan{}, err
	}
	p.Experiment = id
	p.Fingerprint = o.fingerprint()
	// The normalized options are the plan's remote metadata: they are
	// everything a fabric peer needs to rebuild this exact plan (and
	// re-derive the same shard addresses) from its own registry.
	p.Remote = o
	// Stamp the document's identity and run parameters after the merge:
	// merges only build sections, so every experiment's metadata is
	// uniform and the text rendering (sections only) stays byte-stable.
	inner := p.Merge
	p.Merge = func(parts []any) (*report.Doc, error) {
		d, err := inner(parts)
		if err != nil {
			return nil, err
		}
		d.Experiment = id
		d.Title = e.Title
		d.Params = o.params()
		return d, nil
	}
	return p, nil
}

// params renders the normalized run options as document metadata.
func (o Options) params() []report.Param {
	mods := "representative"
	if len(o.Modules) > 0 {
		mods = strings.Join(o.Modules, ",")
	}
	return []report.Param{
		{Key: "scale", Value: fmt.Sprintf("%g", o.Scale)},
		{Key: "seed", Value: fmt.Sprintf("%d", o.Seed)},
		{Key: "modules", Value: mods},
	}
}

// defaultEngine backs Run: process-wide, so repeated runs within one
// process (tests, examples, benches) share the shard cache.
var defaultEngine = engine.New(0, 0)

// DefaultEngine returns the process-wide engine used by Run.
func DefaultEngine() *engine.Engine { return defaultEngine }

// Run executes the experiment with the given id on the default engine.
func Run(id string, o Options) (*report.Doc, error) {
	return RunWith(defaultEngine, id, o)
}

// RunWith executes the experiment on the given engine. The resulting
// document — and therefore report.Text of it — is byte-identical across
// worker counts: shards are deterministic and the merge consumes them
// in plan order. Traced runs record plan decomposition as well as
// shard execution (see RunObserved).
func RunWith(eng *engine.Engine, id string, o Options) (*report.Doc, error) {
	out, _, err := RunObserved(eng, id, o, nil)
	return out, err
}

// RunObserved is RunWith for callers that also need the engine's
// per-run statistics and per-shard resolution events — the run ledger
// uses the events to split the shard count by answering cache tier.
// onShard (may be nil) is chained onto the plan exactly like
// engine.Plan.OnShard: invoked concurrently from worker goroutines.
// When the engine has a span recorder attached, the recorder times
// plan decomposition as a plan_build span; core itself never reads the
// clock, so nothing timed can reach the report document.
func RunObserved(eng *engine.Engine, id string, o Options, onShard func(engine.ShardEvent)) (*report.Doc, engine.RunStats, error) {
	planned := eng.Recorder().Start(obs.PlanBuild, id)
	p, err := PlanFor(id, o)
	if err != nil {
		return nil, engine.RunStats{}, err
	}
	planned()
	p.OnShard = onShard
	return eng.Execute(p)
}

// sweepTAggONs trims the standard lattice at small scales so quick runs
// stay quick but always keep the anchor points (36 ns, 7.8 µs, 70.2 µs,
// 30 ms).
func sweepTAggONs(o Options) []dram.TimePS {
	if o.Scale >= 0.5 {
		return characterize.StandardTAggONs
	}
	return []dram.TimePS{
		36 * dram.Nanosecond,
		186 * dram.Nanosecond,
		1536 * dram.Nanosecond,
		7800 * dram.Nanosecond,
		70200 * dram.Nanosecond,
		6 * dram.Millisecond,
		30 * dram.Millisecond,
	}
}
