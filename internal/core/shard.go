package core

import (
	"fmt"
	"reflect"

	"repro/internal/chipgen"
	"repro/internal/engine"
	"repro/internal/report"
)

// This file holds the typed shard-plan builders experiments register
// through. Shard payloads cross the engine as `any`; the builders here
// recover the concrete type on the merge side so experiment code stays
// typed end to end. Payloads are cached and shared across runs — in
// memory and, when a disk tier or fabric peers are attached, across
// processes — so work functions must return fresh values and merges must
// not mutate them. The builders gob-register every payload type they
// carry, so any plan a process builds can persist and ship its payloads:
// a process only encodes or decodes a payload at the key of a plan it
// has already built. They also record each payload's type on its shard,
// so a fabric peer's answer of another type is never merged or cached.

// typedShards converts n typed work units into engine shards plus a merge
// adapter that hands the typed payload slice to render.
func typedShards[T any](keys []string, work func(i int) (T, error),
	render func(parts []T) (*report.Doc, error)) engine.Plan {
	engine.RegisterPayloadType(*new(T))
	shards := make([]engine.Shard, len(keys))
	for i, key := range keys {
		shards[i] = engine.Shard{Key: key, Run: func() (any, error) { return work(i) }, Type: reflect.TypeFor[T]()}
	}
	return engine.Plan{Shards: shards, Merge: typedMerge(keys, render)}
}

// typedMerge adapts a typed render into the engine's merge signature.
func typedMerge[T any](keys []string, render func(parts []T) (*report.Doc, error)) func([]any) (*report.Doc, error) {
	return func(parts []any) (*report.Doc, error) {
		ts := make([]T, len(parts))
		for i, p := range parts {
			t, ok := p.(T)
			if !ok {
				return nil, fmt.Errorf("core: shard %q payload is %T, want %T", keys[i], p, t)
			}
			ts[i] = t
		}
		return render(ts)
	}
}

// split declares one work unit's deterministic second-level sharding:
// keys name the sub-shards (unique within the unit, stable across equal
// runs), work computes sub-shard j, and gather folds the sub payloads —
// always in key order, whatever order they completed in — into the
// unit's payload. Sub payloads cross the engine as `any` and are cached
// like unit payloads, so they must be treated as immutable once
// returned.
type split[T, S any] struct {
	keys   []string
	work   func(j int) (S, error)
	gather func(subs []S) (T, error)
}

// typedSplitShards is typedShards with a second level of sharding: each
// unit declares sub-shards that execute as independent cache-keyed work
// on the pool, gathered two-level (sub payloads → unit part → doc).
// Warm runs hit the cache at the unit level and never touch the subs.
func typedSplitShards[T, S any](keys []string, splitOf func(i int) split[T, S],
	render func(parts []T) (*report.Doc, error)) engine.Plan {
	engine.RegisterPayloadType(*new(T))
	engine.RegisterPayloadType(*new(S))
	shards := make([]engine.Shard, len(keys))
	for i, key := range keys {
		sp := splitOf(i)
		subs := make([]engine.SubShard, len(sp.keys))
		for j, sk := range sp.keys {
			subs[j] = engine.SubShard{Key: sk, Run: func() (any, error) { return sp.work(j) }, Type: reflect.TypeFor[S]()}
		}
		shards[i] = engine.Shard{
			Key:  key,
			Type: reflect.TypeFor[T](),
			Subs: subs,
			Gather: func(parts []any) (any, error) {
				ss := make([]S, len(parts))
				for j, p := range parts {
					s, ok := p.(S)
					if !ok {
						return nil, fmt.Errorf("core: sub-shard %q payload is %T, want %T", sp.keys[j], p, s)
					}
					ss[j] = s
				}
				return sp.gather(ss)
			},
		}
	}
	return engine.Plan{Shards: shards, Merge: typedMerge(keys, render)}
}

// registerPerModule registers an experiment sharded one unit per selected
// module: work computes the per-module slice of the sweep, merge
// reassembles the report in module order (so output is byte-identical to
// the serial path).
func registerPerModule[T any](id, title string,
	work func(o Options, spec chipgen.ModuleSpec) (T, error),
	merge func(o Options, specs []chipgen.ModuleSpec, parts []T) (*report.Doc, error)) {
	registerPlan(id, title, func(o Options) (engine.Plan, error) {
		specs, err := o.modules()
		if err != nil {
			return engine.Plan{}, err
		}
		keys := make([]string, len(specs))
		for i, spec := range specs {
			keys[i] = "module/" + spec.ID
		}
		return typedShards(keys,
			func(i int) (T, error) { return work(o, specs[i]) },
			func(parts []T) (*report.Doc, error) { return merge(o, specs, parts) },
		), nil
	})
}

// registerPerModuleSplit is registerPerModule with a declared per-unit
// split: splitOf decomposes one module's work into sub-shards (per row
// site, data pattern, or search — see the sizing heuristic at
// subShardTarget) and gathers their payloads into the module part.
func registerPerModuleSplit[T, S any](id, title string,
	splitOf func(o Options, spec chipgen.ModuleSpec) split[T, S],
	merge func(o Options, specs []chipgen.ModuleSpec, parts []T) (*report.Doc, error)) {
	registerPlan(id, title, func(o Options) (engine.Plan, error) {
		specs, err := o.modules()
		if err != nil {
			return engine.Plan{}, err
		}
		keys := make([]string, len(specs))
		for i, spec := range specs {
			keys[i] = "module/" + spec.ID
		}
		return typedSplitShards(keys,
			func(i int) split[T, S] { return splitOf(o, specs[i]) },
			func(parts []T) (*report.Doc, error) { return merge(o, specs, parts) },
		), nil
	})
}

// subShardTarget is the sizing heuristic for declared splits: a unit
// aims for at most this many sub-shards, chunking its site list so each
// sub-shard still amortizes its bench setup over at least one full
// search group. 16 keeps an 8-worker pool busy with 2× scheduling
// headroom while bounding per-unit cache entries and setup overhead at
// paper scale (48+ sites per unit).
const subShardTarget = 16

// chunkRanges partitions n items into at most target contiguous chunks,
// returned as [lo, hi) index pairs, each holding ⌊n/c⌋ or ⌈n/c⌉ items.
func chunkRanges(n, target int) [][2]int {
	if n <= 0 {
		return nil
	}
	c := target
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	out := make([][2]int, 0, c)
	for i := 0; i < c; i++ {
		lo, hi := i*n/c, (i+1)*n/c
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// registerKeyed registers an experiment sharded over an arbitrary
// deterministic key lattice (data-pattern studies per die×temperature,
// simperf studies per mitigation kind or workload).
func registerKeyed[T any](id, title string,
	keys func(o Options) ([]string, error),
	work func(o Options, i int, key string) (T, error),
	merge func(o Options, parts []T) (*report.Doc, error)) {
	registerPlan(id, title, func(o Options) (engine.Plan, error) {
		ks, err := keys(o)
		if err != nil {
			return engine.Plan{}, err
		}
		return typedShards(ks,
			func(i int) (T, error) { return work(o, i, ks[i]) },
			func(parts []T) (*report.Doc, error) { return merge(o, parts) },
		), nil
	})
}

// staticKeys adapts a fixed key lattice to registerKeyed.
func staticKeys(ks ...string) func(Options) ([]string, error) {
	return func(Options) ([]string, error) { return ks, nil }
}
