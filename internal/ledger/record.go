package ledger

// This file bridges the engine's in-process observability into durable
// Record fields: the per-shard tier split (observed off Plan.OnShard),
// the always-on engine.Metrics latency aggregates (as a before/after
// window), and the obs.Analyze profile summary for traced runs.

import (
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// ObserveShards returns a shard-event observer that splits resolved
// shards by answering tier, and a function producing the final split.
// One observer may be shared by every plan of a batch. The snapshot
// function must only be called after the engine's Execute or
// ExecuteBatch returns — events arrive from worker goroutines until
// then.
func ObserveShards() (func(engine.ShardEvent), func() TierCounts) {
	var mu sync.Mutex
	var tc TierCounts
	onShard := func(ev engine.ShardEvent) {
		mu.Lock()
		switch {
		case !ev.Cached:
			tc.Miss++
		case ev.Tier == engine.TierMem:
			tc.Mem++
		case ev.Tier == engine.TierDisk:
			tc.Disk++
		case ev.Tier == engine.TierRemote:
			tc.Remote++
		default:
			tc.Join++
		}
		mu.Unlock()
	}
	return onShard, func() TierCounts {
		mu.Lock()
		defer mu.Unlock()
		return tc
	}
}

// ObservePlan chains ObserveShards onto the plan's OnShard hook
// (preserving any existing observer) and returns the snapshot
// function.
func ObservePlan(p *engine.Plan) func() TierCounts {
	onShard, snapshot := ObserveShards()
	prev := p.OnShard
	p.OnShard = func(ev engine.ShardEvent) {
		onShard(ev)
		if prev != nil {
			prev(ev)
		}
	}
	return snapshot
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func toLatency(s engine.LatencyStats) Latency {
	return Latency{Count: s.Count, TotalMS: ms(s.Total)}
}

// FillWindow stamps the record's latency aggregates from an
// engine.Metrics window (after minus before — see engine.Metrics.Sub).
// On a single-run process the window is exact; under a concurrently
// serving daemon it attributes whatever the engine observed during
// this run's lifetime, which may include overlapping runs' lookups —
// an aggregate view, not per-request accounting.
func (r *Record) FillWindow(w engine.Metrics) {
	r.QueueWait = toLatency(w.QueueWait)
	r.MemLookup = toLatency(w.MemLookup)
	r.DiskLookup = toLatency(w.DiskLookup)
	r.MissLookup = toLatency(w.MissLookup)
	r.RemoteLookup = toLatency(w.RemoteLookup)
}

// ProfileFrom summarizes a traced run's obs.Analysis for the ledger.
func ProfileFrom(a obs.Analysis, workers int) *Profile {
	return &Profile{
		Workers:         workers,
		ExecutedShards:  len(a.Shards),
		TotalExecMS:     ms(a.TotalExec),
		CriticalPathMS:  ms(a.CriticalPath),
		SerialFraction:  a.SerialFraction,
		MaxSpeedup:      a.MaxSpeedup,
		MeanUtilization: a.MeanUtilization,
	}
}
