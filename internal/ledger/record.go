package ledger

// This file bridges the engine's in-process observability into durable
// Record fields: a run's stats and tier split (engine.RunStats), the
// always-on engine.Metrics latency aggregates (as a before/after
// window), and the obs.Analyze profile summary for traced runs.

import (
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
)

// RunRecord builds one experiment run's durable ledger record: the
// identity hashes, the run's stats and exact tier split, and the
// engine's latency aggregates over window (the metrics accumulated
// while the run executed). A failed run is recorded with its error
// instead of a document hash — a history that omits failures cannot
// explain a trend break. The document rides in Docs, for Append to
// hash if it writes the record to disk. It is the run-side twin of
// sweep.Result.LedgerRecord; callers stamp what only they know, such
// as CompletedAt, Peers, or Profile.
func RunRecord(id, optionsHash string, workers int, st engine.RunStats, window engine.Metrics, doc *report.Doc, err error) Record {
	r := Record{
		Kind:        KindRun,
		Experiment:  id,
		OptionsHash: optionsHash,
		WallMS:      ms(st.Wall),
		Shards:      st.Shards,
		Workers:     workers,
		SubShards:   st.SubExecuted,
		Tiers:       st.Tiers,
	}
	r.FillWindow(window)
	if err != nil {
		r.Error = err.Error()
	} else {
		r.Docs = []*report.Doc{doc}
	}
	return r
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
