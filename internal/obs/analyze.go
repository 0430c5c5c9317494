package obs

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/report"
)

// This file turns a recorded span set into the profile the ROADMAP's
// parallelism work needs: which shards dominate wall time, how busy
// each worker was, how long the serial critical path is, and the
// Amdahl bound on what more workers could possibly buy.

// ShardProfile is one executed shard's slice of the run.
type ShardProfile struct {
	Experiment string
	Shard      string
	Worker     int
	Queue      time.Duration // enqueue→dequeue wait
	Exec       time.Duration
	Bytes      int64
}

// WorkerProfile aggregates one worker slot's activity.
type WorkerProfile struct {
	Worker      int
	Shards      int
	Busy        time.Duration
	Utilization float64 // Busy / analysis wall
}

// Analysis is the derived profile of one traced run (or several runs
// sharing a recorder).
type Analysis struct {
	Wall       time.Duration // span envelope: earliest start to latest end
	PlanBuild  time.Duration
	Merge      time.Duration
	Render     time.Duration
	TotalExec  time.Duration // summed shard execution
	TotalQueue time.Duration // summed queue waits
	CacheHits  int           // mem+disk lookup hits
	Shards     []ShardProfile
	Workers    []WorkerProfile

	// CriticalPath is the serial chain no worker count removes: plan
	// build + the longest single shard + merge + render.
	CriticalPath time.Duration
	// SerialFraction is CriticalPath over the total serialized work
	// (plan build + all shard execution + merge + render) — Amdahl's s.
	SerialFraction float64
	// MaxSpeedup is the Amdahl bound: total work / critical path.
	MaxSpeedup float64
	// MeanUtilization averages worker utilization over the wall.
	MeanUtilization float64
}

// Analyze derives the profile from a span snapshot. Spans from
// multiple runs accumulate into one profile; an empty snapshot yields
// a zero Analysis.
func Analyze(spans []Span) Analysis {
	var a Analysis
	if len(spans) == 0 {
		return a
	}
	var minStart, maxEnd time.Duration
	first := true
	queues := map[string]time.Duration{} // shard key -> queue wait
	workers := map[int]*WorkerProfile{}
	var maxExec time.Duration
	for _, s := range spans {
		if first || s.Start < minStart {
			minStart = s.Start
		}
		if first || s.End() > maxEnd {
			maxEnd = s.End()
		}
		first = false
		switch s.Kind {
		case PlanBuild:
			a.PlanBuild += s.Dur
		case Merge:
			a.Merge += s.Dur
		case Render:
			a.Render += s.Dur
		case QueueWait:
			a.TotalQueue += s.Dur
			queues[s.Experiment+"\x1f"+s.Shard] += s.Dur
		case CacheMem, CacheDisk:
			a.CacheHits++
		case Execute:
			a.TotalExec += s.Dur
			if s.Dur > maxExec {
				maxExec = s.Dur
			}
			a.Shards = append(a.Shards, ShardProfile{
				Experiment: s.Experiment,
				Shard:      s.Shard,
				Worker:     int(s.Worker),
				Exec:       s.Dur,
				Bytes:      s.Bytes,
			})
			w := workers[int(s.Worker)]
			if w == nil {
				w = &WorkerProfile{Worker: int(s.Worker)}
				workers[int(s.Worker)] = w
			}
			w.Shards++
			w.Busy += s.Dur
		}
	}
	a.Wall = maxEnd - minStart
	for i := range a.Shards {
		a.Shards[i].Queue = queues[a.Shards[i].Experiment+"\x1f"+a.Shards[i].Shard]
	}
	sort.Slice(a.Shards, func(i, j int) bool {
		if a.Shards[i].Exec != a.Shards[j].Exec {
			return a.Shards[i].Exec > a.Shards[j].Exec
		}
		return a.Shards[i].Shard < a.Shards[j].Shard
	})
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w := workers[id]
		if a.Wall > 0 {
			w.Utilization = float64(w.Busy) / float64(a.Wall)
		}
		a.Workers = append(a.Workers, *w)
	}
	for _, w := range a.Workers {
		a.MeanUtilization += w.Utilization
	}
	if len(a.Workers) > 0 {
		a.MeanUtilization /= float64(len(a.Workers))
	}

	a.CriticalPath = a.PlanBuild + maxExec + a.Merge + a.Render
	total := a.PlanBuild + a.TotalExec + a.Merge + a.Render
	if total > 0 && a.CriticalPath > 0 {
		a.SerialFraction = float64(a.CriticalPath) / float64(total)
		a.MaxSpeedup = float64(total) / float64(a.CriticalPath)
	}
	return a
}

// ms renders a duration in milliseconds for profile tables.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// Doc renders the analysis as a typed result document: the shard-
// dominance table (top n shards by execution time, with share and
// cumulative share of total execution), the per-worker utilization
// table, and the critical-path / Amdahl findings. n <= 0 keeps every
// shard.
func (a Analysis) Doc(n int) *report.Doc {
	if n <= 0 || n > len(a.Shards) {
		n = len(a.Shards)
	}
	rows := make([][]string, 0, n)
	var cum time.Duration
	for i := 0; i < n; i++ {
		sp := a.Shards[i]
		cum += sp.Exec
		share, cshare := 0.0, 0.0
		if a.TotalExec > 0 {
			share = float64(sp.Exec) / float64(a.TotalExec)
			cshare = float64(cum) / float64(a.TotalExec)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			sp.Experiment,
			sp.Shard,
			fmt.Sprintf("%d", sp.Worker),
			ms(sp.Exec),
			report.Pct(share),
			report.Pct(cshare),
			ms(sp.Queue),
			fmt.Sprintf("%d", sp.Bytes),
		})
	}
	notes := []string{fmt.Sprintf("executed shards: %d  cache hits: %d  total exec: %s ms  wall: %s ms",
		len(a.Shards), a.CacheHits, ms(a.TotalExec), ms(a.Wall))}
	if n < len(a.Shards) {
		notes = append(notes, fmt.Sprintf("showing top %d of %d shards by execution time", n, len(a.Shards)))
	}
	dom := report.TableSection("shard dominance",
		[]string{"#", "experiment", "shard", "worker", "exec_ms", "share", "cum_share", "queue_ms", "bytes"},
		rows, notes...)

	wrows := make([][]string, 0, len(a.Workers))
	for _, w := range a.Workers {
		wrows = append(wrows, []string{
			fmt.Sprintf("%d", w.Worker),
			fmt.Sprintf("%d", w.Shards),
			ms(w.Busy),
			report.Pct(w.Utilization),
		})
	}
	util := report.TableSection("worker utilization",
		[]string{"worker", "shards", "busy_ms", "utilization"},
		wrows,
		fmt.Sprintf("mean utilization %s over %s ms wall", report.Pct(a.MeanUtilization), ms(a.Wall)))

	crit := report.FindingsSection("critical path",
		fmt.Sprintf("plan build %s ms + longest shard %s ms + merge %s ms + render %s ms = critical path %s ms",
			ms(a.PlanBuild), ms(a.CriticalPath-a.PlanBuild-a.Merge-a.Render), ms(a.Merge), ms(a.Render), ms(a.CriticalPath)),
		fmt.Sprintf("serial fraction %s of %s ms total work (Amdahl)",
			report.Pct(a.SerialFraction), ms(a.PlanBuild+a.TotalExec+a.Merge+a.Render)),
		fmt.Sprintf("theoretical max speedup %.2fx at unlimited workers", a.MaxSpeedup),
		fmt.Sprintf("queue wait total %s ms across executed shards", ms(a.TotalQueue)),
	)
	return report.NewDoc(dom, util, crit)
}
