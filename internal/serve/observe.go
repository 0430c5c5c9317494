package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/obs"
)

// This file is the serving layer's observability: per-endpoint latency
// histograms and in-flight gauges collected by a middleware wrapped
// around every route, structured request logging through log/slog, the
// Prometheus text-exposition endpoint (GET /metrics), and the
// liveness/readiness endpoint (GET /v1/healthz).

// route is one instrumented endpoint's always-on counters. Histograms
// use the fixed log-spaced buckets of obs.NewLatencyHistogram, so the
// Prometheus exposition is stable across processes.
type route struct {
	name      string // pattern minus method and path wildcards, e.g. "/v1/run"
	hist      *obs.Histogram
	inFlight  atomic.Int64
	status4xx atomic.Uint64
	status5xx atomic.Uint64
}

// requestInfo is the per-request annotation channel between middleware
// and handlers: handlers that execute shards record how many, and the
// request log line carries it.
type requestInfo struct {
	shards   int
	executed int
}

type requestInfoKey struct{}

// annotate records shard accounting for the current request's log
// line; a no-op when the handler runs outside the middleware (tests
// calling handlers directly).
func annotate(ctx context.Context, shards, executed int) {
	if ri, ok := ctx.Value(requestInfoKey{}).(*requestInfo); ok {
		ri.shards, ri.executed = shards, executed
	}
}

// statusWriter captures the response status for metrics and logging.
// It forwards Flush so NDJSON streaming keeps working through the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeName derives the metrics label from a ServeMux pattern:
// "GET /v1/run/{exp}" -> "/v1/run".
func routeName(pattern string) string {
	name := pattern
	if i := strings.IndexByte(name, ' '); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.Index(name, "/{"); i > 0 {
		name = name[:i]
	}
	return name
}

// handle registers an instrumented route: every request is counted
// in-flight, timed into the route's histogram, status-classified, and
// logged through the server's structured logger with a process-unique
// request id.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	rt := &route{name: routeName(pattern), hist: obs.NewLatencyHistogram()}
	s.routes = append(s.routes, rt)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		rt.inFlight.Add(1)
		defer rt.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ri := &requestInfo{}
		r = r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, ri))
		t0 := time.Now()
		h(sw, r)
		d := time.Since(t0)
		rt.hist.Observe(d)
		switch {
		case sw.status >= 500:
			rt.status5xx.Add(1)
		case sw.status >= 400:
			rt.status4xx.Add(1)
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.Uint64("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", d),
			slog.Int("shards", ri.shards),
			slog.Int("executed", ri.executed),
		)
	})
}

// SetDraining marks the server as shutting down: /v1/healthz readiness
// flips to 503 so load balancers stop routing new work while in-flight
// requests drain.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// HealthResponse is the JSON body of /v1/healthz. Live is process
// liveness (always true when the handler answers); Ready gates
// traffic: the worker pool accepts work and, when a persistent cache
// is configured, its index is loaded. Degraded is set on a fabric
// coordinator when a configured peer is unreachable or its circuit is
// open — the daemon stays Ready because local-execute fallback keeps
// every answer correct, but operators see the fleet is impaired and
// the per-peer checks name the failing peers.
type HealthResponse struct {
	Live     bool              `json:"live"`
	Ready    bool              `json:"ready"`
	Degraded bool              `json:"degraded,omitempty"`
	Checks   map[string]string `json:"checks"`
	UptimeS  float64           `json:"uptime_s"`
}

// peerProbeTimeout bounds the per-peer /healthz probe a coordinator's
// readiness check performs.
const peerProbeTimeout = time.Second

// readiness evaluates the readiness checks. degraded reports a
// coordinator with at least one unreachable or circuit-open peer.
func (s *Server) readiness() (ready, degraded bool, checks map[string]string) {
	checks = map[string]string{}
	ready = true
	if s.draining.Load() {
		checks["pool"] = "draining"
		ready = false
	} else if s.eng.Workers() <= 0 {
		checks["pool"] = "no workers"
		ready = false
	} else {
		checks["pool"] = "ok"
	}
	if s.eng.Disk() != nil {
		// OpenDiskCache loads (or rebuilds) the index before the tier can
		// be attached, so an attached tier is a loaded one.
		checks["disk_cache"] = fmt.Sprintf("ok (%d entries)", s.eng.Disk().Stats().Entries)
	} else {
		checks["disk_cache"] = "disabled"
	}
	if s.fabric != nil {
		sts := s.fabric.Status(peerProbeTimeout)
		up := 0
		for _, st := range sts {
			state := "ok"
			switch {
			case !st.Reachable:
				state = "unreachable"
				if st.Error != "" {
					state += ": " + st.Error
				}
				degraded = true
			case st.CircuitOpen:
				state = "circuit open"
				degraded = true
			default:
				up++
			}
			checks["peer "+st.URL] = state
		}
		checks["fabric"] = fmt.Sprintf("%d/%d peers up", up, len(sts))
	}
	return ready, degraded, checks
}

// handleHealthzV1 answers liveness/readiness in plain text (default,
// probe-friendly) or JSON (?format=json). Not-ready answers 503 so an
// orchestrator's readiness probe fails while the daemon drains.
func (s *Server) handleHealthzV1(w http.ResponseWriter, r *http.Request) {
	format, err := parseFormat(r.URL.Query(), "text", "text", "json")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ready, degraded, checks := s.readiness()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	if format == "json" {
		writeJSON(w, status, HealthResponse{
			Live: true, Ready: ready, Degraded: degraded, Checks: checks,
			UptimeS: s.now().Sub(s.start).Seconds(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintf(w, "live: ok\nready: %v\n", ready)
	if degraded {
		fmt.Fprintf(w, "degraded: true\n")
	}
	names := make([]string, 0, len(checks))
	for n := range checks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s: %s\n", n, checks[n])
	}
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// handlePromMetrics serves the Prometheus text exposition format:
// engine counters, queue-wait and tier-attributed cache-lookup
// latency, and per-endpoint request histograms / in-flight gauges —
// the scrape-side twin of the JSON /v1/metrics.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	gauge("rowpress_uptime_seconds", "Seconds since the server started.", s.now().Sub(s.start).Seconds())
	gauge("rowpress_workers", "Engine worker-pool size.", float64(s.eng.Workers()))
	counter("rowpress_runs_total", "Experiment runs executed by the engine.", float64(m.Runs))
	counter("rowpress_shards_planned_total", "Shards planned across all runs.", float64(m.ShardsPlanned))
	counter("rowpress_shards_executed_total", "Shards actually executed (cache misses).", float64(m.ShardsExecuted))
	counter("rowpress_sub_shards_planned_total", "Sub-shards declared by split shards across all runs.", float64(m.SubShardsPlanned))
	counter("rowpress_sub_shards_executed_total", "Sub-shards actually run (cached subs and warm units excluded).", float64(m.SubShardsExecuted))
	counter("rowpress_cache_hits_total", "Run-level shard cache hits (any tier).", float64(m.CacheHits))
	counter("rowpress_cache_misses_total", "Run-level shard cache misses.", float64(m.CacheMisses))
	counter("rowpress_engine_errors_total", "Runs that ended in an error.", float64(m.Errors))
	counter("rowpress_run_failures_total", "Failed runs and failed sweep points served.", float64(s.failures.Load()))

	fmt.Fprintf(&b, "# HELP rowpress_cache_entries Entries per cache tier.\n# TYPE rowpress_cache_entries gauge\n")
	fmt.Fprintf(&b, "rowpress_cache_entries{tier=\"mem\"} %d\n", m.Mem.Entries)
	fmt.Fprintf(&b, "rowpress_cache_entries{tier=\"disk\"} %d\n", m.Disk.Entries)
	fmt.Fprintf(&b, "# HELP rowpress_cache_evictions_total Evictions per cache tier.\n# TYPE rowpress_cache_evictions_total counter\n")
	fmt.Fprintf(&b, "rowpress_cache_evictions_total{tier=\"mem\"} %d\n", m.Mem.Evictions)
	fmt.Fprintf(&b, "rowpress_cache_evictions_total{tier=\"disk\"} %d\n", m.Disk.Evictions)
	gauge("rowpress_disk_cache_bytes", "Bytes stored in the persistent cache tier.", float64(m.Disk.Bytes))

	counter("rowpress_queue_waits_total", "Shard dispatch-to-execution waits observed.", float64(m.QueueWait.Count))
	counter("rowpress_queue_wait_seconds_total", "Summed shard queue wait.", m.QueueWait.Total.Seconds())
	fmt.Fprintf(&b, "# HELP rowpress_cache_lookups_total Shard cache lookups by answering tier.\n# TYPE rowpress_cache_lookups_total counter\n")
	fmt.Fprintf(&b, "rowpress_cache_lookups_total{tier=\"mem_hit\"} %d\n", m.MemLookup.Count)
	fmt.Fprintf(&b, "rowpress_cache_lookups_total{tier=\"disk_hit\"} %d\n", m.DiskLookup.Count)
	fmt.Fprintf(&b, "rowpress_cache_lookups_total{tier=\"remote_hit\"} %d\n", m.RemoteLookup.Count)
	fmt.Fprintf(&b, "rowpress_cache_lookups_total{tier=\"miss\"} %d\n", m.MissLookup.Count)
	fmt.Fprintf(&b, "# HELP rowpress_cache_lookup_seconds_total Summed lookup latency by answering tier.\n# TYPE rowpress_cache_lookup_seconds_total counter\n")
	fmt.Fprintf(&b, "rowpress_cache_lookup_seconds_total{tier=\"mem_hit\"} %g\n", m.MemLookup.Total.Seconds())
	fmt.Fprintf(&b, "rowpress_cache_lookup_seconds_total{tier=\"disk_hit\"} %g\n", m.DiskLookup.Total.Seconds())
	fmt.Fprintf(&b, "rowpress_cache_lookup_seconds_total{tier=\"remote_hit\"} %g\n", m.RemoteLookup.Total.Seconds())
	fmt.Fprintf(&b, "rowpress_cache_lookup_seconds_total{tier=\"miss\"} %g\n", m.MissLookup.Total.Seconds())
	counter("rowpress_remote_errors_total", "Shard dispatches that exhausted every fabric peer and fell back to local execution.", float64(m.RemoteErrors))

	if s.fabric != nil {
		fm := s.fabric.Metrics()
		gauge("rowpress_fabric_peers", "Configured fabric peers.", float64(fm.Peers))
		peerCounter := func(name, help string, val func(fabric.PeerMetrics) uint64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, pm := range fm.PerPeer {
				fmt.Fprintf(&b, "%s{peer=\"%s\"} %d\n", name, promEscape(pm.URL), val(pm))
			}
		}
		peerCounter("rowpress_fabric_dispatches_total", "Shard dispatch attempts per peer (retries included).",
			func(pm fabric.PeerMetrics) uint64 { return pm.Dispatches })
		peerCounter("rowpress_fabric_hits_total", "Successful shard answers per peer.",
			func(pm fabric.PeerMetrics) uint64 { return pm.Hits })
		peerCounter("rowpress_fabric_warm_hits_total", "Answers served from the peer's own cache tiers.",
			func(pm fabric.PeerMetrics) uint64 { return pm.WarmHits })
		peerCounter("rowpress_fabric_errors_total", "Failed dispatch attempts per peer.",
			func(pm fabric.PeerMetrics) uint64 { return pm.Errors })
		peerCounter("rowpress_fabric_cancelled_total", "Dispatch attempts per peer abandoned because another peer answered first.",
			func(pm fabric.PeerMetrics) uint64 { return pm.Cancelled })
		peerCounter("rowpress_fabric_retries_total", "Retry attempts per peer.",
			func(pm fabric.PeerMetrics) uint64 { return pm.Retries })
		peerCounter("rowpress_fabric_hedges_total", "Hedged dispatches fired because this peer was slow.",
			func(pm fabric.PeerMetrics) uint64 { return pm.Hedges })
		peerCounter("rowpress_fabric_hedge_wins_total", "Dispatches where the hedge answered first.",
			func(pm fabric.PeerMetrics) uint64 { return pm.HedgeWins })
		fmt.Fprintf(&b, "# HELP rowpress_fabric_circuit_open Whether the peer's circuit breaker is open.\n# TYPE rowpress_fabric_circuit_open gauge\n")
		for _, pm := range fm.PerPeer {
			open := 0
			if pm.CircuitOpen {
				open = 1
			}
			fmt.Fprintf(&b, "rowpress_fabric_circuit_open{peer=\"%s\"} %d\n", promEscape(pm.URL), open)
		}
	}

	fmt.Fprintf(&b, "# HELP rowpress_http_in_flight Requests currently being served per route.\n# TYPE rowpress_http_in_flight gauge\n")
	for _, rt := range s.routes {
		fmt.Fprintf(&b, "rowpress_http_in_flight{route=\"%s\"} %d\n", promEscape(rt.name), rt.inFlight.Load())
	}
	fmt.Fprintf(&b, "# HELP rowpress_http_responses_total Responses per route and status class.\n# TYPE rowpress_http_responses_total counter\n")
	for _, rt := range s.routes {
		n4, n5 := rt.status4xx.Load(), rt.status5xx.Load()
		total := rt.hist.Count()
		var n2 uint64
		if total >= n4+n5 {
			n2 = total - n4 - n5
		}
		fmt.Fprintf(&b, "rowpress_http_responses_total{route=\"%s\",class=\"2xx\"} %d\n", promEscape(rt.name), n2)
		fmt.Fprintf(&b, "rowpress_http_responses_total{route=\"%s\",class=\"4xx\"} %d\n", promEscape(rt.name), n4)
		fmt.Fprintf(&b, "rowpress_http_responses_total{route=\"%s\",class=\"5xx\"} %d\n", promEscape(rt.name), n5)
	}
	fmt.Fprintf(&b, "# HELP rowpress_http_request_duration_seconds Request latency per route.\n# TYPE rowpress_http_request_duration_seconds histogram\n")
	for _, rt := range s.routes {
		snap := rt.hist.Snapshot()
		name := promEscape(rt.name)
		var cum uint64
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(&b, "rowpress_http_request_duration_seconds_bucket{route=\"%s\",le=\"%g\"} %d\n",
				name, bound.Seconds(), cum)
		}
		fmt.Fprintf(&b, "rowpress_http_request_duration_seconds_bucket{route=\"%s\",le=\"+Inf\"} %d\n", name, snap.Count)
		fmt.Fprintf(&b, "rowpress_http_request_duration_seconds_sum{route=\"%s\"} %g\n", name, snap.Sum.Seconds())
		fmt.Fprintf(&b, "rowpress_http_request_duration_seconds_count{route=\"%s\"} %d\n", name, snap.Count)
	}
	fmt.Fprint(w, b.String())
}

// EndpointMetrics is the per-route slice of /v1/metrics: request
// volume, concurrency, and latency quantiles from the fixed-bucket
// histogram.
type EndpointMetrics struct {
	Requests  uint64  `json:"requests"`
	InFlight  int64   `json:"in_flight"`
	Status4xx uint64  `json:"status_4xx"`
	Status5xx uint64  `json:"status_5xx"`
	MeanMS    float64 `json:"mean_ms"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
	// Raw histogram state (bounds in ms, counts with one overflow
	// slot), so clients can window two scrapes by subtraction and
	// compute quantiles over just the requests between them — the
	// cumulative quantiles above cannot be windowed. The load-test
	// harness (ledger.LoadTest) depends on these.
	BucketBoundsMS []float64 `json:"bucket_bounds_ms,omitempty"`
	BucketCounts   []uint64  `json:"bucket_counts,omitempty"`
}

// endpointMetrics snapshots every instrumented route, keyed by route
// name. Routes with no traffic are included so scrapers see a stable
// key set.
func (s *Server) endpointMetrics() map[string]EndpointMetrics {
	out := make(map[string]EndpointMetrics, len(s.routes))
	for _, rt := range s.routes {
		snap := rt.hist.Snapshot()
		bounds := make([]float64, len(snap.Bounds))
		for i, b := range snap.Bounds {
			bounds[i] = msF(b)
		}
		out[rt.name] = EndpointMetrics{
			Requests:       snap.Count,
			InFlight:       rt.inFlight.Load(),
			Status4xx:      rt.status4xx.Load(),
			Status5xx:      rt.status5xx.Load(),
			MeanMS:         msF(snap.Mean()),
			P50MS:          msF(snap.Quantile(0.50)),
			P95MS:          msF(snap.Quantile(0.95)),
			P99MS:          msF(snap.Quantile(0.99)),
			MaxMS:          msF(snap.Max),
			BucketBoundsMS: bounds,
			BucketCounts:   snap.Counts,
		}
	}
	return out
}

func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
