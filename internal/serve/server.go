// Package serve exposes the experiment engine over HTTP: the serving
// layer behind cmd/rowpressd, the one daemon. One engine (and therefore
// one shard cache) backs every request, so repeated and overlapping
// runs of the same (experiment, options) are served from memory
// without re-executing any shard.
//
// Every endpoint is wrapped in observability middleware: per-route
// latency histograms, in-flight gauges, and structured request logs
// (log/slog; see WithLogger) carrying a request id, method, path,
// status, duration, and the shard counts the request executed.
//
// Endpoints:
//
//	GET  /healthz             liveness + uptime (legacy, kept for scripts)
//	GET  /v1/healthz          liveness/readiness probe, plain text or
//	                          ?format=json; 503 while draining
//	GET  /metrics             Prometheus text exposition: engine counters,
//	                          queue-wait and per-tier cache-lookup latency,
//	                          per-endpoint latency histograms
//	GET  /v1/experiments      registered experiment ids and titles
//	GET  /v1/scenarios        the attack-scenario matrix (internal/scenario
//	                          catalog) played by the scenario experiments
//	                          (?format=json|text|csv)
//	GET  /v1/run/{exp}        run one experiment (?scale, ?seed, ?modules,
//	                          ?format=json|text|csv|ndjson), reporting
//	                          cache stats; json carries the typed
//	                          report.Doc, ndjson streams per-shard
//	                          completion events before the final document
//	POST /v1/shard            resolve one shard for a fabric coordinator
//	                          (fabric.ShardRequest in, gob payload out,
//	                          answering tier in X-Fabric-Tier)
//	POST /v1/sweep            batched parameter sweep (sweep.Spec in the
//	                          body, ?format=json|text|csv); per-point
//	                          docs/stats plus the aggregate
//	GET  /v1/results          /v1/history with a default ?limit of 256:
//	                          the newest completed runs and sweeps
//	                          (including failures) as ledger records
//	GET  /v1/metrics          cumulative engine, per-cache-tier, and
//	                          failure counters
//	GET  /v1/history          the run ledger, newest first (?experiment,
//	                          ?kind, ?limit, ?format=json|text|csv)
//	GET  /v1/compare          benchstat-style delta between two ledger
//	                          records (?a, ?b selectors: record id or
//	                          experiment[~N]; ?threshold, ?format)
//
// Every run and sweep is stamped into one run ledger, the only run
// history: a file under -ledger-dir (see WithLedger), or otherwise a
// memory-only ledger holding this process's newest runs.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// resultsLimit is /v1/results' default ?limit.
const resultsLimit = 256

// RunResponse is the JSON body of /v1/run/{exp} (and the "done" event
// of the NDJSON stream). Doc is the typed result document; Report is
// its text rendering, kept for operators reading responses raw.
type RunResponse struct {
	Experiment string      `json:"experiment"`
	Title      string      `json:"title,omitempty"`
	Scale      float64     `json:"scale"`
	Seed       uint64      `json:"seed"`
	Modules    []string    `json:"modules,omitempty"`
	Doc        *report.Doc `json:"doc,omitempty"`
	Report     string      `json:"report"`
	Stats      RunStats    `json:"stats"`
}

// RunStats mirrors engine.RunStats for the wire, with latency in
// milliseconds.
type RunStats struct {
	Shards      int     `json:"shards"`
	CacheHits   int     `json:"cache_hits"`
	Executed    int     `json:"executed"`
	SubExecuted int     `json:"sub_executed,omitempty"` // sub-shards run for split shards
	QueueWaitMS float64 `json:"queue_wait_ms"`          // summed dispatch→execution wait
	WallMS      float64 `json:"wall_ms"`
	FromCache   bool    `json:"from_cache"` // true when no shard re-executed
}

// MetricsResponse is the JSON body of /v1/metrics. The cache_* fields
// are the in-memory tier (the historical names, kept stable for
// scrapers); the disk_* fields are the persistent warm-start tier and
// stay zero when the daemon runs without -cache-dir.
type MetricsResponse struct {
	UptimeS        float64 `json:"uptime_s"`
	Workers        int     `json:"workers"`
	Runs           uint64  `json:"runs"`
	ShardsPlanned  uint64  `json:"shards_planned"`
	ShardsExecuted uint64  `json:"shards_executed"`
	SubsPlanned    uint64  `json:"sub_shards_planned"`
	SubsExecuted   uint64  `json:"sub_shards_executed"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEntries   int     `json:"cache_entries"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	DiskEnabled    bool    `json:"disk_enabled"`
	DiskEntries    int     `json:"disk_entries"`
	DiskBytes      int64   `json:"disk_bytes"`
	DiskHits       uint64  `json:"disk_hits"`
	DiskMisses     uint64  `json:"disk_misses"`
	DiskEvictions  uint64  `json:"disk_evictions"`
	DiskWrites     uint64  `json:"disk_writes"`
	DiskWriteErrs  uint64  `json:"disk_write_errors"`
	Errors         uint64  `json:"errors"`
	RunFailures    uint64  `json:"run_failures"` // failed runs + failed sweep points served by this process
	TotalWallMS    float64 `json:"total_wall_ms"`
	TotalShardMS   float64 `json:"total_shard_ms"`

	// Queue-wait and per-tier cache-lookup latency, collected by the
	// engine's always-on atomic aggregates (independent of tracing).
	QueueWaits       uint64  `json:"queue_waits"`
	QueueWaitTotalMS float64 `json:"queue_wait_total_ms"`
	QueueWaitAvgMS   float64 `json:"queue_wait_avg_ms"`
	MemLookups       uint64  `json:"mem_lookups"`
	MemLookupAvgMS   float64 `json:"mem_lookup_avg_ms"`
	DiskLookups      uint64  `json:"disk_lookups"`
	DiskLookupAvgMS  float64 `json:"disk_lookup_avg_ms"`
	MissLookups      uint64  `json:"miss_lookups"`
	MissLookupAvgMS  float64 `json:"miss_lookup_avg_ms"`

	// Remote-tier (fabric) view: shards answered by peers, dispatch
	// latency, and dispatches that exhausted every peer. Zero on a
	// daemon running without -peers.
	RemoteHits        uint64  `json:"remote_hits"`
	RemoteLookupAvgMS float64 `json:"remote_lookup_avg_ms"`
	RemoteErrors      uint64  `json:"remote_errors"`

	// Fabric is the coordinator's client-side per-peer view; nil on a
	// daemon running without -peers.
	Fabric *fabric.Metrics `json:"fabric,omitempty"`

	// Endpoints is the per-route serving-path view: request volume,
	// in-flight concurrency, and latency quantiles.
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
}

// Server serves the experiment registry from a shared engine. Safe for
// concurrent use.
type Server struct {
	eng   *engine.Engine
	mux   *http.ServeMux
	start time.Time
	now   func() time.Time // test hook

	log      *slog.Logger
	ledger   *ledger.Ledger // run history: WithLedger's, or memory-only
	fabric   *fabric.Client // optional coordinator-mode peer fabric
	routes   []*route       // instrumented endpoints, registration order
	reqID    atomic.Uint64
	draining atomic.Bool
	failures atomic.Uint64 // failed runs + failed sweep points served here
}

// Option configures a Server at construction.
type Option func(*Server)

// WithLogger sets the structured request logger (default: discard).
// One "request" record is emitted per served request.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithLedger sets the run ledger every completed run and sweep is
// stamped into, and /v1/results, /v1/history and /v1/compare read
// (default: a memory-only ledger). A file-backed ledger carries the
// history, document hashes included, across daemon restarts.
func WithLedger(l *ledger.Ledger) Option {
	return func(s *Server) { s.ledger = l }
}

// WithFabric marks this daemon as a fabric coordinator: the client
// (already attached to the engine as its remote tier) is surfaced in
// /v1/healthz readiness (per-peer reachability, degraded state),
// /v1/metrics, and the Prometheus exposition.
func WithFabric(c *fabric.Client) Option {
	return func(s *Server) { s.fabric = c }
}

// WithPprof exposes net/http/pprof under /debug/pprof/ on the server's
// mux — profiling endpoints are opt-in (rowpressd -pprof) and bypass
// the request-metrics middleware so profile downloads don't distort
// the latency histograms.
func WithPprof() Option {
	return func(s *Server) {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// New builds a server around the given engine (nil = a fresh
// GOMAXPROCS-wide engine with the default cache).
func New(eng *engine.Engine, opts ...Option) *Server {
	if eng == nil {
		eng = engine.New(0, 0)
	}
	s := &Server{eng: eng, mux: http.NewServeMux(), now: time.Now, log: slog.New(slog.DiscardHandler)}
	s.start = s.now()
	for _, opt := range opts {
		opt(s)
	}
	if s.ledger == nil {
		s.ledger, _ = ledger.Open("", 0) // memory-only: cannot fail
	}
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /v1/healthz", s.handleHealthzV1)
	s.handle("GET /metrics", s.handlePromMetrics)
	s.handle("GET /v1/experiments", s.handleExperiments)
	s.handle("GET /v1/scenarios", s.handleScenarios)
	s.handle("GET /v1/run/{exp}", s.handleRun)
	s.handle("POST /v1/shard", s.handleShard)
	s.handle("POST /v1/sweep", s.handleSweep)
	s.handle("GET /v1/results", s.historyHandler(resultsLimit))
	s.handle("GET /v1/metrics", s.handleMetrics)
	s.handle("GET /v1/history", s.historyHandler(0))
	s.handle("GET /v1/compare", s.handleCompare)
	return s
}

// Engine returns the backing engine.
func (s *Server) Engine() *engine.Engine { return s.eng }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": s.now().Sub(s.start).Seconds(),
		"workers":  s.eng.Workers(),
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type exp struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []exp
	for _, e := range core.List() {
		out = append(out, exp{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// ScenarioInfo is one entry of /v1/scenarios: the spec plus derived
// presentation fields, so clients can discover the scenario matrix
// without parsing CLI output.
type ScenarioInfo struct {
	scenario.Spec
	Kind    string `json:"kind"`
	Pattern string `json:"pattern"`
}

// handleScenarios mirrors /v1/experiments for the attack-scenario
// matrix: the catalog played by the scenario-grid and
// scenario-mitigation experiments. Formats are validated exactly like
// the run and sweep endpoints — unknown values are a 400 naming the
// allowed list, never a silent JSON fallthrough.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	format, err := parseFormat(r.URL.Query(), "json", "json", "text", "csv")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch format {
	case "text":
		writeRendered(w, format, func(b []byte) []byte { return append(b, scenario.MatrixText()...) })
	case "csv":
		writeRendered(w, format, func(b []byte) []byte { return append(b, scenario.MatrixCSV()...) })
	default:
		var out []ScenarioInfo
		for _, sc := range scenario.Catalog() {
			out = append(out, ScenarioInfo{Spec: sc, Kind: sc.KindName(), Pattern: sc.Pattern()})
		}
		writeJSON(w, http.StatusOK, out)
	}
}

// parseOptions decodes ?scale, ?seed, ?modules into core.Options.
func parseOptions(q url.Values) (core.Options, error) {
	o := core.DefaultOptions()
	if v := q.Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return o, fmt.Errorf("bad scale %q: %v", v, err)
		}
		o.Scale = f
	}
	if v := q.Get("seed"); v != "" {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return o, fmt.Errorf("bad seed %q: %v", v, err)
		}
		o.Seed = u
	}
	if v := q.Get("modules"); v != "" {
		mods, err := core.NormalizeModules(strings.Split(v, ","))
		if err != nil {
			return o, fmt.Errorf("bad modules %q: %v", v, err)
		}
		o.Modules = mods
	}
	return o, nil
}

// parseFormat validates ?format against the renderings the endpoint
// supports, answering def when the query names none; unknown values are
// a 400, never a silent fallthrough to the default.
func parseFormat(q url.Values, def string, allowed ...string) (string, error) {
	v := q.Get("format")
	if v == "" {
		return def, nil
	}
	for _, a := range allowed {
		if v == a {
			return v, nil
		}
	}
	return "", fmt.Errorf("bad format %q: want one of %s", v, strings.Join(allowed, "|"))
}

// renderBufs pools the buffers text and CSV bodies are rendered into,
// so a warm request renders without allocating a body.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRender bounds the buffers renderBufs keeps: a rare large
// body (a long history) goes to the collector instead of staying pinned.
const maxPooledRender = 64 << 10

// writeRendered sends a text or CSV body, which render appends to a
// pooled buffer, with one Write and no intermediate string.
func writeRendered(w http.ResponseWriter, format string, render func(b []byte) []byte) {
	bp := renderBufs.Get().(*[]byte)
	*bp = render((*bp)[:0])
	if format == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	_, _ = w.Write(*bp)
	putRenderBuf(bp)
}

func putRenderBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledRender {
		renderBufs.Put(bp)
	}
}

// writeDoc sends d rendered as text or CSV.
func writeDoc(w http.ResponseWriter, format string, d *report.Doc) {
	writeRendered(w, format, func(b []byte) []byte {
		if format == "csv" {
			return report.AppendCSV(b, d)
		}
		return report.AppendText(b, d)
	})
}

// textReport is report.Text(d) rendered through a pooled buffer, so the
// returned string is its one allocation.
func textReport(d *report.Doc) string {
	bp := renderBufs.Get().(*[]byte)
	*bp = report.AppendText((*bp)[:0], d)
	text := string(*bp)
	putRenderBuf(bp)
	return text
}

// shardEvent is one NDJSON stream line emitted while a /v1/run executes.
// Worker is -1 for cache hits and for split shards (their sub-shards
// occupy worker slots; the parent never does); Tier names where the
// shard was resolved: "mem", "disk", "join", or "" (executed). Subs is
// the shard's declared sub-shard count (0 for a leaf shard) and
// SubsRun how many of those this run actually executed.
type shardEvent struct {
	Event   string  `json:"event"` // "shard"
	Index   int     `json:"index"`
	Key     string  `json:"key"`
	Cached  bool    `json:"cached"`
	Tier    string  `json:"tier,omitempty"`
	Peer    string  `json:"peer,omitempty"` // answering fabric peer when tier is "remote"
	Worker  int     `json:"worker"`
	Subs    int     `json:"subs,omitempty"`
	SubsRun int     `json:"subs_run,omitempty"`
	QueueMS float64 `json:"queue_ms"`
	WallMS  float64 `json:"wall_ms"`
	Error   string  `json:"error,omitempty"`
}

// streamDone is the final NDJSON line of a successful run: the full
// run response under an event tag.
type streamDone struct {
	Event string `json:"event"` // "done"
	RunResponse
}

// streamError is the final NDJSON line of a failed run. A dedicated
// type, not a zero-valued streamDone: embedding the empty RunResponse
// would emit fabricated experiment/stats fields a client could
// mistake for data.
type streamError struct {
	Event string `json:"event"` // "error"
	Error string `json:"error"`
}

// handleRun plans, executes and renders one experiment run. Only the
// format the response carries is rendered: text and CSV straight into a
// pooled buffer, json and ndjson the text report their body embeds.
// With a span recorder on the engine, planning is timed as a plan_build
// span and rendering plus the write as a render span.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("exp")
	q := r.URL.Query()
	format, err := parseFormat(q, "json", "json", "text", "csv", "ndjson")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	o, err := parseOptions(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec := s.eng.Recorder()
	planned := rec.Start(obs.PlanBuild, id)
	p, err := core.PlanFor(id, o)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrUnknownExperiment) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	planned()

	// NDJSON mode: stream per-shard completion events as the engine
	// resolves them, then the final document. Shard events arrive from
	// worker goroutines, so writes are serialized and flushed per line.
	var enc *json.Encoder
	var wmu sync.Mutex
	if format == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc = json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		p.OnShard = func(ev engine.ShardEvent) {
			wmu.Lock()
			defer wmu.Unlock()
			e := shardEvent{
				Event: "shard", Index: ev.Index, Key: ev.Key, Cached: ev.Cached,
				Tier: ev.Tier, Peer: ev.Peer, Worker: ev.Worker, Subs: ev.Subs, SubsRun: ev.SubsRun,
				QueueMS: float64(ev.Queue) / float64(time.Millisecond),
				WallMS:  float64(ev.Wall) / float64(time.Millisecond),
			}
			if ev.Err != nil {
				e.Error = ev.Err.Error()
			}
			_ = enc.Encode(e)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}

	// Window the engine's latency aggregates around this run for its
	// ledger record.
	before := s.eng.Metrics()
	doc, es, err := s.eng.Execute(p)
	annotate(r.Context(), es.Shards, es.Executed)
	stats := RunStats{
		Shards:      es.Shards,
		CacheHits:   es.CacheHits,
		Executed:    es.Executed,
		SubExecuted: es.SubExecuted,
		QueueWaitMS: float64(es.QueueWait) / float64(time.Millisecond),
		WallMS:      float64(es.Wall) / float64(time.Millisecond),
		FromCache:   es.Executed == 0 && err == nil,
	}
	s.appendLedger(r, ledger.RunRecord(id, o.Hash(), s.eng.Workers(), es, s.eng.Metrics().Sub(before), doc, err))
	if err != nil {
		s.failures.Add(1)
		if format == "ndjson" {
			wmu.Lock()
			_ = enc.Encode(streamError{Event: "error", Error: err.Error()})
			wmu.Unlock()
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer rec.Start(obs.Render, id)()
	if format == "text" || format == "csv" {
		writeDoc(w, format, doc)
		return
	}
	var title string
	if e, ok := core.Get(id); ok {
		title = e.Title
	}
	resp := RunResponse{
		Experiment: id, Title: title,
		Scale: o.Scale, Seed: o.Seed, Modules: o.Modules,
		Doc: doc, Report: textReport(doc), Stats: stats,
	}
	if format == "ndjson" {
		wmu.Lock()
		_ = enc.Encode(streamDone{Event: "done", RunResponse: resp})
		wmu.Unlock()
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleShard answers one fabric coordinator's dispatch: the body is
// a fabric.ShardRequest, the response the gob payload of the resolved
// shard with the answering tier in the X-Fabric-Tier header. Any
// daemon can serve shards — a peer needs no configuration beyond
// being reachable — and resolution goes through engine.ResolveLocal,
// which never re-dispatches, so a peer that is itself a coordinator
// cannot forward the shard onward. A body that does not decode, lacks
// the shard address (key) or carries invalid options is 400; unknown
// experiments or shards are 404; a key mismatch (the coordinator
// derived a different cache address than this build does) is 409, so
// mixed-build fleets fail loudly instead of caching wrong payloads.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req fabric.ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad shard request: %v", err)
		return
	}
	if req.Key == "" {
		writeError(w, http.StatusBadRequest, "bad shard request: missing key")
		return
	}
	v, tier, err := fabric.ServeShard(s.eng, req)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, core.ErrUnknownExperiment), errors.Is(err, fabric.ErrUnknownShard):
			status = http.StatusNotFound
		case errors.Is(err, fabric.ErrKeySkew):
			status = http.StatusConflict
		case errors.Is(err, fabric.ErrBadOptions):
			status = http.StatusBadRequest
		}
		writeError(w, status, "%v", err)
		return
	}
	annotate(r.Context(), 1, boolToInt(tier == ""))
	if tier == "" {
		tier = "execute"
	}
	w.Header().Set("Content-Type", "application/x-gob")
	w.Header().Set(fabric.TierHeader, tier)
	if err := engine.EncodePayload(w, v); err != nil {
		// Headers are gone; the coordinator sees a truncated gob stream,
		// counts the decode failure, and falls back. Log it here.
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "shard_encode_failed", slog.String("error", err.Error()))
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peerCount is the configured fabric peer count, 0 without a fabric.
func (s *Server) peerCount() int {
	if s.fabric == nil {
		return 0
	}
	return len(s.fabric.Peers())
}

// maxSweepBody bounds the /v1/sweep request body (a spec is a few
// hundred bytes; a megabyte is already absurd).
const maxSweepBody = 1 << 20

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	format, err := parseFormat(r.URL.Query(), "json", "json", "text", "csv")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var spec sweep.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	before := s.eng.Metrics()
	res, err := sweep.Run(s.eng, spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrUnknownExperiment) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	annotate(r.Context(), res.Aggregate.ShardRefs, res.Aggregate.Executed)
	s.appendLedger(r, res.LedgerRecord(spec, s.eng.Workers(), s.eng.Metrics().Sub(before)))
	s.failures.Add(uint64(res.Aggregate.Failed))
	switch format {
	case "text":
		writeRendered(w, format, func(b []byte) []byte { return append(b, res.Text()...) })
	case "csv":
		writeRendered(w, format, func(b []byte) []byte { return append(b, res.CSV()...) })
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// appendLedger stamps the record into the run ledger, completed now
// on this daemon's fabric. An append failure is logged, not fatal —
// the run itself succeeded; only its history entry was lost.
func (s *Server) appendLedger(r *http.Request, lr ledger.Record) {
	lr.CompletedAt, lr.Peers = s.now().UTC(), s.peerCount()
	if _, err := s.ledger.Append(lr); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "ledger_append_failed", slog.String("error", err.Error()))
	}
}

// historyHandler serves the run ledger, newest first, with limit as
// the default ?limit (0 = all): JSON is the raw record list, text/CSV
// render through the shared report pipeline.
func (s *Server) historyHandler(limit int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		format, err := parseFormat(q, "json", "json", "text", "csv")
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		lq := ledger.Query{Experiment: q.Get("experiment"), Kind: q.Get("kind"), Limit: limit}
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "bad limit %q", v)
				return
			}
			lq.Limit = n
		}
		recs := s.ledger.Records(lq)
		if format != "json" {
			writeDoc(w, format, ledger.HistoryDoc(recs, s.ledger.Stats()))
			return
		}
		if recs == nil {
			recs = []ledger.Record{}
		}
		writeJSON(w, http.StatusOK, recs)
	}
}

// CompareResponse is the JSON body of /v1/compare: both resolved
// records, the delta document, and the machine-checkable verdicts.
type CompareResponse struct {
	A                    ledger.Record `json:"a"`
	B                    ledger.Record `json:"b"`
	Doc                  *report.Doc   `json:"doc"`
	Regression           bool          `json:"regression"`
	Improvement          bool          `json:"improvement"`
	DeterminismChecked   bool          `json:"determinism_checked"`
	DeterminismViolation bool          `json:"determinism_violation"`
}

// handleCompare serves the benchstat-style delta between two ledger
// records. ?a and ?b accept a record id or an experiment selector
// (experiment[~N], N-th newest); equal experiment selectors compare
// the previous run against the latest.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	format, err := parseFormat(q, "json", "json", "text", "csv")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	selA, selB := q.Get("a"), q.Get("b")
	if selA == "" || selB == "" {
		writeError(w, http.StatusBadRequest, "compare needs ?a and ?b (record id or experiment[~N])")
		return
	}
	var opt ledger.CompareOptions
	if v := q.Get("threshold"); v != "" {
		th, err := strconv.ParseFloat(v, 64)
		if err != nil || th <= 0 {
			writeError(w, http.StatusBadRequest, "bad threshold %q: want a positive fraction", v)
			return
		}
		opt.Threshold = th
	}
	a, b, err := s.ledger.ResolvePair(selA, selB)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	d := ledger.Compare(a, b, opt)
	if format != "json" {
		writeDoc(w, format, d.Doc)
		return
	}
	writeJSON(w, http.StatusOK, CompareResponse{
		A: d.A, B: d.B, Doc: d.Doc,
		Regression: d.Regression, Improvement: d.Improvement,
		DeterminismChecked: d.DeterminismChecked, DeterminismViolation: d.DeterminismViolation,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	var fm *fabric.Metrics
	if s.fabric != nil {
		snap := s.fabric.Metrics()
		fm = &snap
	}
	writeJSON(w, http.StatusOK, MetricsResponse{
		UptimeS:        s.now().Sub(s.start).Seconds(),
		Workers:        s.eng.Workers(),
		Runs:           m.Runs,
		ShardsPlanned:  m.ShardsPlanned,
		ShardsExecuted: m.ShardsExecuted,
		SubsPlanned:    m.SubShardsPlanned,
		SubsExecuted:   m.SubShardsExecuted,
		CacheHits:      m.CacheHits,
		CacheMisses:    m.CacheMisses,
		CacheEntries:   m.Mem.Entries,
		CacheEvictions: m.Mem.Evictions,
		CacheHitRate:   m.Mem.HitRate(),
		DiskEnabled:    s.eng.Disk() != nil,
		DiskEntries:    m.Disk.Entries,
		DiskBytes:      m.Disk.Bytes,
		DiskHits:       m.Disk.Hits,
		DiskMisses:     m.Disk.Misses,
		DiskEvictions:  m.Disk.Evictions,
		DiskWrites:     m.Disk.Writes,
		DiskWriteErrs:  m.Disk.WriteErrors,
		Errors:         m.Errors,
		RunFailures:    s.failures.Load(),
		TotalWallMS:    float64(m.TotalWall) / float64(time.Millisecond),
		TotalShardMS:   float64(m.TotalShardTime) / float64(time.Millisecond),

		QueueWaits:       m.QueueWait.Count,
		QueueWaitTotalMS: msF(m.QueueWait.Total),
		QueueWaitAvgMS:   msF(m.QueueWait.Avg()),
		MemLookups:       m.MemLookup.Count,
		MemLookupAvgMS:   msF(m.MemLookup.Avg()),
		DiskLookups:      m.DiskLookup.Count,
		DiskLookupAvgMS:  msF(m.DiskLookup.Avg()),
		MissLookups:      m.MissLookup.Count,
		MissLookupAvgMS:  msF(m.MissLookup.Avg()),

		RemoteHits:        m.RemoteLookup.Count,
		RemoteLookupAvgMS: msF(m.RemoteLookup.Avg()),
		RemoteErrors:      m.RemoteErrors,
		Fabric:            fm,

		Endpoints: s.endpointMetrics(),
	})
}
