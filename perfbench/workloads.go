package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// bench is what every workload shares: the run's flags, the golden
// inputs, and — while a traced phase runs — the span recorder and the
// benchmark's own per-layer timers.
type bench struct {
	root, tmp string
	seed      uint64
	seconds   float64
	maxOps    int

	opts    core.Options
	set     []string
	goldens map[string]string
	nw      int // engine workers and client count

	rec *obs.Recorder // non-nil while tracing
	lay *layers       // non-nil while tracing

	executed, subExecuted atomic.Int64 // shards run by the workload's ops
	sweepRefs, sweepUniq  atomic.Int64
}

// workload is one benchmark workload. setup builds its inputs from
// scratch (it may be called several times; each call replaces the
// last); op runs op i of its sequence; attach makes the ops that follow
// record into rec (nil: no tracing) and read the bench's layer timers;
// check reports a failure the workload can only see after a phase, such
// as executed shards.
type workload interface {
	setup() error
	loop() loop
	op(i int) (time.Duration, error)
	attach(rec *obs.Recorder) error
	check() error
	close()
}

func newWorkload(b *bench, name string) (workload, error) {
	switch name {
	case "regen-cold":
		return &regenCold{bench: b}, nil
	case "sweep-cold":
		return &sweepCold{bench: b}, nil
	case "serve-warm":
		return &serveWarm{bench: b}, nil
	case "restart-disk":
		return &restartDisk{bench: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want regen-cold, sweep-cold, serve-warm or restart-disk)", name)
}

// load reads the goldens of the whole experiment set.
func (b *bench) load() error {
	b.set = experimentSet()
	g, err := loadGoldens(b.root, b.set)
	b.goldens = g
	return err
}

// runPlanned is core.RunObserved on eng; while tracing, the benchmark
// times its own PlanFor call (with allocation, so callers must not run
// it concurrently with other work) instead of letting RunObserved plan.
func (b *bench) runPlanned(eng *engine.Engine, id string, o core.Options) (*report.Doc, engine.RunStats, error) {
	if b.lay == nil {
		return core.RunObserved(eng, id, o, nil)
	}
	var p engine.Plan
	var err error
	b.lay.timed("plan", true, func() { p, err = core.PlanFor(id, o) })
	if err != nil {
		return nil, engine.RunStats{}, err
	}
	return eng.Execute(p)
}

func (b *bench) newEngine() *engine.Engine {
	eng := engine.New(b.nw, 0)
	eng.SetRecorder(b.rec)
	return eng
}

func (b *bench) countRun(st engine.RunStats) {
	b.executed.Add(int64(st.Executed))
	b.subExecuted.Add(int64(st.SubExecuted))
}

// prime runs every experiment of ids once on eng with nw concurrent
// callers, checks each report against its golden, and returns the
// references of each document.
func (b *bench) prime(eng *engine.Engine, ids []string) (map[string]refs, error) {
	out := make(map[string]refs, len(ids))
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < b.nw; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ids) {
					return
				}
				id := ids[i]
				doc, err := core.RunWith(eng, id, b.opts)
				var r refs
				if err == nil {
					r, err = verifiedRefs(id, doc, b.goldens[id])
				}
				mu.Lock()
				out[id] = r
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// ---- regen-cold -------------------------------------------------------

// regenCold regenerates one experiment per op on a fresh engine: the
// cost of `rowpress run`, dominated by the simulation kernels.
type regenCold struct {
	*bench
	seq []string
}

func (w *regenCold) setup() error {
	if err := w.load(); err != nil {
		return err
	}
	w.seq = shuffled(newRand(w.seed), weighted(w.set, regenWeights, regenWeight))
	// Warm-up: one checked cold run of each experiment that runs more
	// than once a cycle, so one-time package state is built before the
	// measured phase.
	for _, id := range w.set {
		if regenWeights[id] == 1 {
			continue
		}
		doc, err := core.RunWith(w.newEngine(), id, w.opts)
		if err != nil {
			return err
		}
		if _, err := verifiedRefs(id, doc, w.goldens[id]); err != nil {
			return err
		}
	}
	return nil
}

func (w *regenCold) loop() loop {
	return loop{clients: 1, cycle: len(w.seq), wholeCycles: true, seconds: w.seconds, maxOps: w.maxOps}
}

func (w *regenCold) op(i int) (time.Duration, error) {
	id := w.seq[i%len(w.seq)]
	eng := w.newEngine()
	t0 := time.Now()
	doc, st, err := w.runPlanned(eng, id, w.opts)
	lat := time.Since(t0)
	w.countRun(st)
	if err != nil {
		return lat, err
	}
	var text string
	w.lay.timed("text", true, func() { text = report.Text(doc) })
	if text != w.goldens[id] {
		return lat, fmt.Errorf("%s: report differs from its golden", id)
	}
	return lat, nil
}

func (w *regenCold) attach(*obs.Recorder) error { return nil }
func (w *regenCold) check() error               { return nil }
func (w *regenCold) close()                     {}

// ---- sweep-cold -------------------------------------------------------

// sweepCold runs one grid per op through sweep.Run on a fresh engine:
// the batch path (engine.ExecuteBatch with shard dedup) over the same
// kernels.
type sweepCold struct {
	*bench
	seq   []string
	specs map[string]sweep.Spec
	refs  map[string][]digest // per grid point; zero at the golden point
}

func (w *sweepCold) setup() error {
	if err := w.load(); err != nil {
		return err
	}
	r := newRand(w.seed)
	w.seq = shuffled(r, weighted(sweepable, sweepWeights, sweepWeight))
	w.specs = map[string]sweep.Spec{}
	w.refs = map[string][]digest{}
	golden := w.opts.Modules
	for _, id := range sweepable {
		// 2 seeds x 2 overlapping module sets: the golden set and the
		// golden set less one module, both drawn from the seed.
		drop := r.IntN(len(golden))
		var sub []string
		for k, m := range golden {
			if k != drop {
				sub = append(sub, m)
			}
		}
		spec := sweep.Spec{
			Experiment: id,
			Scales:     []float64{w.opts.Scale},
			Seeds:      []uint64{w.opts.Seed, 2 + r.Uint64N(1<<20)},
			ModuleSets: [][]string{golden, sub},
		}
		points, err := spec.Points()
		if err != nil {
			return err
		}
		// References come from the single-run path on one engine; the
		// golden point's report must match its golden first.
		eng := engine.New(w.nw, 0)
		hashes := make([]digest, len(points))
		for k, pt := range points {
			o := core.Options{Scale: pt.Scale, Seed: pt.Seed, Modules: pt.Modules}
			doc, err := core.RunWith(eng, id, o)
			if err != nil {
				return fmt.Errorf("%s point %d: %w", id, k, err)
			}
			if k == 0 {
				if _, err := verifiedRefs(id, doc, w.goldens[id]); err != nil {
					return err
				}
				continue
			}
			rf, err := newRefs(doc)
			if err != nil {
				return err
			}
			hashes[k] = rf.json
		}
		w.specs[id] = spec
		w.refs[id] = hashes
	}
	return nil
}

func (w *sweepCold) loop() loop {
	return loop{clients: 1, cycle: len(w.seq), wholeCycles: true, seconds: w.seconds, maxOps: w.maxOps}
}

func (w *sweepCold) op(i int) (time.Duration, error) {
	id := w.seq[i%len(w.seq)]
	eng := w.newEngine()
	t0 := time.Now()
	res, err := sweep.Run(eng, w.specs[id])
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	w.countSweep(res, lat)
	return lat, w.checkSweep(res, w.goldens[id], w.refs[id])
}

func (b *bench) countSweep(res *sweep.Result, lat time.Duration) {
	a := res.Aggregate
	b.executed.Add(int64(a.Executed))
	b.subExecuted.Add(int64(a.SubExecuted))
	b.sweepRefs.Add(int64(a.ShardRefs))
	b.sweepUniq.Add(int64(a.UniqueShards))
	if b.lay != nil && a.Points > 0 {
		b.lay.get("sweep_point").add(lat/time.Duration(a.Points), 0, false)
	}
}

// checkSweep compares the golden point's report with the golden and
// every other point's canonical JSON with its reference hash.
func (b *bench) checkSweep(res *sweep.Result, golden string, hashes []digest) error {
	if res.Aggregate.Failed != 0 || len(res.Points) != len(hashes) {
		return fmt.Errorf("%s: %d of %d points failed (want %d points)", res.Experiment, res.Aggregate.Failed, len(res.Points), len(hashes))
	}
	for k, pr := range res.Points {
		if k == 0 {
			if pr.Report != golden {
				return fmt.Errorf("%s: golden point differs from its golden", res.Experiment)
			}
			continue
		}
		j, err := report.JSON(pr.Doc)
		if err != nil {
			return err
		}
		if hashOf(j) != hashes[k] {
			return fmt.Errorf("%s: point %d differs from its reference", res.Experiment, k)
		}
	}
	return nil
}

func (w *sweepCold) attach(*obs.Recorder) error { return nil }
func (w *sweepCold) check() error               { return nil }
func (w *sweepCold) close()                     {}

// ---- serve-warm -------------------------------------------------------

var formats = []string{"json", "text", "csv"}

type request struct{ id, format string }

// runURL is the /v1/run path of one request at the golden options.
func runURL(base string, o core.Options, id, format string) string {
	q := url.Values{}
	q.Set("scale", strconv.FormatFloat(o.Scale, 'g', -1, 64))
	q.Set("seed", strconv.FormatUint(o.Seed, 10))
	q.Set("modules", strings.Join(o.Modules, ","))
	q.Set("format", format)
	return base + "/v1/run/" + id + "?" + q.Encode()
}

// loopback is an HTTP server on 127.0.0.1 around a serve.Server. While
// the bench traces, it times each ServeHTTP call and hands the time to
// the client by the op header, so net time is measured per request.
type loopback struct {
	b       *bench
	srv     atomic.Pointer[serve.Server]
	hs      *http.Server
	base    string
	client  *http.Client
	handled sync.Map // op id -> time.Duration spent in ServeHTTP
	done    chan struct{}
}

const opHeader = "X-Perfbench-Op"

func newLoopback(b *bench, srv *serve.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{b: b, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	l.srv.Store(srv)
	l.hs = &http.Server{Handler: l, ReadHeaderTimeout: 10 * time.Second}
	l.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * b.nw, DisableCompression: true}}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

func (l *loopback) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if l.b.lay == nil {
		l.srv.Load().ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	l.srv.Load().ServeHTTP(w, r)
	d := time.Since(t0)
	l.b.lay.get("handler").add(d, 0, false)
	if id := r.Header.Get(opHeader); id != "" {
		l.handled.Store(id, d)
	}
}

// fetched is one loopback GET: the body, the client-side latency and,
// while the bench traces, the latency less the handler's time (net).
type fetched struct {
	body     []byte
	lat, net time.Duration
}

// get fetches u. While the bench traces it charges the request's net
// time to "net".
func (l *loopback) get(op string, u string) (fetched, error) {
	var f fetched
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return f, err
	}
	req.Header.Set(opHeader, op)
	t0 := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		f.lat = time.Since(t0)
		return f, err
	}
	f.body, err = io.ReadAll(resp.Body)
	f.lat = time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return f, err
	}
	if resp.StatusCode != http.StatusOK {
		return f, fmt.Errorf("GET %s: status %d: %s", u, resp.StatusCode, bytes.TrimSpace(f.body))
	}
	if h, ok := l.handled.LoadAndDelete(op); ok {
		f.net = f.lat - h.(time.Duration)
		l.b.lay.get("net").add(f.net, 0, false)
	}
	return f, nil
}

func (l *loopback) close() {
	_ = l.hs.Close()
	<-l.done
	l.client.CloseIdleConnections()
}

// serveWarm drives an in-process rowpressd over loopback HTTP with nw
// closed-loop clients after priming its engine with the whole set.
type serveWarm struct {
	*bench
	eng    *engine.Engine
	refs   map[string]refs
	seq    []request
	lb     *loopback
	before uint64 // ShardsExecuted at the end of set-up or of the last check
}

func (w *serveWarm) setup() error {
	w.close()
	if err := w.load(); err != nil {
		return err
	}
	w.eng = w.newEngine()
	refs, err := w.prime(w.eng, w.set)
	if err != nil {
		return err
	}
	w.refs = refs
	var reqs []request
	for _, id := range w.set {
		for _, f := range formats {
			reqs = append(reqs, request{id, f})
		}
	}
	w.seq = shuffled(newRand(w.seed), reqs)
	w.before = w.eng.Metrics().ShardsExecuted
	w.lb, err = newLoopback(w.bench, serve.New(w.eng))
	return err
}

func (w *serveWarm) loop() loop {
	return loop{clients: w.nw, cycle: len(w.seq), seconds: w.seconds, maxOps: w.maxOps}
}

func (w *serveWarm) op(i int) (time.Duration, error) {
	rq := w.seq[i%len(w.seq)]
	got, err := w.lb.get(strconv.Itoa(i), runURL(w.lb.base, w.opts, rq.id, rq.format))
	if err != nil {
		return got.lat, err
	}
	return got.lat, checkBody(rq, got.body, w.refs[rq.id])
}

// checkBody compares one /v1/run body with the references: text with
// the golden, CSV by hash, JSON by its report field, the hash of its doc
// field, and a zero executed-shard count.
func checkBody(rq request, body []byte, r refs) error {
	switch rq.format {
	case "text":
		if string(body) != r.text {
			return fmt.Errorf("%s text: body differs from its golden", rq.id)
		}
	case "csv":
		if hashOf(body) != r.csv {
			return fmt.Errorf("%s csv: body differs from its reference", rq.id)
		}
	default:
		var resp struct {
			Doc    json.RawMessage `json:"doc"`
			Report string          `json:"report"`
			Stats  struct {
				Executed int `json:"executed"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s json: %w", rq.id, err)
		}
		if resp.Report != r.text || hashOf(resp.Doc) != r.doc {
			return fmt.Errorf("%s json: body differs from its reference", rq.id)
		}
		if resp.Stats.Executed != 0 {
			return fmt.Errorf("%s json: %d shards executed on a warm engine", rq.id, resp.Stats.Executed)
		}
	}
	return nil
}

// attach swaps the engine's recorder behind a new loopback server, so
// the server's goroutines all start after the swap.
func (w *serveWarm) attach(rec *obs.Recorder) error {
	w.lb.close()
	w.eng.SetRecorder(rec)
	var err error
	w.lb, err = newLoopback(w.bench, serve.New(w.eng))
	return err
}

func (w *serveWarm) check() error {
	now := w.eng.Metrics().ShardsExecuted
	n := now - w.before
	w.before = now
	w.executed.Add(int64(n))
	if n != 0 {
		return fmt.Errorf("serve-warm: %d shards executed during the measured phase", n)
	}
	return nil
}

func (w *serveWarm) close() {
	if w.lb != nil {
		w.lb.close()
		w.lb = nil
	}
}

// ---- restart-disk -----------------------------------------------------

// restartDisk answers each request like a restarted daemon: open the
// disk cache filled in set-up, build a fresh engine on it, run, render
// JSON. The mem tier is cold and every shard comes off disk.
type restartDisk struct {
	*bench
	dir  string
	refs map[string]refs
	seq  []string
}

func (w *restartDisk) setup() error {
	w.close()
	if err := w.load(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.tmp, "restart-disk-")
	if err != nil {
		return err
	}
	w.dir = dir
	dc, err := engine.OpenDiskCache(dir, 0)
	if err != nil {
		return err
	}
	eng := w.newEngine()
	eng.AttachDiskCache(dc)
	if w.refs, err = w.prime(eng, w.set); err != nil {
		return err
	}
	if st := dc.Stats(); st.Skips != 0 || st.WriteErrors != 0 || st.Evictions != 0 {
		return fmt.Errorf("restart-disk: disk cache fill incomplete: %+v", st)
	}
	if err := dc.Flush(); err != nil {
		return err
	}
	w.seq = shuffled(newRand(w.seed), w.set)
	return nil
}

func (w *restartDisk) loop() loop {
	return loop{clients: 1, cycle: len(w.seq), seconds: w.seconds, maxOps: w.maxOps}
}

func (w *restartDisk) op(i int) (time.Duration, error) {
	id := w.seq[i%len(w.seq)]
	t0 := time.Now()
	var dc *engine.DiskCache
	var err error
	w.lay.timed("disk_open", true, func() { dc, err = engine.OpenDiskCache(w.dir, 0) })
	if err != nil {
		return time.Since(t0), err
	}
	eng := w.newEngine()
	eng.AttachDiskCache(dc)
	doc, st, err := w.runPlanned(eng, id, w.opts)
	if err != nil {
		return time.Since(t0), err
	}
	var j []byte
	w.lay.timed("json", true, func() { j, err = report.JSON(doc) })
	lat := time.Since(t0)
	w.countRun(st)
	if err != nil {
		return lat, err
	}
	if w.lay != nil {
		w.chargePayload(w.dir, id)
	}
	if st.Executed != 0 {
		return lat, fmt.Errorf("%s: %d shards executed with a full disk cache", id, st.Executed)
	}
	if hashOf(j) != w.refs[id].json {
		return lat, fmt.Errorf("%s: JSON differs from its reference", id)
	}
	return lat, nil
}

// chargePayload adds the on-disk size of one request's shard payloads
// to the "payload" layer.
func (b *bench) chargePayload(dir, id string) {
	p, err := core.PlanFor(id, b.opts)
	if err != nil {
		return
	}
	var n int64
	for _, s := range p.Shards {
		if fi, err := os.Stat(filepath.Join(dir, engine.Key(p.Experiment, p.Fingerprint, s.Key)+".gob")); err == nil {
			n += fi.Size()
		}
	}
	b.lay.get("payload").add(0, uint64(n), true)
}

func (w *restartDisk) attach(*obs.Recorder) error { return nil }
func (w *restartDisk) check() error               { return nil }

func (w *restartDisk) close() {
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
		w.dir = ""
	}
}
