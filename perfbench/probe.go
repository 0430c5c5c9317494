package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// probeSet is the layer probe of every traced run: one experiment per
// simulation family, so each family's kernels execute in every traced
// run. fig6 and scenario-grid are also the per-request budget.
var probeSet = []string{"fig6", "table3", "scenario-grid"}

var budgetSet = []string{"fig6", "scenario-grid"}

// budgetLayers are the stages of one warm /v1/run request in order.
var budgetLayers = []string{"plan", "mem_lookup", "merge", "render", "handler", "net"}

const probeReps = 10

// budget holds, per experiment and layer, the median time (ms) and
// allocation (KB) of one warm request's stage over the probe's reps.
type budget map[string]map[string][2]float64

// probe runs the layer probe: each experiment of probeSet cold on a
// fresh traced engine, then probeReps warm requests decomposed into the
// benchmark's own calls into each layer (plan, mem lookup, merge,
// render, handler, loopback HTTP, disk open and disk lookup), and one
// small sweep. It returns the warm-request budget and the number of
// checked outputs that failed, with the first failure.
func (b *bench) probe() (budget, int, int, error) {
	lb, err := newLoopback(b, nil)
	if err != nil {
		return nil, 1, 1, err
	}
	defer lb.close()
	out := budget{}
	attempted, failed := 0, 0
	var firstErr error
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, id := range probeSet {
		samples, n, err := b.probeOne(lb, id)
		attempted += n
		if err != nil {
			fail(err)
			continue
		}
		if slices.Contains(budgetSet, id) {
			out[id] = map[string][2]float64{}
			for layer, s := range samples {
				out[id][layer] = [2]float64{median(s[0]), median(s[1])}
			}
		}
	}
	attempted++
	if err := b.probeSweep(); err != nil {
		fail(err)
	}
	return out, attempted, failed, firstErr
}

// probeOne probes one experiment; samples holds per layer the time (ms)
// and allocation (KB) of each rep.
func (b *bench) probeOne(lb *loopback, id string) (map[string][2][]float64, int, error) {
	eng := b.newEngine()
	doc, err := core.RunWith(eng, id, b.opts)
	if err != nil {
		return nil, 1, err
	}
	ref, err := verifiedRefs(id, doc, b.goldens[id])
	if err != nil {
		return nil, 1, err
	}
	plan, err := core.PlanFor(id, b.opts)
	if err != nil {
		return nil, 1, err
	}
	keys := make([]string, len(plan.Shards))
	for i, s := range plan.Shards {
		keys[i] = engine.Key(plan.Experiment, plan.Fingerprint, s.Key)
	}
	// A disk cache holding exactly this request's shards.
	dir, err := os.MkdirTemp(b.tmp, "probe-")
	if err != nil {
		return nil, 1, err
	}
	defer os.RemoveAll(dir)
	dc, err := engine.OpenDiskCache(dir, 0)
	if err != nil {
		return nil, 1, err
	}
	for _, k := range keys {
		v, ok := eng.Cache().Get(k)
		if !ok {
			return nil, 1, fmt.Errorf("%s: shard %s not cached after a cold run", id, k)
		}
		dc.Put(k, v)
	}
	if err := dc.Flush(); err != nil {
		return nil, 1, err
	}
	lb.srv.Store(serve.New(eng))

	samples := map[string][2][]float64{}
	// stage measures one call of f as the named budget layer, charging
	// it to the per-layer timer charge too unless that is empty. The time
	// is that of the first call; the allocation is the mean over further
	// calls, so buffers a stage keeps in a sync.Pool count as they do in
	// a steady stream of requests.
	stage := func(layer, charge string, f func()) {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		n := allocCalls(d)
		a0 := allocated()
		for k := 0; k < n; k++ {
			f()
		}
		kb := float64(allocated()-a0) / 1024 / float64(n)
		s := samples[layer]
		s[0], s[1] = append(s[0], ms(d)), append(s[1], kb)
		samples[layer] = s
		if charge != "" {
			b.lay.get(charge).add(d, uint64(kb*1024), true)
		}
	}
	for rep := 0; rep < probeReps; rep++ {
		var p engine.Plan
		stage("plan", "plan", func() { p, err = core.PlanFor(id, b.opts) })
		if err != nil {
			return nil, rep + 1, err
		}
		parts := make([]any, len(keys))
		missing := 0
		stage("mem_lookup", "", func() {
			missing = 0
			for i, k := range keys {
				var ok bool
				if parts[i], ok = eng.Cache().Get(k); !ok {
					missing++
				}
			}
		})
		if missing != 0 {
			return nil, rep + 1, fmt.Errorf("%s: %d shards missing from the mem tier", id, missing)
		}
		var d *report.Doc
		stage("merge", "", func() { d, err = p.Merge(parts) })
		if err != nil {
			return nil, rep + 1, err
		}
		var j []byte
		stage("render", "json", func() { j, err = report.JSON(d) })
		if err != nil {
			return nil, rep + 1, err
		}
		var text, csv string
		stage("text", "text", func() { text = report.Text(d) })
		stage("csv", "csv", func() { csv = report.CSV(d) })
		if hashOf(j) != ref.json || text != ref.text || hashOf([]byte(csv)) != ref.csv {
			return nil, rep + 1, fmt.Errorf("%s: warm render differs from its reference", id)
		}
		// The engine's own path over the same stages, for its spans.
		if _, st, err := eng.Execute(p); err != nil || st.Executed != 0 {
			return nil, rep + 1, fmt.Errorf("%s: warm execute: executed %d, err %v", id, st.Executed, err)
		}

		// The handler writes to a discarding ResponseWriter so that its
		// time and allocation are the server's alone; a recorded call
		// checks the body.
		rq := request{id, "json"}
		u := runURL("", b.opts, id, rq.format)
		stage("handler", "handler", func() {
			lb.srv.Load().ServeHTTP(&discard{h: http.Header{}}, httptest.NewRequest(http.MethodGet, u, nil))
		})
		rr := httptest.NewRecorder()
		lb.srv.Load().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, u, nil))
		if rr.Code != http.StatusOK {
			return nil, rep + 1, fmt.Errorf("%s: handler status %d", id, rr.Code)
		}
		if err := checkBody(rq, rr.Body.Bytes(), ref); err != nil {
			return nil, rep + 1, err
		}
		// Loopback: net time is the client's latency less the handler's
		// time on the same request; net KB is the GET's allocation less
		// the handler's allocation measured above.
		var got fetched
		var net time.Duration
		stage("net", "", func() {
			got, err = lb.get("probe", runURL(lb.base, b.opts, id, rq.format))
			if net == 0 {
				net = got.net
			}
		})
		if err != nil {
			return nil, rep + 1, err
		}
		s := samples["net"]
		s[0][rep] = ms(net)
		s[1][rep] -= samples["handler"][1][rep]
		if err := checkBody(rq, got.body, ref); err != nil {
			return nil, rep + 1, err
		}

		var dc2 *engine.DiskCache
		b.lay.timed("disk_open", true, func() { dc2, err = engine.OpenDiskCache(dir, 0) })
		if err != nil {
			return nil, rep + 1, err
		}
		cold := b.newEngine()
		cold.AttachDiskCache(dc2)
		if _, st, err := cold.Execute(p); err != nil || st.Executed != 0 {
			return nil, rep + 1, fmt.Errorf("%s: disk execute: executed %d, err %v", id, st.Executed, err)
		}
		b.chargePayload(dir, id)
	}
	return samples, probeReps, nil
}

// probeSweep runs one fig6 grid through sweep.Run and checks every
// point against the single-run path.
func (b *bench) probeSweep() error {
	id := "fig6"
	spec := sweep.Spec{
		Experiment: id,
		Scales:     []float64{b.opts.Scale},
		Seeds:      []uint64{b.opts.Seed, b.opts.Seed + 1},
		ModuleSets: [][]string{b.opts.Modules, b.opts.Modules[:2]},
	}
	points, err := spec.Points()
	if err != nil {
		return err
	}
	ref := engine.New(b.nw, 0)
	hashes := make([]digest, len(points))
	for k, pt := range points {
		doc, err := core.RunWith(ref, id, core.Options{Scale: pt.Scale, Seed: pt.Seed, Modules: pt.Modules})
		if err != nil {
			return err
		}
		j, err := report.JSON(doc)
		if err != nil {
			return err
		}
		hashes[k] = hashOf(j)
	}
	t0 := time.Now()
	res, err := sweep.Run(b.newEngine(), spec)
	if err != nil {
		return err
	}
	b.countSweep(res, time.Since(t0))
	return b.checkSweep(res, b.goldens[id], hashes)
}

// allocCalls is how many calls of a stage taking d the probe averages
// its allocation over: enough for about 5 ms of calls, at most 200.
func allocCalls(d time.Duration) int {
	return max(1, min(200, int(5*time.Millisecond/max(d, time.Microsecond))))
}

// discard is a ResponseWriter that keeps only the header and status.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(code int)        { d.code = code }
