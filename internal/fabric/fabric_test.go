// End-to-end fabric tests: real peer daemons (serve.Server over
// httptest), a real coordinator engine with the fabric client attached
// as its remote tier, and the determinism contract checked the only
// way that matters — rendered documents byte-identical to a
// single-process run, whatever the fleet does.
package fabric_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/report"
	"repro/internal/serve"
)

var testOpts = core.Options{Scale: 0.05, Seed: 1}

// testExperiments are the experiments the fleet tests run: fig6, and
// fig40, whose document depends on the seed, so a peer answering for
// other options than the coordinator asked for cannot pass unnoticed.
var testExperiments = []string{"fig6", "fig40"}

// goldenTexts renders the all-local reference document of every test
// experiment.
func goldenTexts(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string, len(testExperiments))
	for _, id := range testExperiments {
		doc, err := core.RunWith(engine.New(2, 0), id, testOpts)
		if err != nil {
			t.Fatalf("golden %s run: %v", id, err)
		}
		out[id] = report.Text(doc)
	}
	return out
}

// runAll runs every test experiment on eng and requires each document
// to match its golden.
func runAll(t *testing.T, eng *engine.Engine, golden map[string]string, what string) {
	t.Helper()
	for _, id := range testExperiments {
		doc, err := core.RunWith(eng, id, testOpts)
		if err != nil {
			t.Fatalf("%s %s run: %v", what, id, err)
		}
		if got := report.Text(doc); got != golden[id] {
			t.Fatalf("%s %s document differs from single-process golden:\n--- fabric ---\n%s\n--- golden ---\n%s",
				what, id, got, golden[id])
		}
	}
}

// newPeer starts one peer daemon, optionally behind a middleware.
func newPeer(t *testing.T, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	var h http.Handler = serve.New(engine.New(1, 0))
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// newCoordinator builds a coordinator engine with a fabric client over
// the given peers attached as its remote tier.
func newCoordinator(t *testing.T, cfg fabric.Config) (*engine.Engine, *fabric.Client) {
	t.Helper()
	fc, err := fabric.New(cfg)
	if err != nil {
		t.Fatalf("fabric.New: %v", err)
	}
	eng := engine.New(2, 0)
	eng.AttachRemote(fc)
	return eng, fc
}

// TestFabricDocsByteIdentical is the core contract: a coordinator
// dispatching across two peers renders the byte-identical document a
// single process renders, remote answers land in the coordinator's own
// tiers (so a warm re-run touches neither the fleet nor the pool), and
// the remote tier's accounting shows the dispatches happened.
func TestFabricDocsByteIdentical(t *testing.T) {
	golden := goldenTexts(t)
	p1, p2 := newPeer(t, nil), newPeer(t, nil)
	eng, fc := newCoordinator(t, fabric.Config{Peers: []string{p1.URL, p2.URL}})

	runAll(t, eng, golden, "fabric")
	cold := eng.Metrics()
	if cold.RemoteLookup.Count == 0 || fc.Metrics().Hits == 0 {
		t.Fatalf("no shard was answered remotely (remote lookups %d, fabric hits %d) — the fabric was not exercised",
			cold.RemoteLookup.Count, fc.Metrics().Hits)
	}

	// Warm re-run: every shard answers from the coordinator's mem tier;
	// nothing executes and nothing crosses the wire.
	runAll(t, eng, golden, "warm fabric")
	warm := eng.Metrics()
	if warm.ShardsExecuted != cold.ShardsExecuted {
		t.Fatalf("warm run executed %d shards locally", warm.ShardsExecuted-cold.ShardsExecuted)
	}
	if warm.RemoteLookup.Count != cold.RemoteLookup.Count {
		t.Fatalf("warm run dispatched %d shards remotely", warm.RemoteLookup.Count-cold.RemoteLookup.Count)
	}
}

// TestFabricOutOfOrderAnswers staggers peer response latency so shard
// answers land in an order unrelated to dispatch order; the merged
// document must not care.
func TestFabricOutOfOrderAnswers(t *testing.T) {
	golden := goldenTexts(t)
	var n atomic.Int64
	scramble := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// 0ms, 45ms, 90ms, 15ms, 60ms, ... — adjacent dispatches
			// complete far out of issue order.
			time.Sleep(time.Duration(n.Add(1)*3%7) * 15 * time.Millisecond)
			next.ServeHTTP(w, r)
		})
	}
	p1, p2 := newPeer(t, scramble), newPeer(t, scramble)
	eng, _ := newCoordinator(t, fabric.Config{Peers: []string{p1.URL, p2.URL}})
	runAll(t, eng, golden, "out-of-order")
}

// TestFabricPeerDeathFallback kills one peer after its second answer:
// remaining dispatches to it fail, the circuit opens, and the
// coordinator finishes the batch through failover and local execution
// with output byte-identical to the all-local golden. A degraded fleet
// is slower, never wrong.
func TestFabricPeerDeathFallback(t *testing.T) {
	golden := goldenTexts(t)
	var served atomic.Int64
	dieAfter := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if served.Add(1) > 2 {
				http.Error(w, "peer killed by test", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	p1, p2 := newPeer(t, nil), newPeer(t, dieAfter)
	eng, fc := newCoordinator(t, fabric.Config{
		Peers:   []string{p1.URL, p2.URL},
		Retries: -1, // clamp to 0: fail fast, the fallback path is under test
	})

	runAll(t, eng, golden, "dead-peer")
	m := fc.Metrics()
	if m.PerPeer[1].Dispatches > 2 && m.PerPeer[1].Errors == 0 {
		t.Fatalf("dead peer took %d dispatches but recorded no errors: %+v", m.PerPeer[1].Dispatches, m.PerPeer[1])
	}
}

// TestFabricHedgeRace pins the hedged-request path: the owning peer
// answers slower than the cold hedge delay, the speculative duplicate
// goes to the next live peer (pre-warmed, so it answers immediately),
// and the first answer wins without disturbing correctness.
func TestFabricHedgeRace(t *testing.T) {
	slow := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(400 * time.Millisecond)
			next.ServeHTTP(w, r)
		})
	}
	fastEng := engine.New(1, 0)
	p1 := newPeer(t, slow)
	p2 := httptest.NewServer(serve.New(fastEng))
	t.Cleanup(p2.Close)
	_, fc := newCoordinator(t, fabric.Config{Peers: []string{p1.URL, p2.URL}})

	// Several seeds give the ring several disjoint key sets, so the slow
	// peer owns at least one key with overwhelming certainty.
	for seed := uint64(1); seed <= 5; seed++ {
		o := core.Options{Scale: 0.05, Seed: seed}
		p, err := core.PlanFor("fig6", o)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-warm the hedge target so its answer beats the slow owner.
		if _, err := core.RunWith(fastEng, "fig6", o); err != nil {
			t.Fatal(err)
		}
		for _, s := range p.Shards {
			key := engine.Key(p.Experiment, p.Fingerprint, s.Key)
			v, peerURL, ok, err := fc.Resolve(key, engine.RemoteRequest{Experiment: "fig6", Meta: p.Remote, Shard: s.Key})
			if err != nil {
				t.Fatalf("resolve %s: %v", s.Key, err)
			}
			if ok && (v == nil || peerURL == "") {
				t.Fatalf("resolve %s: ok with v=%v peer=%q", s.Key, v, peerURL)
			}
		}
		if m := fc.Metrics(); m.Hedges > 0 && m.HedgeWins > 0 {
			if m.PerPeer[0].Hedges == 0 {
				t.Fatalf("hedges fired but none against the slow owner: %+v", m)
			}
			return
		}
	}
	t.Fatalf("no hedge won across 5 seeds: %+v", fc.Metrics())
}

// TestFabricHedgeLoserCancelled pins the end of a hedge race: the
// owning peer never answers — its handler waits for its request's
// context — so the hedge to the next peer wins, and returning from
// Resolve must cancel the owner's request rather than leave it running
// for the rest of the attempt timeout. The cancelled attempt is not a
// failure of the owner: no error counted, circuit closed.
func TestFabricHedgeLoserCancelled(t *testing.T) {
	var started, released atomic.Int64
	stop := make(chan struct{})
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started.Add(1)
		// Read the request as /v1/shard does; only then does the server
		// watch the connection and cancel the context when it closes.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			released.Add(1)
		case <-stop: // the test ended without the request being cancelled
		}
	}))
	t.Cleanup(owner.Close)
	t.Cleanup(func() { close(stop) }) // runs before owner.Close
	fastEng := engine.New(1, 0)
	hedge := httptest.NewServer(serve.New(fastEng))
	t.Cleanup(hedge.Close)
	_, fc := newCoordinator(t, fabric.Config{Peers: []string{owner.URL, hedge.URL}})

	p, err := core.PlanFor("fig6", testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunWith(fastEng, "fig6", testOpts); err != nil {
		t.Fatal(err) // warm the hedge target
	}
	for _, s := range p.Shards {
		key := engine.Key(p.Experiment, p.Fingerprint, s.Key)
		if _, _, _, err := fc.Resolve(key, engine.RemoteRequest{Experiment: "fig6", Meta: p.Remote, Shard: s.Key}); err != nil {
			t.Fatalf("resolve %s: %v", s.Key, err)
		}
	}
	if started.Load() == 0 {
		t.Fatal("the blocking peer owned no fig6 shard: the hedge race was not exercised")
	}
	for deadline := time.Now().Add(5 * time.Second); released.Load() < started.Load(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d losing requests still running after their runs returned", started.Load()-released.Load(), started.Load())
		}
	}
	m := fc.Metrics().PerPeer[0]
	if m.HedgeWins == 0 || m.Errors != 0 || m.CircuitOpen || m.Cancelled != uint64(started.Load()) {
		t.Fatalf("owner after %d lost races: %+v (want hedge wins, each loss cancelled, no errors, circuit closed)",
			started.Load(), m)
	}
}
