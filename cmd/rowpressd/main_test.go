package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/serve"
)

// mainEnv switches the test binary into running main: the exit-code
// test re-execs it with this variable set so os.Exit is observable.
const mainEnv = "ROWPRESSD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExitCodes: a command-line mistake exits 2, a setup failure 1 (a
// -peers list with no URL in it is the fabric's own error), both before
// anything listens.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-bogus"}, 2, "-bogus"},
		{[]string{"-log-level", "loud"}, 2, `bad -log-level "loud"`},
		{[]string{"-peers", " , "}, 1, "-peers: fabric: no peers configured"},
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), mainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != c.code {
			t.Errorf("rowpressd %q: %v, want exit %d (output %q)", c.args, err, c.code, out)
			continue
		}
		if !strings.Contains(string(out), c.msg) {
			t.Errorf("rowpressd %q: output %q does not say %q", c.args, out, c.msg)
		}
	}
}

// TestBadLogLevelOpensNothing: a bad -log-level is a usage error naming
// the flag, returned before the ledger directory is created.
func TestBadLogLevelOpensNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	_, err := newDaemon([]string{"-log-level", "loud", "-ledger-dir", dir})
	if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("newDaemon: %v, want a usage error naming -log-level", err)
	}
	if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
		t.Fatalf("-ledger-dir %s was created before the usage error (stat: %v)", dir, serr)
	}
}

// startDaemon builds a rowpressd from args through newDaemon, as main
// does, and serves it on a loopback listener, optionally behind a
// middleware. Request logs are off.
func startDaemon(t *testing.T, mw func(http.Handler) http.Handler, args ...string) *httptest.Server {
	t.Helper()
	d, err := newDaemon(append([]string{"-log-level", "off"}, args...))
	if err != nil {
		t.Fatalf("newDaemon %q: %v", args, err)
	}
	var h http.Handler = d.server
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		d.close()
	})
	return ts
}

// get fetches url and fails the test unless it answers 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v: %s", url, resp.Status, err, b)
	}
	return b
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(get(t, url), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func metrics(t *testing.T, ts *httptest.Server) serve.MetricsResponse {
	t.Helper()
	var m serve.MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics", &m)
	return m
}

// settled returns the coordinator's metrics once every dispatch it
// started has been answered, has failed or was cancelled, and no peer is
// still serving a /v1/shard request. A hedged duplicate that lost its
// race is cancelled when the run it served returns, but its peer still
// finishes a shard it had begun; until then, that peer's shard count can
// still move.
func settled(t *testing.T, coord *httptest.Server, peers ...*httptest.Server) serve.MetricsResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := metrics(t, coord)
		idle := true
		for _, p := range peers {
			idle = idle && metrics(t, p).Endpoints["/v1/shard"].InFlight == 0
		}
		if f := m.Fabric; idle && (f == nil || f.Dispatches == f.Hits+f.Errors+f.Cancelled) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator dispatches never settled: %+v", m.Fabric)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fleetExps are the experiments the fleet tests serve. fig6's document
// does not depend on the seed, fig40's does, so only fig40 shows a peer
// that answers a shard for the wrong options.
var fleetExps = []string{"fig6", "fig40"}

// runText is the /v1/run path of exp's text report at scale 0.05.
func runText(exp string, seed int) string {
	return fmt.Sprintf("/v1/run/%s?scale=0.05&seed=%d&format=text", exp, seed)
}

// TestFleet runs a coordinator over two -workers 1 peers, each daemon
// with its own -ledger-dir. The cold runs fan out, the warm re-runs
// render the same bytes and execute nothing anywhere, every daemon's
// ledger hashes the same documents, and a load test against the
// coordinator records the fleet's shape.
func TestFleet(t *testing.T) {
	dir := t.TempDir()
	p1 := startDaemon(t, nil, "-workers", "1", "-ledger-dir", filepath.Join(dir, "p1"))
	p2 := startDaemon(t, nil, "-workers", "1", "-ledger-dir", filepath.Join(dir, "p2"))
	coord := startDaemon(t, nil, "-workers", "1", "-peers", p1.URL+","+p2.URL,
		"-ledger-dir", filepath.Join(dir, "coord"))

	cold := map[string]string{}
	for _, exp := range fleetExps {
		cold[exp] = string(get(t, coord.URL+runText(exp, 1)))
	}
	before := []serve.MetricsResponse{settled(t, coord, p1, p2), metrics(t, p1), metrics(t, p2)}
	if before[0].RemoteHits == 0 {
		t.Errorf("cold runs: coordinator has no remote hits")
	}
	if f := before[0].Fabric; f == nil || f.Peers != 2 {
		t.Errorf("cold runs: coordinator fabric metrics %+v, want 2 peers", f)
	}
	if before[1].ShardsExecuted+before[2].ShardsExecuted == 0 {
		t.Errorf("cold runs: the peers executed no shards")
	}

	for _, exp := range fleetExps {
		if warm := string(get(t, coord.URL+runText(exp, 1))); warm != cold[exp] {
			t.Errorf("warm %s renders different text:\n--- warm ---\n%s\n--- cold ---\n%s", exp, warm, cold[exp])
		}
	}
	settled(t, coord, p1, p2)
	for i, ts := range []*httptest.Server{coord, p1, p2} {
		if d := metrics(t, ts).ShardsExecuted - before[i].ShardsExecuted; d != 0 {
			t.Errorf("warm runs executed %d shards on %s", d, ts.URL)
		}
	}

	// The same runs served by each peer directly; then, in the merged
	// ledgers, all four records of each experiment must hash to one
	// document.
	for _, exp := range fleetExps {
		get(t, p1.URL+runText(exp, 1))
		get(t, p2.URL+runText(exp, 1))
	}
	var merged []byte
	for _, name := range []string{"coord", "p1", "p2"} {
		b, err := os.ReadFile(filepath.Join(dir, name, ledger.FileName))
		if err != nil {
			t.Fatalf("ledger of %s: %v", name, err)
		}
		merged = append(merged, b...)
	}
	mdir := filepath.Join(dir, "merged")
	if err := os.MkdirAll(mdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mdir, ledger.FileName), merged, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := ledger.Open(mdir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	for _, exp := range fleetExps {
		recs := led.Records(ledger.Query{Experiment: exp})
		if len(recs) != 4 {
			t.Fatalf("merged ledger holds %d %s records, want 4 (cold, warm, p1, p2)", len(recs), exp)
		}
		for _, r := range recs[1:] {
			if d := ledger.Compare(recs[0], r, ledger.CompareOptions{}); !d.DeterminismChecked || d.DeterminismViolation {
				t.Errorf("%s records %s and %s: determinism checked %v, violation %v (doc hashes %q, %q)",
					exp, recs[0].ID, r.ID, d.DeterminismChecked, d.DeterminismViolation, recs[0].DocHash, r.DocHash)
			}
		}
	}

	rec, _, err := ledger.LoadTest(ledger.LoadTestConfig{BaseURL: coord.URL, Clients: 2, Requests: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if l := rec.Load; l.Peers != 2 || l.RemoteExecuted == 0 || l.Errors != 0 {
		t.Errorf("fabric load test: peers %d, remote executed %d, errors %d; want 2, > 0, 0",
			l.Peers, l.RemoteExecuted, l.Errors)
	}
}

// TestFleetPeerKilledMidLoad closes one peer after its first shard
// answer while a 4-client, 24-request load test runs against the
// coordinator. No run fails, the coordinator stays ready but reports
// itself degraded, and the degraded fleet renders each experiment
// byte-identical to a single daemon: a degraded fleet is slower, never
// wrong.
func TestFleetPeerKilledMidLoad(t *testing.T) {
	single := startDaemon(t, nil, "-workers", "1")
	p1 := startDaemon(t, nil, "-workers", "1")
	answered := make(chan struct{})
	var once sync.Once
	p2 := startDaemon(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(w, r)
			if r.URL.Path == "/v1/shard" {
				once.Do(func() { close(answered) })
			}
		})
	}, "-workers", "1")
	coord := startDaemon(t, nil, "-workers", "1", "-peers", p1.URL+","+p2.URL)

	loaded, killed := make(chan struct{}), make(chan bool)
	go func() {
		select {
		case <-answered:
			p2.CloseClientConnections()
			p2.Close()
			killed <- true
		case <-loaded:
			killed <- false
		}
	}()
	rec, _, err := ledger.LoadTest(ledger.LoadTestConfig{
		BaseURL: coord.URL, Clients: 4, Requests: 24, Mix: fleetExps, Seed: 7,
	})
	close(loaded)
	if !<-killed {
		t.Fatal("the peer under test never answered a shard during the load test, so it was never killed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if l := rec.Load; l.Errors != 0 || l.Peers != 2 {
		t.Errorf("load test with a peer killed: %d of %d runs failed, peers %d", l.Errors, l.Requests, l.Peers)
	}

	var h serve.HealthResponse
	getJSON(t, coord.URL+"/v1/healthz?format=json", &h)
	if !h.Ready || !h.Degraded {
		t.Errorf("coordinator health after a peer died: ready %v, degraded %v (checks %v); want ready and degraded",
			h.Ready, h.Degraded, h.Checks)
	}

	for _, exp := range fleetExps {
		if got, want := get(t, coord.URL+runText(exp, 7)), get(t, single.URL+runText(exp, 7)); string(got) != string(want) {
			t.Errorf("degraded fleet's %s differs from a single daemon's:\n--- fleet ---\n%s\n--- single ---\n%s", exp, got, want)
		}
	}
}
