package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(engine.New(4, 0))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var body struct {
		Status  string  `json:"status"`
		UptimeS float64 `json:"uptime_s"`
		Workers int     `json:"workers"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body.Status != "ok" || body.Workers != 4 {
		t.Fatalf("healthz: code=%d body=%+v", resp.StatusCode, body)
	}
}

func TestExperimentsListed(t *testing.T) {
	_, ts := newTestServer(t)
	var exps []struct{ ID, Title string }
	getJSON(t, ts.URL+"/v1/experiments", &exps)
	if len(exps) < 30 {
		t.Fatalf("only %d experiments listed", len(exps))
	}
}

const runQuery = "/v1/run/fig7?scale=0.05&modules=S0,S3"

func TestRunThenWarmCacheServesWithoutExecution(t *testing.T) {
	_, ts := newTestServer(t)

	var cold RunResponse
	resp := getJSON(t, ts.URL+runQuery, &cold)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run status %d", resp.StatusCode)
	}
	if cold.Stats.Executed == 0 || cold.Stats.FromCache {
		t.Fatalf("cold run should execute shards: %+v", cold.Stats)
	}
	if cold.Stats.Shards != 2 { // one shard per module
		t.Fatalf("expected 2 shards for 2 modules, got %d", cold.Stats.Shards)
	}
	if !strings.Contains(cold.Report, "==") {
		t.Fatalf("report lacks section header: %q", cold.Report)
	}

	var warm RunResponse
	getJSON(t, ts.URL+runQuery, &warm)
	if warm.Stats.Executed != 0 || !warm.Stats.FromCache || warm.Stats.CacheHits != 2 {
		t.Fatalf("warm run should be all-cache: %+v", warm.Stats)
	}
	if warm.Report != cold.Report {
		t.Fatal("warm report differs from cold report")
	}
}

func TestOverlappingRequestSharesShards(t *testing.T) {
	_, ts := newTestServer(t)
	getJSON(t, ts.URL+"/v1/run/fig7?scale=0.05&modules=S0,S3", nil)
	// Superset module list: S0 and S3 shards come from cache, M3 runs.
	var r RunResponse
	getJSON(t, ts.URL+"/v1/run/fig7?scale=0.05&modules=S0,S3,M3", &r)
	if r.Stats.CacheHits != 2 || r.Stats.Executed != 1 {
		t.Fatalf("overlap run stats: %+v", r.Stats)
	}
}

func TestRunTextFormat(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + runQuery + "&format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

func TestRunErrors(t *testing.T) {
	_, ts := newTestServer(t)
	if resp := getJSON(t, ts.URL+"/v1/run/fig999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/run/fig7?scale=9", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad scale: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/run/fig7?scale=NaN", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN scale: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/run/fig7?scale=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparsable scale: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/run/fig7?scale=0.05&modules=Z9", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown module: %d", resp.StatusCode)
	}
}

func TestResultsAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	getJSON(t, ts.URL+runQuery, nil)
	getJSON(t, ts.URL+runQuery, nil)

	var results []ledger.Record
	getJSON(t, ts.URL+"/v1/results", &results)
	if len(results) != 2 {
		t.Fatalf("expected 2 result records, got %d", len(results))
	}
	// Newest first: the warm run, which executed nothing.
	if results[0].Tiers.Miss != 0 || results[1].Tiers.Miss == 0 {
		t.Fatalf("result order/tier split wrong: %+v", results)
	}
	if r := results[0]; r.Experiment != "fig7" || r.ID == "" || r.OptionsHash != results[1].OptionsHash || r.DocHash != "" {
		t.Fatalf("record malformed: %+v", r)
	}

	var m MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics", &m)
	// 2 unit shards executed once; the warm rerun hits at the unit
	// level. The memory tier holds the 2 unit payloads plus the 6
	// sub-shard payloads (3 row-site chunks per module).
	if m.Runs != 2 || m.ShardsExecuted != 2 || m.CacheHits != 2 || m.CacheEntries != 8 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.CacheHitRate <= 0 || m.CacheHitRate >= 1 {
		t.Fatalf("hit rate: %v", m.CacheHitRate)
	}
}

func TestModulesParsingNormalized(t *testing.T) {
	_, ts := newTestServer(t)
	// Whitespace around ids and empty entries are tolerated...
	var r RunResponse
	resp := getJSON(t, ts.URL+"/v1/run/fig7?scale=0.05&modules=S0,%20S3,", &r)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("padded module list rejected: %d", resp.StatusCode)
	}
	if len(r.Modules) != 2 || r.Modules[0] != "S0" || r.Modules[1] != "S3" || r.Stats.Shards != 2 {
		t.Fatalf("normalized modules: %+v stats=%+v", r.Modules, r.Stats)
	}
	// ...but duplicates would plan duplicate shard keys and are a 400.
	if resp := getJSON(t, ts.URL+"/v1/run/fig7?scale=0.05&modules=S0,S0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate modules: %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/run/fig7?scale=0.05&modules=S0,%20S0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate modules after trim: %d", resp.StatusCode)
	}
}

// TestFormatMatrix pins ?format handling uniformly across every
// format-aware endpoint: each supported value serves its content type
// with a 200, and every unknown value is a 400 whose error names the
// allowed list — never a silent JSON fallthrough.
func TestFormatMatrix(t *testing.T) {
	_, ts := newTestServer(t)
	fetch := func(t *testing.T, endpoint, format string) (*http.Response, string) {
		t.Helper()
		url := ts.URL + endpoint
		if format != "" {
			sep := "?"
			if strings.Contains(endpoint, "?") {
				sep = "&"
			}
			url += sep + "format=" + format
		}
		var resp *http.Response
		var err error
		if endpoint == "/v1/sweep" {
			resp, err = http.Post(url, "application/json",
				strings.NewReader(`{"experiment":"fig7","scales":[0.05],"module_sets":[["S0"]]}`))
		} else {
			resp, err = http.Get(url)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, string(raw)
	}

	endpoints := map[string]struct {
		ok      map[string]string // format -> content-type prefix
		allowed string            // list a 400 must name
	}{
		runQuery: {
			ok: map[string]string{
				"": "application/json", "json": "application/json",
				"text": "text/plain", "csv": "text/csv", "ndjson": "application/x-ndjson",
			},
			allowed: "json|text|csv|ndjson",
		},
		"/v1/sweep": {
			ok: map[string]string{
				"": "application/json", "json": "application/json",
				"text": "text/plain", "csv": "text/csv",
			},
			allowed: "json|text|csv",
		},
		"/v1/scenarios": {
			ok: map[string]string{
				"": "application/json", "json": "application/json",
				"text": "text/plain", "csv": "text/csv",
			},
			allowed: "json|text|csv",
		},
	}
	for endpoint, tc := range endpoints {
		for format, wantCT := range tc.ok {
			t.Run(endpoint+"/format="+format, func(t *testing.T) {
				resp, body := fetch(t, endpoint, format)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantCT) {
					t.Fatalf("content type %q, want prefix %q", ct, wantCT)
				}
			})
		}
		for _, format := range []string{"xml", "yaml", "JSON"} {
			t.Run(endpoint+"/bad-format="+format, func(t *testing.T) {
				resp, body := fetch(t, endpoint, format)
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("unknown format %q: status %d", format, resp.StatusCode)
				}
				if !strings.Contains(body, tc.allowed) {
					t.Fatalf("400 body does not name the allowed formats %q: %s", tc.allowed, body)
				}
			})
		}
	}
}

// TestRunJSONCarriesTypedDoc: the JSON response exposes the structured
// document, and its text rendering matches the report field.
func TestRunJSONCarriesTypedDoc(t *testing.T) {
	_, ts := newTestServer(t)
	var r RunResponse
	getJSON(t, ts.URL+runQuery, &r)
	if r.Doc == nil || len(r.Doc.Sections) == 0 {
		t.Fatalf("run response carries no doc: %+v", r)
	}
	if r.Doc.Experiment != "fig7" || len(r.Doc.Params) == 0 {
		t.Fatalf("doc metadata missing: %+v", r.Doc)
	}
	if report.Text(r.Doc) != r.Report {
		t.Fatal("doc text rendering differs from report field")
	}
}

// TestRunNDJSONStreams: format=ndjson emits one shard event per planned
// shard (in any order, from worker goroutines) and a final done event
// whose document matches the JSON response.
func TestRunNDJSONStreams(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + runQuery + "&format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("content type %q", ct)
	}
	var shardEvents, done int
	var final struct {
		Event  string      `json:"event"`
		Report string      `json:"report"`
		Stats  RunStats    `json:"stats"`
		Doc    *report.Doc `json:"doc"`
	}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var probe struct {
			Event string `json:"event"`
		}
		raw := json.RawMessage{}
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("decode stream line: %v", err)
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatal(err)
		}
		switch probe.Event {
		case "shard":
			shardEvents++
			if done != 0 {
				t.Fatal("shard event after done")
			}
		case "done":
			done++
			if err := json.Unmarshal(raw, &final); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected event %q", probe.Event)
		}
	}
	if shardEvents != 2 || done != 1 { // fig7 with 2 modules plans 2 shards
		t.Fatalf("stream shape: %d shard events, %d done", shardEvents, done)
	}
	if final.Doc == nil || final.Stats.Shards != 2 || final.Report == "" {
		t.Fatalf("done event malformed: %+v", final)
	}
}

func postSweep(t *testing.T, url, body string, v any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode sweep response: %v", err)
		}
	}
	return resp
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var res sweep.Result
	resp := postSweep(t, ts.URL+"/v1/sweep",
		`{"experiment":"fig7","scales":[0.05],"module_sets":[["S0","S3"],["S0","M3"]]}`, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	a := res.Aggregate
	if a.Points != 2 || a.ShardRefs != 4 || a.UniqueShards != 3 || a.Executed != 3 {
		t.Fatalf("aggregate=%+v", a)
	}
	for i, p := range res.Points {
		if p.Report == "" || p.Error != "" {
			t.Fatalf("point %d: %+v", i, p)
		}
	}

	// The sweep's shards are now cached: a single run of an overlapping
	// point is served without execution.
	var r RunResponse
	getJSON(t, ts.URL+"/v1/run/fig7?scale=0.05&modules=S0,S3", &r)
	if !r.Stats.FromCache || r.Report != res.Points[0].Report {
		t.Fatalf("single run after sweep: stats=%+v, report match=%v",
			r.Stats, r.Report == res.Points[0].Report)
	}

	// Sweeps are listed in /v1/results, newest first.
	var results []ledger.Record
	getJSON(t, ts.URL+"/v1/results", &results)
	if len(results) != 2 || results[1].Kind != "sweep" || results[0].Kind != "run" {
		t.Fatalf("results=%+v", results)
	}
	if r := results[1]; r.Shards != 4 || r.Tiers.Miss != 3 || r.OptionsHash == "" {
		t.Fatalf("sweep record=%+v", r)
	}
}

func TestSweepEndpointFormats(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"experiment":"fig7","scales":[0.05],"module_sets":[["S0"]]}`

	resp, err := http.Post(ts.URL+"/v1/sweep?format=csv", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("csv content type %q", ct)
	}
	if !strings.HasPrefix(string(raw), "experiment,scale,seed,modules,") {
		t.Fatalf("csv body %q", raw)
	}

	resp, err = http.Post(ts.URL+"/v1/sweep?format=text", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text content type %q", ct)
	}
	if !strings.Contains(string(raw), "## sweep aggregate: fig7") {
		t.Fatalf("text body %q", raw)
	}
}

func TestSweepEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"malformed json":     {`{`, http.StatusBadRequest},
		"unknown field":      {`{"experiment":"fig7","bogus":1}`, http.StatusBadRequest},
		"no experiment":      {`{}`, http.StatusBadRequest},
		"unknown experiment": {`{"experiment":"fig999"}`, http.StatusNotFound},
		"bad scale":          {`{"experiment":"fig7","scales":[9]}`, http.StatusBadRequest},
		"duplicate modules":  {`{"experiment":"fig7","module_sets":[["S0","S0"]]}`, http.StatusBadRequest},
	} {
		if resp := postSweep(t, ts.URL+"/v1/sweep", tc.body, nil); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
}

// TestFailedRunRecordedWithError poisons the shard cache with a payload
// of the wrong type so the run's merge fails, then asserts the failure
// is visible to operators: a /v1/results record with the error and an
// incremented run_failures counter in /v1/metrics.
func TestFailedRunRecordedWithError(t *testing.T) {
	s, ts := newTestServer(t)
	opt := core.DefaultOptions()
	opt.Scale, opt.Modules = 0.05, []string{"S0"}
	p, err := core.PlanFor("fig7", opt)
	if err != nil {
		t.Fatal(err)
	}
	key := engine.Key(p.Experiment, p.Fingerprint, p.Shards[0].Key)
	s.Engine().Cache().Put(key, 42) // wrong payload type: merge will fail

	resp := getJSON(t, ts.URL+"/v1/run/fig7?scale=0.05&modules=S0", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned run status %d", resp.StatusCode)
	}

	var results []ledger.Record
	getJSON(t, ts.URL+"/v1/results", &results)
	if len(results) != 1 || results[0].Error == "" || results[0].Kind != "run" {
		t.Fatalf("failed run not recorded: %+v", results)
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics", &m)
	if m.RunFailures != 1 {
		t.Fatalf("run_failures=%d, want 1 (metrics=%+v)", m.RunFailures, m)
	}
}

// TestConcurrentSweepAndRunConsistency fires overlapping /v1/sweep and
// /v1/run requests at one server concurrently (run under -race in CI)
// and asserts byte-identical reports across every response plus closed
// cache accounting: each unique shard executes exactly once process-wide,
// and every other shard reference is a cache hit.
func TestConcurrentSweepAndRunConsistency(t *testing.T) {
	s, ts := newTestServer(t)
	const iters = 8
	sweepBody := `{"experiment":"fig7","scales":[0.05],"module_sets":[["S0","S3"],["S0","M3"]]}`

	// fetchJSON is goroutine-safe: it reports problems as errors instead
	// of calling t.Fatal off the test goroutine.
	fetchJSON := func(resp *http.Response, err error, v any) error {
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}

	runReports := make([]string, iters)
	sweepReports := make([][]string, iters)
	var wg sync.WaitGroup
	for i := 0; i < iters; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			var r RunResponse
			resp, err := http.Get(ts.URL + "/v1/run/fig7?scale=0.05&modules=S0,S3")
			if err := fetchJSON(resp, err, &r); err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			runReports[i] = r.Report
		}(i)
		go func(i int) {
			defer wg.Done()
			var res sweep.Result
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody))
			if err := fetchJSON(resp, err, &res); err != nil {
				t.Errorf("sweep %d: %v", i, err)
				return
			}
			if len(res.Points) != 2 || res.Aggregate.Failed != 0 {
				t.Errorf("sweep %d: %d points, %d failed", i, len(res.Points), res.Aggregate.Failed)
				return
			}
			sweepReports[i] = []string{res.Points[0].Report, res.Points[1].Report}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow() // don't index into reports a failed request never filled
	}

	for i := 1; i < iters; i++ {
		if runReports[i] != runReports[0] {
			t.Fatalf("run %d report differs", i)
		}
		if sweepReports[i][0] != sweepReports[0][0] || sweepReports[i][1] != sweepReports[0][1] {
			t.Fatalf("sweep %d reports differ", i)
		}
	}
	// The run's module set equals sweep point 0: same options, same bytes.
	if runReports[0] != sweepReports[0][0] {
		t.Fatal("run report differs from equivalent sweep point")
	}

	// Accounting closes: 3 unique shards (S0, S3, M3) executed exactly
	// once each; every remaining reference was a hit.
	m := s.Engine().Metrics()
	if m.ShardsExecuted != 3 {
		t.Fatalf("unique shards executed %d times total (metrics=%+v)", m.ShardsExecuted, m)
	}
	wantPlanned := uint64(iters * (2 + 4)) // per iter: run 2 refs + sweep 4 refs
	if m.ShardsPlanned != wantPlanned || m.CacheHits != wantPlanned-3 {
		t.Fatalf("planned=%d hits=%d, want planned=%d hits=%d",
			m.ShardsPlanned, m.CacheHits, wantPlanned, wantPlanned-3)
	}
	// 3 unit payloads plus 3 sub-shard payloads per unit.
	if st := s.Engine().Cache().Stats(); st.Entries != 12 {
		t.Fatalf("cache entries=%d", st.Entries)
	}
}

// TestResultsOrderingAndOverflow pins /v1/results over the default
// memory-only ledger: with more records than its window, it returns
// exactly resultsLimit entries, newest first, and the oldest are the
// ones dropped. Records are appended to the ledger directly so the
// test exercises the history, not the experiment engine.
func TestResultsOrderingAndOverflow(t *testing.T) {
	s, ts := newTestServer(t)
	total := ledger.MemoryRecords + 40
	for i := 0; i < total; i++ {
		if _, err := s.ledger.Append(ledger.Record{Experiment: fmt.Sprintf("exp-%d", i), Kind: ledger.KindRun}); err != nil {
			t.Fatal(err)
		}
	}
	var results []ledger.Record
	getJSON(t, ts.URL+"/v1/results", &results)
	if len(results) != resultsLimit {
		t.Fatalf("results returned %d records, want %d", len(results), resultsLimit)
	}
	for i, rec := range results {
		want := fmt.Sprintf("exp-%d", total-1-i)
		if rec.Experiment != want {
			t.Fatalf("results[%d] = %q, want %q (newest first)", i, rec.Experiment, want)
		}
	}
}

// TestResultsPartiallyFilled: below the window /v1/results reports
// only what was recorded, still newest first.
func TestResultsPartiallyFilled(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		if _, err := s.ledger.Append(ledger.Record{Experiment: fmt.Sprintf("exp-%d", i), Kind: ledger.KindRun}); err != nil {
			t.Fatal(err)
		}
	}
	var results []ledger.Record
	getJSON(t, ts.URL+"/v1/results", &results)
	if len(results) != 3 {
		t.Fatalf("got %d records, want 3", len(results))
	}
	for i, want := range []string{"exp-2", "exp-1", "exp-0"} {
		if results[i].Experiment != want {
			t.Fatalf("results[%d] = %q, want %q", i, results[i].Experiment, want)
		}
	}
}

// TestScenariosListed mirrors TestExperimentsListed for the scenario
// matrix: every catalog entry is discoverable with its structural
// fields, no CLI parsing required.
func TestScenariosListed(t *testing.T) {
	_, ts := newTestServer(t)
	var out []ScenarioInfo
	resp := getJSON(t, ts.URL+"/v1/scenarios", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out) != len(scenario.Catalog()) {
		t.Fatalf("listed %d scenarios, want %d", len(out), len(scenario.Catalog()))
	}
	byName := map[string]ScenarioInfo{}
	for _, sc := range out {
		byName[sc.Name] = sc
	}
	ds, ok := byName["ds-hammer"]
	if !ok || ds.Kind != "hammer" || ds.Sides != 2 || ds.Pattern == "" {
		t.Fatalf("ds-hammer entry malformed: %+v", ds)
	}
	cb, ok := byName["combined-b4-7.8us"]
	if !ok || cb.Kind != "combined" || cb.Burst != 4 || cb.TAggON != 7800*dram.Nanosecond {
		t.Fatalf("combined entry malformed: %+v", cb)
	}
}

// TestWarmStartAcrossProcesses is the end-to-end warm-start contract:
// a "restarted daemon" — a second server over a fresh engine whose disk
// cache points at the first server's directory — answers a previously
// computed /v1/run with zero shards executed, visible in both the run's
// stats and /v1/metrics.
func TestWarmStartAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	newServer := func() (*Server, *httptest.Server) {
		eng := engine.New(4, 0)
		dc, err := engine.OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		eng.AttachDiskCache(dc)
		s := New(eng)
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		return s, ts
	}

	s1, ts1 := newServer()
	var cold RunResponse
	getJSON(t, ts1.URL+runQuery, &cold)
	if cold.Stats.Executed == 0 {
		t.Fatalf("cold run executed nothing: %+v", cold.Stats)
	}
	if err := s1.Engine().Disk().Flush(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newServer()
	var warm RunResponse
	getJSON(t, ts2.URL+runQuery, &warm)
	if warm.Stats.Executed != 0 || !warm.Stats.FromCache || warm.Stats.CacheHits != warm.Stats.Shards {
		t.Fatalf("second process executed shards: %+v", warm.Stats)
	}
	if warm.Report != cold.Report {
		t.Fatal("warm-started report differs from the original")
	}

	var m MetricsResponse
	getJSON(t, ts2.URL+"/v1/metrics", &m)
	if !m.DiskEnabled || m.ShardsExecuted != 0 || m.DiskHits != uint64(warm.Stats.Shards) {
		t.Fatalf("warm-start metrics: %+v", m)
	}
	if m.DiskEntries == 0 {
		t.Fatalf("disk tier reports no entries: %+v", m)
	}
}
