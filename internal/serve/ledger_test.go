package serve

// Integration tests for the run-ledger surface: run/sweep stamping,
// /v1/history and /v1/compare in all three formats and without a
// ledger directory, /v1/results as a history window that survives a
// restart, the histogram bucket
// fields /v1/metrics must expose, and the load-test harness driving a
// live server end to end.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/report"
)

func newLedgerServer(t *testing.T, dir string) (*Server, *httptest.Server, *ledger.Ledger) {
	t.Helper()
	led, err := ledger.Open(dir, 0)
	if err != nil {
		t.Fatalf("ledger.Open: %v", err)
	}
	t.Cleanup(func() { led.Close() })
	s := New(engine.New(4, 0), WithLedger(led))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, led
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestRunsStampLedgerRecords(t *testing.T) {
	_, ts, led := newLedgerServer(t, t.TempDir())
	// Cold run misses every shard; the identical warm run hits memory.
	for i := 0; i < 2; i++ {
		if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
			t.Fatalf("run %d: code=%d body=%s", i, code, body)
		}
	}
	recs := led.Records(ledger.Query{Experiment: "fig6", Kind: ledger.KindRun})
	if len(recs) != 2 {
		t.Fatalf("ledger holds %d fig6 run records, want 2", len(recs))
	}
	warm, cold := recs[0], recs[1]
	if cold.Tiers.Miss == 0 || cold.Tiers.Mem != 0 {
		t.Fatalf("cold run tiers %+v, want all misses", cold.Tiers)
	}
	if warm.Tiers.Mem == 0 || warm.Tiers.Miss != 0 {
		t.Fatalf("warm run tiers %+v, want all mem hits", warm.Tiers)
	}
	if cold.OptionsHash == "" || cold.OptionsHash != warm.OptionsHash {
		t.Fatalf("options hashes differ for identical requests: %q vs %q", cold.OptionsHash, warm.OptionsHash)
	}
	if cold.DocHash == "" || cold.DocHash != warm.DocHash {
		t.Fatalf("doc hashes differ for identical requests: %q vs %q", cold.DocHash, warm.DocHash)
	}
	if cold.Tiers.Total() != cold.Shards {
		t.Fatalf("tier split %+v does not account for %d shards", cold.Tiers, cold.Shards)
	}
}

func TestSweepStampsLedgerRecord(t *testing.T) {
	_, ts, led := newLedgerServer(t, t.TempDir())
	body := `{"experiment":"fig6","scales":[0.05,0.1]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: code=%d", resp.StatusCode)
	}
	recs := led.Records(ledger.Query{Kind: ledger.KindSweep})
	if len(recs) != 1 {
		t.Fatalf("ledger holds %d sweep records, want 1", len(recs))
	}
	r := recs[0]
	if r.Experiment != "fig6" || r.OptionsHash == "" || r.DocHash == "" || r.Shards == 0 {
		t.Fatalf("sweep record incomplete: %+v", r)
	}
}

func TestHistoryEndpointFormats(t *testing.T) {
	_, ts, _ := newLedgerServer(t, t.TempDir())
	if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
		t.Fatalf("run: code=%d body=%s", code, body)
	}

	if code, body := getBody(t, ts.URL+"/v1/history"); code != http.StatusOK ||
		!strings.Contains(body, `"kind": "run"`) && !strings.Contains(body, `"kind":"run"`) {
		t.Fatalf("history json: code=%d body=%s", code, body)
	}
	if code, body := getBody(t, ts.URL+"/v1/history?format=text"); code != http.StatusOK ||
		!strings.Contains(body, "run history") || !strings.Contains(body, "fig6") {
		t.Fatalf("history text: code=%d body=%s", code, body)
	}
	if code, body := getBody(t, ts.URL+"/v1/history?format=csv"); code != http.StatusOK ||
		!strings.Contains(body, "fig6") {
		t.Fatalf("history csv: code=%d body=%s", code, body)
	}
	// Filters apply.
	if code, body := getBody(t, ts.URL+"/v1/history?experiment=nosuch"); code != http.StatusOK ||
		strings.TrimSpace(body) != "[]" {
		t.Fatalf("filtered history: code=%d body=%q", code, body)
	}
	if code, _ := getBody(t, ts.URL+"/v1/history?limit=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: code=%d, want 400", code)
	}
}

func TestCompareEndpoint(t *testing.T) {
	_, ts, _ := newLedgerServer(t, t.TempDir())
	for i := 0; i < 2; i++ {
		if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
			t.Fatalf("run %d: code=%d body=%s", i, code, body)
		}
	}

	// Equal experiment selectors compare previous vs latest.
	code, body := getBody(t, ts.URL+"/v1/compare?a=fig6&b=fig6&format=text")
	if code != http.StatusOK {
		t.Fatalf("compare text: code=%d body=%s", code, body)
	}
	for _, want := range []string{"tier shift", "doc hashes match"} {
		if !strings.Contains(body, want) {
			t.Fatalf("compare text missing %q:\n%s", want, body)
		}
	}

	var cr CompareResponse
	resp := getJSON(t, ts.URL+"/v1/compare?a=fig6~1&b=fig6~0", &cr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare json: code=%d", resp.StatusCode)
	}
	if !cr.DeterminismChecked || cr.DeterminismViolation {
		t.Fatalf("identical runs: checked=%v violation=%v", cr.DeterminismChecked, cr.DeterminismViolation)
	}
	if cr.Doc == nil || cr.A.ID == "" || cr.B.ID == "" {
		t.Fatalf("compare json incomplete: %+v", cr)
	}

	if code, _ := getBody(t, ts.URL+"/v1/compare?a=fig6&b=fig6&format=csv"); code != http.StatusOK {
		t.Fatalf("compare csv: code=%d", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/compare?a=fig6"); code != http.StatusBadRequest {
		t.Fatalf("compare without ?b: code=%d, want 400", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/compare?a=nosuch&b=fig6"); code != http.StatusNotFound {
		t.Fatalf("compare unknown selector: code=%d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/compare?a=fig6&b=fig6&threshold=-1"); code != http.StatusBadRequest {
		t.Fatalf("compare bad threshold: code=%d, want 400", code)
	}
}

// Without a ledger directory the daemon still has a run history: a
// memory-only ledger behind /v1/history and /v1/compare, whose records
// carry no document hash, so compare reports determinism unchecked.
func TestHistoryWithoutLedgerDir(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 2; i++ {
		if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
			t.Fatalf("run: code=%d body=%s", code, body)
		}
	}
	var recs []ledger.Record
	if resp := getJSON(t, ts.URL+"/v1/history", &recs); resp.StatusCode != http.StatusOK {
		t.Fatalf("history: code=%d", resp.StatusCode)
	}
	if len(recs) != 2 || recs[0].Experiment != "fig6" || recs[0].DocHash != "" {
		t.Fatalf("history=%+v", recs)
	}
	var cmp CompareResponse
	if resp := getJSON(t, ts.URL+"/v1/compare?a=fig6~1&b=fig6~0", &cmp); resp.StatusCode != http.StatusOK {
		t.Fatalf("compare: code=%d", resp.StatusCode)
	}
	if cmp.A.ID != recs[1].ID || cmp.B.ID != recs[0].ID || cmp.DeterminismChecked {
		t.Fatalf("compare=%+v", cmp)
	}
}

// /v1/results is /v1/history with a default limit.
func TestResultsIsHistoryWindow(t *testing.T) {
	_, ts := newTestServer(t)
	getBody(t, ts.URL+"/v1/run/fig6?scale=0.05")
	postSweep(t, ts.URL+"/v1/sweep", `{"experiment":"fig7","scales":[0.05],"module_sets":[["S0"]]}`, nil)
	code, results := getBody(t, ts.URL+"/v1/results")
	_, history := getBody(t, ts.URL+"/v1/history?limit=256")
	if code != http.StatusOK || results != history || !strings.Contains(results, `"kind":"sweep"`) {
		t.Fatalf("code=%d\nresults=%s\nhistory=%s", code, results, history)
	}
}

// A restarted daemon serves the previous process's runs from the
// ledger file, and each run's record keeps its identity across the
// restart: the record a live /v1/results showed is the record the
// restarted daemon shows.
func TestResultsWarmStartFromLedger(t *testing.T) {
	dir := t.TempDir()
	s, ts, led := newLedgerServer(t, dir)
	if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
		t.Fatalf("run: code=%d body=%s", code, body)
	}
	opt := core.DefaultOptions()
	opt.Scale, opt.Modules = 0.05, []string{"S0"}
	p, err := core.PlanFor("fig7", opt)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().Cache().Put(engine.Key(p.Experiment, p.Fingerprint, p.Shards[0].Key), 42) // merge fails
	if code, _ := getBody(t, ts.URL+"/v1/run/fig7?scale=0.05&modules=S0"); code != http.StatusInternalServerError {
		t.Fatalf("poisoned run: code=%d", code)
	}
	var live []ledger.Record
	getJSON(t, ts.URL+"/v1/results", &live)
	ts.Close()
	led.Close()

	_, ts2, _ := newLedgerServer(t, dir)
	var restarted []ledger.Record
	getJSON(t, ts2.URL+"/v1/results", &restarted)
	if len(live) != 2 || len(restarted) != 2 || live[0].Error == "" || live[1].Error != "" {
		t.Fatalf("live=%+v\nrestarted=%+v", live, restarted)
	}
	for i, a := range live {
		b := restarted[i]
		if a.ID == "" || a.OptionsHash == "" ||
			a.ID != b.ID || a.OptionsHash != b.OptionsHash || a.Kind != b.Kind || a.Error != b.Error {
			t.Fatalf("record %d changed across the restart:\nlive      %+v\nrestarted %+v", i, a, b)
		}
	}
}

func TestMetricsExposeHistogramBuckets(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
		t.Fatalf("run: code=%d body=%s", code, body)
	}
	var m struct {
		Endpoints map[string]EndpointMetrics `json:"endpoints"`
	}
	getJSON(t, ts.URL+"/v1/metrics", &m)
	em, ok := m.Endpoints["/v1/run"]
	if !ok {
		t.Fatalf("no /v1/run endpoint metrics: %+v", m.Endpoints)
	}
	if len(em.BucketBoundsMS) == 0 || len(em.BucketCounts) != len(em.BucketBoundsMS)+1 {
		t.Fatalf("bucket layout bounds=%d counts=%d, want counts = bounds+1 > 1",
			len(em.BucketBoundsMS), len(em.BucketCounts))
	}
	var total uint64
	for _, c := range em.BucketCounts {
		total += c
	}
	if total != em.Requests {
		t.Fatalf("bucket counts sum %d != requests %d", total, em.Requests)
	}
}

// End-to-end: the load-test harness drives a live server, records
// client quantiles, and reconstructs the server-side window from
// /v1/metrics bucket deltas.
func TestLoadTestAgainstLiveServer(t *testing.T) {
	_, ts, led := newLedgerServer(t, t.TempDir())
	rec, doc, err := ledger.LoadTest(ledger.LoadTestConfig{
		BaseURL:  ts.URL,
		Clients:  3,
		Requests: 9,
		Mix:      []string{"fig6"},
		Scale:    0.05,
	})
	if err != nil {
		t.Fatalf("LoadTest: %v", err)
	}
	if rec.Kind != ledger.KindLoadTest || rec.Load == nil {
		t.Fatalf("load-test record incomplete: %+v", rec)
	}
	ls := rec.Load
	if ls.Errors != 0 {
		t.Fatalf("%d/%d requests failed", ls.Errors, ls.Requests)
	}
	if ls.ClientP50MS <= 0 || ls.ClientP99MS < ls.ClientP50MS {
		t.Fatalf("client quantiles implausible: %+v", ls)
	}
	if !ls.ServerWindow {
		t.Fatalf("server window not reconstructed from /v1/metrics buckets: %+v", ls)
	}
	if ls.ServerP50MS <= 0 {
		t.Fatalf("server p50 %v, want > 0", ls.ServerP50MS)
	}
	txt := report.Text(doc)
	if !strings.Contains(txt, "load test") || !strings.Contains(txt, "skew") {
		t.Fatalf("load-test doc missing sections:\n%s", txt)
	}
	stamped, err := led.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	got, ok := led.Get(stamped.ID)
	if !ok || got.Load == nil || got.Load.Clients != 3 {
		t.Fatalf("load-test record did not round-trip: %+v", got)
	}
}

// All requests failing is an error, not an empty record.
func TestLoadTestAllFailures(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer ts.Close()
	_, _, err := ledger.LoadTest(ledger.LoadTestConfig{BaseURL: ts.URL, Clients: 2, Requests: 4})
	if err == nil {
		t.Fatal("LoadTest against an all-failing server must error")
	}
}
