package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
)

// warmRequest serves one request of srv into a discarding writer and
// fails t unless it answers 200.
func warmRequest(t *testing.T, srv *Server, r *http.Request) {
	t.Helper()
	w := &discardWriter{h: http.Header{}}
	srv.ServeHTTP(w, r)
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("%s: status %d", r.URL, w.code)
	}
}

// allocatedPerRequest averages the bytes and allocations of warm
// requests r.
func allocatedPerRequest(t *testing.T, srv *Server, r *http.Request) (bytes, allocs float64) {
	t.Helper()
	const n = 200
	for i := 0; i < 10; i++ {
		warmRequest(t, srv, r)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		warmRequest(t, srv, r)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// TestWarmRunRendersOnlyItsFormat: a warm text or CSV request writes
// exactly report.Text or report.CSV of the run's document and renders
// nothing else. A json request must render the text report into its
// report field, so it allocates at least the report's length; a text
// or CSV request renders into a pooled buffer, so it allocates at least
// half the report's length less. The fig1 report (2.2 KB) dwarfs the
// few hundred bytes the json path adds besides it.
func TestWarmRunRendersOnlyItsFormat(t *testing.T) {
	srv := New(engine.New(2, 0))
	const query = "/v1/run/fig1?scale=0.05&seed=1&modules=S0,S3,M3&format="
	get := func(format string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest("GET", query+format, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("format=%s: status %d: %s", format, rr.Code, rr.Body)
		}
		return rr
	}
	var resp RunResponse
	if err := json.Unmarshal(get("json").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	text := report.Text(resp.Doc)
	if resp.Report != text {
		t.Fatal("json report field differs from report.Text of its doc")
	}
	if got := get("text").Body.String(); got != text {
		t.Fatalf("text body differs from report.Text:\n%s", got)
	}
	if got := get("csv").Body.String(); got != report.CSV(resp.Doc) {
		t.Fatalf("csv body differs from report.CSV:\n%s", got)
	}

	jsonB, jsonN := allocatedPerRequest(t, srv, httptest.NewRequest("GET", query+"json", nil))
	for _, f := range []string{"text", "csv"} {
		b, n := allocatedPerRequest(t, srv, httptest.NewRequest("GET", query+f, nil))
		t.Logf("warm %s request: %.0f B in %.1f allocs; json %.0f B in %.1f; text report %d B", f, b, n, jsonB, jsonN, len(text))
		if b > jsonB-float64(len(text))/2 {
			t.Errorf("warm %s request allocates %.0f B, a json request %.0f B: it renders the %d B text report it does not send",
				f, b, jsonB, len(text))
		}
	}
}

// TestRunRecordsPlanAndRenderSpans: with a span recorder on the engine,
// every /v1/run request records a plan_build and a render span for its
// experiment, in each format.
func TestRunRecordsPlanAndRenderSpans(t *testing.T) {
	eng := engine.New(2, 0)
	eng.SetRecorder(obs.NewRecorder(0))
	srv := New(eng)
	formats := []string{"json", "text", "csv", "ndjson"}
	for _, f := range formats {
		warmRequest(t, srv, httptest.NewRequest("GET", runQuery+"&format="+f, nil))
	}
	counts := map[obs.Kind]int{}
	for _, s := range eng.Recorder().Snapshot() {
		if s.Experiment == "fig7" {
			counts[s.Kind]++
		}
	}
	for _, k := range []obs.Kind{obs.PlanBuild, obs.Render} {
		if counts[k] != len(formats) {
			t.Errorf("%s spans: %d, want one per request (%d)", k, counts[k], len(formats))
		}
	}
}
