package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// warmExcluded are the experiments perfbench leaves out of every
// workload: single shards whose cold cost (7-17 s at the golden
// options) would dominate priming.
var warmExcluded = map[string]bool{"fig23": true, "fig49": true, "scenario-mitigation": true}

// discardWriter is a ResponseWriter that keeps only the status, so a
// benchmark times the handler and not a response buffer.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// warmServer primes a fresh engine with every experiment of the
// perfbench set at the golden options and returns a server on it plus
// one GET /v1/run request per experiment and format.
func warmServer(tb testing.TB, formats ...string) (*Server, []*http.Request) {
	tb.Helper()
	o := core.Options{Scale: 0.05, Seed: 1, Modules: []string{"S0", "S3", "M3"}}
	eng := engine.New(0, 0)
	var reqs []*http.Request
	for _, e := range core.List() {
		if warmExcluded[e.ID] {
			continue
		}
		if _, err := core.RunWith(eng, e.ID, o); err != nil {
			tb.Fatalf("prime %s: %v", e.ID, err)
		}
		for _, f := range formats {
			reqs = append(reqs, httptest.NewRequest("GET", "/v1/run/"+e.ID+"?scale=0.05&seed=1&modules=S0,S3,M3&format="+f, nil))
		}
	}
	return New(eng), reqs
}

// BenchmarkServeWarm times one warm GET /v1/run through ServeHTTP into
// a discarding writer, cycling over every experiment of the perfbench
// serve-warm set in json, text and csv: plan, mem tier, merge, render
// and write, with no network. One op is one request.
func BenchmarkServeWarm(b *testing.B) {
	srv, reqs := warmServer(b, "json", "text", "csv")
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		w.code = 0
		srv.ServeHTTP(w, reqs[i%len(reqs)])
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("%s: status %d", reqs[i%len(reqs)].URL, w.code)
		}
	}
}
