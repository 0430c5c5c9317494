package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
)

// FuzzShardRequest posts arbitrary bodies to /v1/shard on a 1-worker
// engine. The handler must never panic and must answer every body with
// 400 (does not decode, no key, options the planner rejects), 404
// (unknown experiment, shard or sub-shard) or 409 (key mismatch): no
// fuzzed body can carry the SHA-256 cache address the shard derives,
// so none executes anything. Plain `go test` runs the seed corpus only.
func FuzzShardRequest(f *testing.F) {
	o := core.DefaultOptions()
	o.Scale = 0.05
	p, err := core.PlanFor("fig6", o)
	if err != nil {
		f.Fatal(err)
	}
	valid := fabric.ShardRequest{Experiment: "fig6", Scale: o.Scale, Seed: o.Seed, Shard: p.Shards[0].Key, Key: strings.Repeat("0", 64)}
	seed := func(req fabric.ShardRequest) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(valid) // well-formed, wrong key: 409
	noKey := valid
	noKey.Key = ""
	seed(noKey) // the skew check needs a key: 400
	unknownShard := valid
	unknownShard.Shard = "no-such-shard"
	seed(unknownShard)
	unknownExp := valid
	unknownExp.Experiment = "fig0"
	seed(unknownExp)
	if subs := p.Shards[0].Subs; len(subs) > 0 {
		sub := valid
		sub.Sub = subs[0].Key
		seed(sub)
		sub.Sub = "no-such-sub"
		seed(sub)
	}
	badScale := valid
	badScale.Scale = 2
	seed(badScale)
	f.Add([]byte(`{"experiment":"fig6","scale":NaN,"seed":1,"shard":"x","key":"k"}`))
	f.Add([]byte(`{"experiment":"fig6","scale":"NaN","shard":"x","key":"k"}`))
	f.Add([]byte(`{"experiment":"fig6","scale":0.05,"shard":"x","key":"k","extra":true}`))
	f.Add([]byte(`{"experiment":"fig6","modules":["S0","S0"],"scale":0.05,"shard":"x","key":"k"}`))
	f.Add([]byte(`{"experiment":`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	eng := engine.New(1, 0)
	srv := New(eng)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
		default:
			t.Fatalf("body %q: status %d (%s), want 400, 404 or 409", body, rec.Code, rec.Body.String())
		}
		if m := eng.Metrics(); m.ShardsExecuted+m.SubShardsExecuted != 0 {
			t.Fatalf("body %q executed shards: %+v", body, m)
		}
	})
}
