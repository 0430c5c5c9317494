package fabric_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/report"
)

// FuzzShardResponse fuzzes what a peer answers to /v1/shard: the body
// and the X-Fabric-Tier header of a 200 response, sent for every
// dispatch. Whatever the peer answers, the coordinator must not panic.
// A peer is trusted with payloads of the dispatched sub-shard's type;
// for any other body — undecodable, or a payload of another type — the
// run must render the local document, and so must a re-run on the same
// engine: nothing the peer sent was cached.
func FuzzShardResponse(f *testing.F) {
	o := core.Options{Scale: 0.05, Seed: 1, Modules: []string{"S0", "S3", "M3", "H0"}}
	local, err := core.RunWith(engine.New(1, 0), "fig6", o)
	if err != nil {
		f.Fatal(err)
	}
	want := report.Text(local)
	plan, err := core.PlanFor("fig6", o)
	if err != nil {
		f.Fatal(err)
	}
	sub := plan.Shards[0].Subs[0]
	right, err := sub.Run()
	if err != nil {
		f.Fatal(err)
	}
	gobOf := func(v any) []byte {
		var buf bytes.Buffer
		if err := engine.EncodePayload(&buf, v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	rightGob := gobOf(right)
	// Building a monolithic experiment's plan registers *report.Doc, the
	// wrong-typed answer of the seed corpus.
	if _, err := core.PlanFor("table1", o); err != nil {
		f.Fatal(err)
	}
	f.Add(rightGob, engine.TierMem)
	f.Add(gobOf(&report.Doc{}), "")
	f.Add(rightGob[:len(rightGob)/2], engine.TierDisk)
	f.Add([]byte{}, "")
	f.Add([]byte(`{"rows":[["S0","1"]]}`), engine.TierMem)

	f.Fuzz(func(t *testing.T, body []byte, tier string) {
		var hits atomic.Int64
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set(fabric.TierHeader, tier)
			w.Write(body)
		}))
		defer peer.Close()
		// Eight peer names for one server leave the coordinator a ninth of
		// the keyspace, so some sub-shard is always dispatched.
		peers := make([]string, 8)
		for i := range peers {
			peers[i] = peer.URL + "/" + strconv.Itoa(i)
		}
		fc, err := fabric.New(fabric.Config{Peers: peers, Retries: -1})
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(1, 0)
		eng.AttachRemote(fc)

		v, derr := engine.DecodePayload(bytes.NewReader(body))
		trusted := derr == nil && reflect.TypeOf(v) == sub.Type
		for run := 0; run < 2; run++ {
			doc, err := core.RunWith(eng, "fig6", o)
			if trusted {
				return // a well-typed answer is the peer's to get right
			}
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if report.Text(doc) != want {
				t.Fatalf("run %d renders a different document than a local engine", run)
			}
		}
		if hits.Load() == 0 || eng.Metrics().RemoteErrors == 0 {
			t.Fatalf("peer hits %d, remote errors %d: the bad answer never reached the engine",
				hits.Load(), eng.Metrics().RemoteErrors)
		}
	})
}
