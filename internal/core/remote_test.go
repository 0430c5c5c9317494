package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/report"
)

// wrongTypeRemote answers the first sub-shard dispatch it sees with a
// payload of the wrong type, as a peer on a skewed build could, and
// sends every other dispatch back for local execution.
type wrongTypeRemote struct{ answered atomic.Bool }

func (r *wrongTypeRemote) Resolve(_ string, req engine.RemoteRequest) (any, string, bool, error) {
	if req.Sub == "" || r.answered.Swap(true) {
		return nil, "", false, nil
	}
	return &report.Doc{}, "http://peer-1", true, nil
}

// TestWrongTypedRemoteAnswerRunsLocally: a remote answer of another type
// than the shard's payload counts as a failed dispatch — the shard runs
// locally, the run renders the local document, and nothing from the
// peer is cached, so a re-run on the same engine renders it again.
func TestWrongTypedRemoteAnswerRunsLocally(t *testing.T) {
	o := Options{Scale: 0.05, Seed: 1, Modules: []string{"S0"}}
	want, err := RunWith(engine.New(2, 0), "fig6", o)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(2, 0)
	remote := &wrongTypeRemote{}
	eng.AttachRemote(remote)
	for run := 0; run < 2; run++ {
		got, err := RunWith(eng, "fig6", o)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if report.Text(got) != report.Text(want) {
			t.Fatalf("run %d renders a different document than a local engine", run)
		}
	}
	if !remote.answered.Load() {
		t.Fatal("no sub-shard was dispatched; the test is vacuous")
	}
	if n := eng.Metrics().RemoteErrors; n != 1 {
		t.Errorf("RemoteErrors = %d, want 1 (the wrong-typed answer)", n)
	}
}

// TestPlansRecordConcretePayloadTypes: every shard and sub-shard of every
// experiment records a concrete payload type, which a remote answer must
// match exactly.
func TestPlansRecordConcretePayloadTypes(t *testing.T) {
	for _, e := range List() {
		p, err := PlanFor(e.ID, goldenOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range p.Shards {
			types := []reflect.Type{s.Type}
			for _, sub := range s.Subs {
				types = append(types, sub.Type)
			}
			for _, typ := range types {
				if typ == nil || typ.Kind() == reflect.Interface {
					t.Errorf("%s shard %q: payload type %v is not concrete", e.ID, s.Key, typ)
				}
			}
		}
	}
}
