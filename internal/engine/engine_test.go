package engine

import (
	"container/list"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
)

// docOf wraps one line into a minimal result document; docLine recovers
// it. Engine tests reason about merge output as a single string, and
// these adapters keep that shape on the Doc-typed Merge.
func docOf(line string) *report.Doc {
	return report.NewDoc(report.FindingsSection("merged", line))
}

func docLine(d *report.Doc) string {
	if d == nil || len(d.Sections) == 0 || len(d.Sections[0].Findings) == 0 {
		return ""
	}
	return d.Sections[0].Findings[0]
}

// countingPlan builds a plan whose shards return their own key and count
// executions.
func countingPlan(exp, fp string, n int, executed *atomic.Int64) Plan {
	shards := make([]Shard, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("shard-%02d", i)
		shards[i] = Shard{Key: key, Run: func() (any, error) {
			executed.Add(1)
			return key, nil
		}}
	}
	return Plan{
		Experiment:  exp,
		Fingerprint: fp,
		Shards:      shards,
		Merge: func(parts []any) (*report.Doc, error) {
			ss := make([]string, len(parts))
			for i, p := range parts {
				ss[i] = p.(string)
			}
			return docOf(strings.Join(ss, "|")), nil
		},
	}
}

func TestExecuteMergesInShardOrder(t *testing.T) {
	var n atomic.Int64
	for _, workers := range []int{1, 4, 16} {
		e := New(workers, 0)
		out, stats, err := e.Execute(countingPlan("exp", "fp", 9, &n))
		if err != nil {
			t.Fatal(err)
		}
		want := "shard-00|shard-01|shard-02|shard-03|shard-04|shard-05|shard-06|shard-07|shard-08"
		if docLine(out) != want {
			t.Fatalf("workers=%d: out=%q", workers, docLine(out))
		}
		if stats.Shards != 9 || stats.Executed != 9 || stats.CacheHits != 0 {
			t.Fatalf("workers=%d: stats=%+v", workers, stats)
		}
	}
}

func TestExecuteServesRepeatsFromCache(t *testing.T) {
	var n atomic.Int64
	e := New(4, 0)
	if _, _, err := e.Execute(countingPlan("exp", "fp", 5, &n)); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 5 {
		t.Fatalf("cold run executed %d shards", n.Load())
	}
	out, stats, err := e.Execute(countingPlan("exp", "fp", 5, &n))
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 5 || stats.Executed != 0 || stats.CacheHits != 5 {
		t.Fatalf("warm run executed shards: n=%d stats=%+v", n.Load(), stats)
	}
	if !strings.HasPrefix(docLine(out), "shard-00|") {
		t.Fatalf("warm out=%q", docLine(out))
	}
	m := e.Metrics()
	if m.Runs != 2 || m.ShardsExecuted != 5 || m.CacheHits != 5 {
		t.Fatalf("metrics=%+v", m)
	}
}

func TestCacheKeyedByExperimentFingerprintShard(t *testing.T) {
	var n atomic.Int64
	e := New(4, 0)
	for _, p := range []Plan{
		countingPlan("expA", "fp1", 3, &n),
		countingPlan("expA", "fp2", 3, &n), // different options: no sharing
		countingPlan("expB", "fp1", 3, &n), // different experiment: no sharing
	} {
		if _, _, err := e.Execute(p); err != nil {
			t.Fatal(err)
		}
	}
	if n.Load() != 9 {
		t.Fatalf("expected 9 distinct shard executions, got %d", n.Load())
	}
}

func TestExecuteBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	shards := make([]Shard, 24)
	for i := range shards {
		shards[i] = Shard{Key: fmt.Sprint(i), Run: func() (any, error) {
			c := cur.Add(1)
			mu.Lock()
			if c > peak.Load() {
				peak.Store(c)
			}
			mu.Unlock()
			defer cur.Add(-1)
			return nil, nil
		}}
	}
	e := New(workers, 0)
	_, _, err := e.Execute(Plan{Experiment: "x", Shards: shards,
		Merge: func([]any) (*report.Doc, error) { return report.NewDoc(), nil }})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent shards, bound is %d", p, workers)
	}
}

func TestWorkerBoundHoldsAcrossConcurrentExecutes(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	mkPlan := func(exp string) Plan {
		shards := make([]Shard, 8)
		for i := range shards {
			shards[i] = Shard{Key: fmt.Sprint(i), Run: func() (any, error) {
				c := cur.Add(1)
				mu.Lock()
				if c > peak.Load() {
					peak.Store(c)
				}
				mu.Unlock()
				defer cur.Add(-1)
				return nil, nil
			}}
		}
		return Plan{Experiment: exp, Shards: shards,
			Merge: func([]any) (*report.Doc, error) { return report.NewDoc(), nil }}
	}
	e := New(workers, 0)
	var wg sync.WaitGroup
	for _, exp := range []string{"a", "b", "c", "d"} {
		wg.Add(1)
		go func(exp string) {
			defer wg.Done()
			if _, _, err := e.Execute(mkPlan(exp)); err != nil {
				t.Error(err)
			}
		}(exp)
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("4 concurrent Executes reached %d concurrent shards, engine bound is %d", p, workers)
	}
}

func TestConcurrentIdenticalRequestsSingleFlight(t *testing.T) {
	var executions atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	plan := func() Plan {
		return Plan{Experiment: "exp", Fingerprint: "fp",
			Shards: []Shard{{Key: "slow", Run: func() (any, error) {
				executions.Add(1)
				close(started)
				<-release
				return "payload", nil
			}}},
			Merge: func(parts []any) (*report.Doc, error) { return docOf(parts[0].(string)), nil }}
	}
	e := New(4, 0)
	type res struct {
		out   string
		stats RunStats
	}
	results := make(chan res, 2)
	go func() {
		out, stats, _ := e.Execute(plan())
		results <- res{docLine(out), stats}
	}()
	<-started // first request is mid-shard
	go func() {
		out, stats, _ := e.Execute(plan())
		results <- res{docLine(out), stats}
	}()
	close(release)
	a, b := <-results, <-results
	if a.out != "payload" || b.out != "payload" {
		t.Fatalf("outputs: %q %q", a.out, b.out)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("identical concurrent requests executed the shard %d times", n)
	}
	// One request ran the shard, the other joined it.
	if a.stats.Executed+b.stats.Executed != 1 || a.stats.CacheHits+b.stats.CacheHits != 1 {
		t.Fatalf("stats: %+v %+v", a.stats, b.stats)
	}
}

// TestRunOrJoinRechecksCacheBeforeExecuting pins the completion race: a
// shard whose result landed in the cache after the caller's Execute-level
// cache miss (the executor deregisters from inflight only after Put) must
// be served from the cache, not recomputed.
func TestRunOrJoinRechecksCacheBeforeExecuting(t *testing.T) {
	e := New(2, 0)
	key := Key("exp", "fp", "late")
	e.cache.Put(key, "already-done")
	r := e.runOrJoin(key, Shard{Key: "late", Run: func() (any, error) {
		t.Fatal("shard must not re-execute")
		return nil, nil
	}}, "exp", nil, "late", "", 0, time.Now())
	if r.err != nil || r.ran || r.val != "already-done" {
		t.Fatalf("r=%+v", r)
	}
}

func TestExecuteReportsFirstErrorByIndex(t *testing.T) {
	boom := errors.New("boom")
	p := Plan{
		Experiment: "x",
		Shards: []Shard{
			{Key: "ok", Run: func() (any, error) { return 1, nil }},
			{Key: "bad1", Run: func() (any, error) { return nil, boom }},
			{Key: "bad2", Run: func() (any, error) { return nil, errors.New("later") }},
		},
		Merge: func([]any) (*report.Doc, error) { t.Fatal("merge must not run"); return nil, nil },
	}
	e := New(8, 0)
	_, _, err := e.Execute(p)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad1") {
		t.Fatalf("err=%v", err)
	}
	if m := e.Metrics(); m.Errors != 1 {
		t.Fatalf("failed run not counted: metrics=%+v", m)
	}
}

func TestExecuteErrorIsNotCached(t *testing.T) {
	calls := 0
	p := Plan{Experiment: "x", Shards: []Shard{{Key: "flaky", Run: func() (any, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}}}, Merge: func(parts []any) (*report.Doc, error) { return docOf(parts[0].(string)), nil }}
	e := New(1, 0)
	if _, _, err := e.Execute(p); err == nil {
		t.Fatal("first run should fail")
	}
	out, _, err := e.Execute(p)
	if err != nil || docLine(out) != "ok" {
		t.Fatalf("retry: out=%q err=%v", docLine(out), err)
	}
}

func TestExecuteRecoversShardPanic(t *testing.T) {
	p := Plan{Experiment: "x", Shards: []Shard{{Key: "p", Run: func() (any, error) {
		panic("kaboom")
	}}}, Merge: func([]any) (*report.Doc, error) { return report.NewDoc(), nil }}
	_, _, err := New(2, 0).Execute(p)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err=%v", err)
	}
}

func TestKeyIsCollisionResistantOnSeparators(t *testing.T) {
	if Key("a|b", "c") == Key("a", "b|c") {
		t.Fatal("naive join would collide")
	}
	if Key("exp", "fp", "s") != Key("exp", "fp", "s") {
		t.Fatal("key not deterministic")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a: now b is LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestCachePurgeAndHitRate(t *testing.T) {
	c := NewCache(8)
	c.Put("k", "v")
	c.Get("k")
	c.Get("absent")
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %v", hr)
	}
	c.Purge()
	if _, ok := c.Get("k"); ok {
		t.Fatal("purge left entries behind")
	}
	if c.Stats().Entries != 0 {
		t.Fatal("entries after purge")
	}
}

// overlappingPlan builds a plan over an explicit key set, counting
// executions per key.
func overlappingPlan(exp, fp string, keys []string, executed *atomic.Int64) Plan {
	shards := make([]Shard, len(keys))
	for i, key := range keys {
		shards[i] = Shard{Key: key, Run: func() (any, error) {
			executed.Add(1)
			return key, nil
		}}
	}
	return Plan{
		Experiment:  exp,
		Fingerprint: fp,
		Shards:      shards,
		Merge: func(parts []any) (*report.Doc, error) {
			ss := make([]string, len(parts))
			for i, p := range parts {
				ss[i] = p.(string)
			}
			return docOf(strings.Join(ss, "|")), nil
		},
	}
}

func TestExecuteBatchDeduplicatesShards(t *testing.T) {
	var n atomic.Int64
	e := New(4, 0)
	plans := []Plan{
		overlappingPlan("exp", "fp", []string{"a", "b"}, &n),
		overlappingPlan("exp", "fp", []string{"b", "c"}, &n), // b shared with plan 0
		overlappingPlan("exp", "fp", []string{"a", "b"}, &n), // fully duplicate point
	}
	var mu sync.Mutex
	events := make([][]ShardEvent, len(plans))
	for pi := range plans {
		plans[pi].OnShard = func(ev ShardEvent) {
			mu.Lock()
			events[pi] = append(events[pi], ev)
			mu.Unlock()
		}
	}
	outs, stats, errs, bs := e.ExecuteBatch(plans)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
	}
	if docLine(outs[0]) != "a|b" || docLine(outs[1]) != "b|c" || docLine(outs[2]) != "a|b" {
		t.Fatalf("outs=%v", outs)
	}
	if n.Load() != 3 {
		t.Fatalf("unique shards a,b,c should execute once each, got %d executions", n.Load())
	}
	if bs.Plans != 3 || bs.ShardRefs != 6 || bs.UniqueShards != 3 || bs.Deduplicated != 3 ||
		bs.Executed != 3 || bs.CacheHits != 0 {
		t.Fatalf("batch stats=%+v", bs)
	}
	// First-owner accounting: plan 0 owns a+b, plan 1 owns c, plan 2 owns nothing.
	if stats[0].Executed != 2 || stats[1].Executed != 1 || stats[2].Executed != 0 {
		t.Fatalf("per-plan executed: %+v", stats)
	}
	for i, st := range stats {
		if st.CacheHits+st.Executed != st.Shards {
			t.Fatalf("plan %d accounting does not close: %+v", i, st)
		}
	}
	// Every plan sees one event per shard ref; refs an earlier plan
	// already resolved report a join, and the events close with RunStats.
	joins := []map[string]bool{{}, {"b": true}, {"a": true, "b": true}}
	for pi, evs := range events {
		if len(evs) != len(plans[pi].Shards) {
			t.Fatalf("plan %d: %d events for %d shards: %+v", pi, len(evs), len(plans[pi].Shards), evs)
		}
		var ran, cached int
		for _, ev := range evs {
			if joins[pi][ev.Key] != (ev.Cached && ev.Tier == TierJoin) {
				t.Fatalf("plan %d shard %q: event %+v", pi, ev.Key, ev)
			}
			if ev.Cached {
				cached++
			} else {
				ran++
			}
		}
		if ran != stats[pi].Executed || cached != stats[pi].CacheHits {
			t.Fatalf("plan %d: events ran=%d cached=%d, stats %+v", pi, ran, cached, stats[pi])
		}
	}
}

func TestExecuteBatchSharesCacheWithSingleRuns(t *testing.T) {
	var n atomic.Int64
	e := New(4, 0)
	if _, _, err := e.Execute(overlappingPlan("exp", "fp", []string{"a", "b"}, &n)); err != nil {
		t.Fatal(err)
	}
	outs, stats, errs, bs := e.ExecuteBatch([]Plan{
		overlappingPlan("exp", "fp", []string{"a", "b"}, &n), // fully pre-run
		overlappingPlan("exp", "fp", []string{"b", "c"}, &n), // only c is new
	})
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs=%v", errs)
	}
	if n.Load() != 3 {
		t.Fatalf("batch after single run should only execute c: %d total executions", n.Load())
	}
	if bs.CacheHits != 2 || bs.Executed != 1 || bs.UniqueShards != 3 {
		t.Fatalf("batch stats=%+v", bs)
	}
	if stats[0].CacheHits != 2 || stats[0].Executed != 0 ||
		stats[1].CacheHits != 1 || stats[1].Executed != 1 {
		t.Fatalf("per-plan stats=%+v", stats)
	}
	if docLine(outs[0]) != "a|b" || docLine(outs[1]) != "b|c" {
		t.Fatalf("outs=%v", outs)
	}
	// And the reverse direction: a later single run hits the batch's shards.
	_, st, err := e.Execute(overlappingPlan("exp", "fp", []string{"c"}, &n))
	if err != nil || st.Executed != 0 || st.CacheHits != 1 {
		t.Fatalf("single run after batch: stats=%+v err=%v", st, err)
	}
}

func TestExecuteBatchIsolatesFailures(t *testing.T) {
	boom := errors.New("boom")
	good := Plan{Experiment: "x", Fingerprint: "fp",
		Shards: []Shard{{Key: "ok", Run: func() (any, error) { return "fine", nil }}},
		Merge:  func(parts []any) (*report.Doc, error) { return docOf(parts[0].(string)), nil }}
	bad := Plan{Experiment: "x", Fingerprint: "fp",
		Shards: []Shard{
			{Key: "ok", Run: func() (any, error) { return "fine", nil }},
			{Key: "bad", Run: func() (any, error) { return nil, boom }},
		},
		Merge: func([]any) (*report.Doc, error) { t.Fatal("failed plan must not merge"); return nil, nil }}
	e := New(4, 0)
	outs, _, errs, _ := e.ExecuteBatch([]Plan{good, bad})
	if errs[0] != nil || docLine(outs[0]) != "fine" {
		t.Fatalf("healthy plan poisoned: out=%q err=%v", docLine(outs[0]), errs[0])
	}
	if !errors.Is(errs[1], boom) || !strings.Contains(errs[1].Error(), "bad") {
		t.Fatalf("errs[1]=%v", errs[1])
	}
	if m := e.Metrics(); m.Errors != 1 || m.Runs != 2 {
		t.Fatalf("metrics=%+v", m)
	}
}

func TestExecuteBatchEmpty(t *testing.T) {
	outs, stats, errs, bs := New(2, 0).ExecuteBatch(nil)
	if len(outs) != 0 || len(stats) != 0 || len(errs) != 0 || bs.Plans != 0 {
		t.Fatalf("empty batch: outs=%v bs=%+v", outs, bs)
	}
}

// fakeRemote answers a fixed set of keys as a remote tier would.
type fakeRemote struct {
	answers map[string]any
	calls   atomic.Int64
}

func (f *fakeRemote) Resolve(key string, req RemoteRequest) (any, string, bool, error) {
	f.calls.Add(1)
	if v, ok := f.answers[key]; ok {
		return v, "http://peer-1", true, nil
	}
	return nil, "", false, nil
}

// TestRemoteTierAccounting pins the remote tier's contract: a shard
// answered remotely counts as a cache hit (never an execution), its
// event carries Tier "remote" and the answering peer, the answer lands
// in the local mem tier so a re-run stays local, and the RemoteLookup
// aggregate counts exactly the remote hits.
func TestRemoteTierAccounting(t *testing.T) {
	keyA := Key("exp", "fp", "a")
	fr := &fakeRemote{answers: map[string]any{keyA: "from-peer"}}
	e := New(2, 0)
	e.AttachRemote(fr)

	var mu sync.Mutex
	events := map[string]ShardEvent{}
	plan := func() Plan {
		return Plan{Experiment: "exp", Fingerprint: "fp",
			Remote: "meta", // non-nil: shards are eligible for remote dispatch
			Shards: []Shard{
				{Key: "a", Run: func() (any, error) { t.Error("shard a must resolve remotely"); return nil, nil }},
				{Key: "b", Run: func() (any, error) { return "local", nil }},
			},
			OnShard: func(ev ShardEvent) {
				mu.Lock()
				events[ev.Key] = ev
				mu.Unlock()
			},
			Merge: func(parts []any) (*report.Doc, error) {
				return docOf(parts[0].(string) + "+" + parts[1].(string)), nil
			}}
	}
	out, stats, err := e.Execute(plan())
	if err != nil {
		t.Fatal(err)
	}
	if got := docLine(out); got != "from-peer+local" {
		t.Fatalf("merged %q", got)
	}
	if stats.Executed != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	mu.Lock()
	evA, evB := events["a"], events["b"]
	mu.Unlock()
	if !evA.Cached || evA.Tier != TierRemote || evA.Peer != "http://peer-1" {
		t.Fatalf("remote shard event: %+v", evA)
	}
	if evB.Cached || evB.Peer != "" {
		t.Fatalf("local shard event: %+v", evB)
	}
	m := e.Metrics()
	if m.RemoteLookup.Count != 1 || m.ShardsExecuted != 1 {
		t.Fatalf("metrics: remote=%d executed=%d", m.RemoteLookup.Count, m.ShardsExecuted)
	}

	// Re-run: the remote answer was installed in the mem tier, so the
	// fleet is not consulted again.
	calls := fr.calls.Load()
	if _, stats, err = e.Execute(plan()); err != nil || stats.CacheHits != 2 {
		t.Fatalf("warm rerun: stats=%+v err=%v", stats, err)
	}
	if fr.calls.Load() != calls {
		t.Fatal("warm rerun consulted the remote tier")
	}

	// A nil Plan.Remote keeps every shard local — the peer-side loop
	// guard (ResolveLocal passes nil meta) relies on this.
	e2 := New(2, 0)
	fr2 := &fakeRemote{answers: map[string]any{keyA: "from-peer"}}
	e2.AttachRemote(fr2)
	p := plan()
	p.Remote = nil
	p.Shards[0] = Shard{Key: "a", Run: func() (any, error) { return "local-a", nil }}
	if out, _, err := e2.Execute(p); err != nil || docLine(out) != "local-a+local" {
		t.Fatalf("nil-meta run: %v %v", out, err)
	}
	if fr2.calls.Load() != 0 {
		t.Fatal("nil Plan.Remote still consulted the remote tier")
	}
}

// TestRemoteTierErrorFallsBackLocally pins the degraded path: a remote
// tier that fails never fails the run — the shard executes locally and
// the error is counted.
func TestRemoteTierErrorFallsBackLocally(t *testing.T) {
	e := New(1, 0)
	e.AttachRemote(failingRemote{})
	p := Plan{Experiment: "exp", Fingerprint: "fp", Remote: "meta",
		Shards: []Shard{{Key: "a", Run: func() (any, error) { return "ok", nil }}},
		Merge:  func(parts []any) (*report.Doc, error) { return docOf(parts[0].(string)), nil }}
	out, stats, err := e.Execute(p)
	if err != nil || docLine(out) != "ok" || stats.Executed != 1 {
		t.Fatalf("out=%v stats=%+v err=%v", out, stats, err)
	}
	if m := e.Metrics(); m.RemoteErrors != 1 {
		t.Fatalf("RemoteErrors = %d, want 1", m.RemoteErrors)
	}
}

type failingRemote struct{}

func (failingRemote) Resolve(string, RemoteRequest) (any, string, bool, error) {
	return nil, "", false, errors.New("every peer failed")
}

// Purge drops all entries (counters are kept).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = map[string]*list.Element{}
}
