package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
)

// A nil recorder is the disabled state: every method must be a safe
// no-op, because the engine threads one *Recorder field and never
// branches on configuration.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(Execute, 0, 0, "fig6", "s", time.Now(), time.Millisecond, 1)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil Snapshot = %v, want nil", got)
	}
	if r.Dropped() != 0 || r.Stats() != nil || r.Since(time.Now()) != 0 {
		t.Fatal("nil recorder accessors not zero")
	}
}

func TestRecorderStoresSpans(t *testing.T) {
	r := NewRecorder(8)
	start := r.Epoch().Add(5 * time.Millisecond)
	r.Record(Execute, 2, 3, "fig6", "module/S0", start, 7*time.Millisecond, 42)
	spans := r.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Kind != Execute || s.Worker != 2 || s.Index != 3 || s.Experiment != "fig6" ||
		s.Shard != "module/S0" || s.Bytes != 42 {
		t.Fatalf("span fields wrong: %+v", s)
	}
	if s.Start != 5*time.Millisecond || s.Dur != 7*time.Millisecond || s.End() != 12*time.Millisecond {
		t.Fatalf("span timing wrong: start=%v dur=%v end=%v", s.Start, s.Dur, s.End())
	}
	st := r.Stats()
	if st["execute"].Count != 1 || st["execute"].Total != 7*time.Millisecond {
		t.Fatalf("stats wrong: %+v", st["execute"])
	}
}

// Once the ring wraps, the snapshot must hold the most recent capacity
// spans in oldest-first order, and Dropped must count the overwrites.
func TestRecorderRingWrap(t *testing.T) {
	const capacity, total = 4, 11
	r := NewRecorder(capacity)
	for i := 0; i < total; i++ {
		r.Record(Execute, 0, i, "e", fmt.Sprintf("s%d", i), r.Epoch(), time.Millisecond, 0)
	}
	if got := r.Dropped(); got != total-capacity {
		t.Fatalf("Dropped = %d, want %d", got, total-capacity)
	}
	spans := r.Snapshot()
	if len(spans) != capacity {
		t.Fatalf("got %d spans, want %d", len(spans), capacity)
	}
	for i, s := range spans {
		if want := int32(total - capacity + i); s.Index != want {
			t.Fatalf("span %d has index %d, want %d (oldest-first)", i, s.Index, want)
		}
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	const goroutines, each = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(QueueWait, g, i, "e", "s", time.Now(), time.Microsecond, 0)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Stats()["queue_wait"].Count; got != goroutines*each {
		t.Fatalf("recorded %d spans, want %d", got, goroutines*each)
	}
	if got := r.Dropped() + uint64(len(r.Snapshot())); got != goroutines*each {
		t.Fatalf("dropped+retained = %d, want %d", got, goroutines*each)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond) // 1ms..100ms
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 100*time.Millisecond {
		t.Fatalf("count=%d max=%v", s.Count, s.Max)
	}
	// Bucket interpolation is coarse (doubling buckets); assert the
	// quantiles land in the right neighborhood and are ordered.
	p50, p95, p99 := s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
	if !(p50 < p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotonic: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p50 < 25*time.Millisecond || p50 > 102*time.Millisecond {
		t.Fatalf("p50 = %v, want within a doubling bucket of 50ms", p50)
	}
	if mean := s.Mean(); mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", mean)
	}
}

func TestHistogramOverflowResolvesToMax(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond})
	h.Observe(10 * time.Second) // overflow bucket
	s := h.Snapshot()
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow bucket not hit: %v", s.Counts)
	}
	if got := s.Quantile(0.99); got > 10*time.Second || got < time.Millisecond {
		t.Fatalf("overflow quantile = %v, want in (1ms, 10s]", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Count != 0 {
		t.Fatal("empty histogram not zero")
	}
}

// analyzeFixture builds a deterministic two-worker span set:
//
//	plan build 2ms, then worker 0 runs a 10ms shard and worker 1 runs a
//	6ms and a 4ms shard, then merge 1ms and render 1ms. Queue waits 1ms
//	per shard.
func analyzeFixture() []Span {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Span{
		{Kind: PlanBuild, Worker: -1, Index: -1, Experiment: "e", Start: 0, Dur: msec(2)},
		{Kind: QueueWait, Worker: 0, Index: 0, Experiment: "e", Shard: "a", Start: msec(2), Dur: msec(1)},
		{Kind: QueueWait, Worker: 1, Index: 1, Experiment: "e", Shard: "b", Start: msec(2), Dur: msec(1)},
		{Kind: QueueWait, Worker: 1, Index: 2, Experiment: "e", Shard: "c", Start: msec(9), Dur: msec(1)},
		{Kind: Execute, Worker: 0, Index: 0, Experiment: "e", Shard: "a", Start: msec(3), Dur: msec(10), Bytes: 100},
		{Kind: Execute, Worker: 1, Index: 1, Experiment: "e", Shard: "b", Start: msec(3), Dur: msec(6), Bytes: 60},
		{Kind: Execute, Worker: 1, Index: 2, Experiment: "e", Shard: "c", Start: msec(10), Dur: msec(4), Bytes: 40},
		{Kind: CacheMem, Worker: -1, Index: 3, Experiment: "e", Shard: "d", Start: msec(2), Dur: 0},
		{Kind: Merge, Worker: -1, Index: -1, Experiment: "e", Start: msec(14), Dur: msec(1)},
		{Kind: Render, Worker: -1, Index: -1, Experiment: "e", Start: msec(15), Dur: msec(1)},
	}
}

func TestAnalyzeCriticalPath(t *testing.T) {
	a := Analyze(analyzeFixture())
	if a.Wall != 16*time.Millisecond {
		t.Fatalf("Wall = %v, want 16ms", a.Wall)
	}
	if a.PlanBuild != 2*time.Millisecond || a.Merge != time.Millisecond || a.Render != time.Millisecond {
		t.Fatalf("plan=%v merge=%v render=%v", a.PlanBuild, a.Merge, a.Render)
	}
	if a.TotalExec != 20*time.Millisecond || a.TotalQueue != 3*time.Millisecond || a.CacheHits != 1 {
		t.Fatalf("exec=%v queue=%v hits=%d", a.TotalExec, a.TotalQueue, a.CacheHits)
	}
	// Critical path: 2ms plan + 10ms longest shard + 1ms merge + 1ms
	// render = 14ms over 24ms of total serialized work.
	if a.CriticalPath != 14*time.Millisecond {
		t.Fatalf("CriticalPath = %v, want 14ms", a.CriticalPath)
	}
	if want := 14.0 / 24.0; math.Abs(a.SerialFraction-want) > 1e-9 {
		t.Fatalf("SerialFraction = %v, want %v", a.SerialFraction, want)
	}
	if want := 24.0 / 14.0; math.Abs(a.MaxSpeedup-want) > 1e-9 {
		t.Fatalf("MaxSpeedup = %v, want %v", a.MaxSpeedup, want)
	}
	// Shards sort by descending execution time and join their queue waits.
	if len(a.Shards) != 3 || a.Shards[0].Shard != "a" || a.Shards[1].Shard != "b" || a.Shards[2].Shard != "c" {
		t.Fatalf("shard order wrong: %+v", a.Shards)
	}
	if a.Shards[0].Queue != time.Millisecond {
		t.Fatalf("queue wait not joined: %+v", a.Shards[0])
	}
	// Worker 0: 10ms busy / 16ms wall; worker 1: 10ms busy / 16ms wall.
	if len(a.Workers) != 2 || a.Workers[0].Worker != 0 || a.Workers[1].Worker != 1 {
		t.Fatalf("workers wrong: %+v", a.Workers)
	}
	for _, w := range a.Workers {
		if want := 10.0 / 16.0; math.Abs(w.Utilization-want) > 1e-9 {
			t.Fatalf("worker %d utilization = %v, want %v", w.Worker, w.Utilization, want)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Wall != 0 || len(a.Shards) != 0 || a.MaxSpeedup != 0 {
		t.Fatalf("empty analysis not zero: %+v", a)
	}
	if doc := a.Doc(5); doc == nil || len(doc.Sections) != 3 {
		t.Fatalf("empty analysis doc malformed: %+v", doc)
	}
}

func TestAnalysisDocTopN(t *testing.T) {
	doc := Analyze(analyzeFixture()).Doc(2)
	text := report.Text(doc)
	if !strings.Contains(text, "shard dominance") || !strings.Contains(text, "critical path") {
		t.Fatalf("doc missing sections:\n%s", text)
	}
	if !strings.Contains(text, "showing top 2 of 3 shards") {
		t.Fatalf("doc missing truncation note:\n%s", text)
	}
	if strings.Contains(text, "\nc ") {
		t.Fatalf("doc shows shard beyond top-2:\n%s", text)
	}
	if !strings.Contains(text, "render 1.000 ms = critical path 14.000 ms") {
		t.Fatalf("doc critical path omits render:\n%s", text)
	}
	if !strings.Contains(text, "theoretical max speedup 1.71x") {
		t.Fatalf("doc missing Amdahl bound:\n%s", text)
	}
}

// The exporter must emit the object form {"traceEvents": [...]} with
// one X event per span, per-worker thread rows, and thread-name
// metadata — the shape chrome://tracing and Perfetto load.
func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, analyzeFixture()); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := analyzeFixture()
	var xs, ms int
	threadNames := map[int]string{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			xs++
			if ev.Dur <= 0 {
				t.Fatalf("X event %q has non-positive dur %v", ev.Name, ev.Dur)
			}
		case "M":
			ms++
			threadNames[ev.TID] = ev.Args["name"].(string)
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if xs != len(spans) {
		t.Fatalf("got %d X events, want %d", xs, len(spans))
	}
	// Rows: orchestrator (tid 0) + workers 0 and 1 (tids 1, 2).
	if threadNames[0] != "orchestrator" || threadNames[1] != "worker 0" || threadNames[2] != "worker 1" {
		t.Fatalf("thread names wrong: %v", threadNames)
	}
	// The execute span of shard "a" carries its payload size.
	found := false
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "execute" && ev.Args["shard"] == "a" {
			found = true
			if ev.Args["payload_bytes"].(float64) != 100 {
				t.Fatalf("payload_bytes wrong: %v", ev.Args)
			}
			if ev.TID != 1 {
				t.Fatalf("worker-0 span on tid %d, want 1", ev.TID)
			}
		}
	}
	if !found {
		t.Fatal("execute span for shard a not exported")
	}
}

// Enabled reports whether spans are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Epoch returns the recorder's zero time.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}
