// Package obs is the engine's observability layer: a low-overhead span
// recorder threaded through the shard lifecycle (queue wait, cache
// lookup split by tier, execute, merge, plan build, scatter-gather
// barrier, render), a Chrome trace-event exporter so a run renders as a
// per-worker timeline in chrome://tracing or Perfetto, a critical-path
// analyzer turning a span set into a shard-dominance / worker-
// utilization / Amdahl report, and fixed-bucket latency histograms for
// the serving path.
//
// The recorder is allocation-frugal and strictly zero-cost when
// disabled: a nil *Recorder is valid and every method on it is a no-op
// behind a single pointer check, so instrumented code threads one
// field and never branches on configuration. When enabled, each span
// is one fixed-size slot in a preallocated ring (older spans are
// overwritten once the ring wraps, counted in Dropped) plus a pair of
// per-kind atomic counters, so recording stays cheap enough to leave
// on for whole characterization campaigns.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies one span of the shard lifecycle.
type Kind uint8

const (
	// QueueWait is the time a shard spent between dispatch and
	// acquiring a worker slot (enqueue→dequeue).
	QueueWait Kind = iota
	// CacheMem is a shard lookup answered by the in-memory tier.
	CacheMem
	// CacheDisk is a shard lookup answered by the persistent tier.
	CacheDisk
	// CacheMiss is a shard lookup answered by neither tier.
	CacheMiss
	// Execute is a shard's Run on a worker slot.
	Execute
	// Merge is a plan's Merge assembling shard payloads into the doc.
	Merge
	// PlanBuild is the decomposition of one run into shards.
	PlanBuild
	// Barrier is a run's scatter-gather window: first dispatch to the
	// last shard resolving.
	Barrier
	// RemoteDispatch is a shard answered by a fabric peer: the full
	// wire round trip, retries included, as seen by the coordinator.
	RemoteDispatch
	// Render is a run's document rendered into the format its caller
	// sends, and the write of it.
	Render
	numKinds
)

var kindNames = [numKinds]string{
	"queue_wait", "cache_mem", "cache_disk", "cache_miss",
	"execute", "merge", "plan_build", "barrier",
	"remote_dispatch", "render",
}

// String names the kind as it appears in trace categories and tables.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one recorded interval. Worker is the engine worker slot that
// carried it (-1 for spans outside the pool: merges, plan builds,
// barriers, cache lookups on the dispatching goroutine). Index is the
// shard's index within its plan (-1 when not shard-scoped). Start is
// the offset from the recorder's epoch, so spans from one recorder
// share a timeline.
type Span struct {
	Kind       Kind
	Worker     int32
	Index      int32
	Start      time.Duration
	Dur        time.Duration
	Experiment string
	Shard      string
	Bytes      int64 // payload size when known (executed shards), else 0
}

// End is the span's finish offset from the recorder epoch.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// DefaultRingSpans bounds the recorder when callers have no stronger
// opinion: a full `rowpress all` records well under this many spans.
const DefaultRingSpans = 1 << 16

// Recorder collects spans into a preallocated ring. A nil Recorder is
// the disabled state: Record and the accessors are no-ops. Safe for
// concurrent use.
type Recorder struct {
	epoch time.Time

	mu   sync.Mutex
	ring []Span
	next uint64 // total spans ever recorded

	counts [numKinds]atomic.Uint64
	durs   [numKinds]atomic.Int64 // summed nanoseconds per kind
}

// NewRecorder returns a recorder holding the most recent capacity
// spans (<= 0 selects DefaultRingSpans). The epoch is the call time.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingSpans
	}
	return &Recorder{epoch: time.Now(), ring: make([]Span, 0, capacity)}
}

// Since converts an absolute time into a recorder-epoch offset.
func (r *Recorder) Since(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch)
}

// noSpan is Start's end function on a nil recorder.
func noSpan() {}

// Start opens a span of kind outside the worker pool (worker and index
// -1) and returns the function that closes and records it. On a nil
// recorder the clock is never read and the returned function is a
// no-op, so callers time a stage without importing time themselves.
func (r *Recorder) Start(kind Kind, experiment string) (end func()) {
	if r == nil {
		return noSpan
	}
	t0 := time.Now()
	return func() { r.Record(kind, -1, -1, experiment, "", t0, time.Since(t0), 0) }
}

// Record stores one span. start is absolute (converted to an epoch
// offset); worker/index follow the Span conventions. No-op on nil.
func (r *Recorder) Record(kind Kind, worker, index int, experiment, shard string, start time.Time, dur time.Duration, bytes int64) {
	if r == nil {
		return
	}
	r.counts[kind].Add(1)
	r.durs[kind].Add(int64(dur))
	s := Span{
		Kind:       kind,
		Worker:     int32(worker),
		Index:      int32(index),
		Start:      start.Sub(r.epoch),
		Dur:        dur,
		Experiment: experiment,
		Shard:      shard,
		Bytes:      bytes,
	}
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, s)
	} else {
		r.ring[r.next%uint64(cap(r.ring))] = s
	}
	r.next++
	r.mu.Unlock()
}

// Snapshot returns the retained spans oldest-first. Nil on a nil or
// empty recorder.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.ring))
	if r.next <= uint64(cap(r.ring)) {
		copy(out, r.ring)
		return out
	}
	// The ring wrapped: the oldest surviving span sits at the next
	// overwrite position.
	head := int(r.next % uint64(cap(r.ring)))
	n := copy(out, r.ring[head:])
	copy(out[n:], r.ring[:head])
	return out
}

// Dropped reports how many spans the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(cap(r.ring)) {
		return 0
	}
	return r.next - uint64(cap(r.ring))
}

// KindStats is the aggregate view of one span kind.
type KindStats struct {
	Count uint64
	Total time.Duration
}

// Stats returns the per-kind aggregate counters (atomic, so usable
// while recording continues).
func (r *Recorder) Stats() map[string]KindStats {
	if r == nil {
		return nil
	}
	out := make(map[string]KindStats, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		out[k.String()] = KindStats{
			Count: r.counts[k].Load(),
			Total: time.Duration(r.durs[k].Load()),
		}
	}
	return out
}
