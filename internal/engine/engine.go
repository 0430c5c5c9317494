// Package engine executes experiment plans concurrently. A Plan
// decomposes one experiment run into deterministic Shards (per-module or
// per-configuration slices of a sweep); the Engine runs the shards on a
// bounded worker pool, memoizes every completed shard in a
// content-addressed cache — an in-memory LRU, optionally layered over a
// persistent DiskCache so a restarted process warm-starts — and hands
// the ordered shard payloads to the plan's Merge to build the exact
// result document the serial path would have produced.
//
// There is one execution core, ExecuteBatch: it derives every plan's
// cache keys, deduplicates them across the batch, looks each unique key
// up in the cache tiers, scatters the misses over the pool, and merges
// each plan. Execute is the one-plan batch. Every plan's OnShard sees
// one ShardEvent per shard, whichever entry point ran it.
//
// The engine is generic: it knows nothing about DRAM or the paper. The
// core package builds plans; cmd/rowpress, cmd/rowpressd, and the bench
// harness pick the worker count and share engines (and therefore caches)
// across requests.
package engine

import (
	"encoding/gob"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// Shard is one deterministic unit of work within a plan. Key must be
// unique within the plan and stable across runs with equal inputs: it is
// the final component of the shard's cache address. Run must be pure —
// equal (experiment, fingerprint, key) must produce an equal payload —
// and the returned payload must never be mutated afterwards, because the
// cache hands the same value to later runs.
//
// A shard may declare a second-level split instead of a Run: Subs lists
// independently cache-keyed sub-shards and Gather folds their payloads
// (index j holds the result of Subs[j], regardless of completion order)
// into the shard's own payload, which is cached under the shard's key
// exactly as if Run had produced it — warm runs hit at the unit level
// and never touch the subs. Run is ignored when Subs is non-empty. The
// split is one level deep: sub-shards cannot split further.
//
// Type, when set, is the payload's dynamic type: a remote answer of any
// other type counts as a failed dispatch, so the shard runs locally and
// nothing from the peer is cached.
type Shard struct {
	Key  string
	Run  func() (any, error)
	Type reflect.Type

	Subs   []SubShard
	Gather func(subs []any) (any, error)
}

// SubShard is one unit of a shard's declared split. Key must be unique
// within the parent shard and stable across runs; the sub-shard's cache
// address is derived from the parent's, so equal (experiment,
// fingerprint, shard key, sub key) means an equal payload. Run carries
// the same purity and immutability contract as Shard.Run, and Type the
// same meaning as Shard.Type.
type SubShard struct {
	Key  string
	Run  func() (any, error)
	Type reflect.Type
}

// Cache tiers as they appear in ShardEvent.Tier and the serving
// layer's metrics. TierJoin marks a shard adopted from a concurrent
// in-flight execution or resolved by an earlier plan of the same batch
// — cached from this plan's point of view, though no cache tier
// answered it. TierRemote marks a shard answered by a
// fabric peer's tiers or pool over the wire (see RemoteTier).
const (
	TierMem    = "mem"
	TierDisk   = "disk"
	TierJoin   = "join"
	TierRemote = "remote"
)

// ShardEvent describes one resolved shard of a plan: either a cache hit
// (Cached, Wall 0, Tier naming the tier that answered) or a completed
// execution (Worker is the pool slot that ran it, Queue the
// dispatch→execution wait). Err is non-nil when the shard failed. A
// split shard is executed by many pool slots at once, so its Worker is
// -1; Subs and SubsRun break out how much of its split ran.
type ShardEvent struct {
	Index   int           // shard index within the plan
	Key     string        // the shard's plan-level key
	Cached  bool          // served from a cache tier or a joined in-flight run
	Tier    string        // "mem", "disk", "join", or "remote" when Cached; "" when executed
	Peer    string        // answering peer's URL when Tier is "remote"
	Worker  int           // worker slot that executed the shard; -1 when cached or split
	Queue   time.Duration // time between dispatch and execution start (summed over subs)
	Wall    time.Duration // execution time when this call ran the shard (summed over subs)
	Subs    int           // sub-shards the shard declares (0 for a leaf shard)
	SubsRun int           // sub-shards this call actually ran
	Err     error
}

// Plan is a decomposed experiment run. Merge receives the shard payloads
// in shard order (index i holds the result of Shards[i]) and assembles
// the final typed result document. OnShard, when set, is invoked once
// per shard as it resolves — possibly concurrently from worker
// goroutines, so observers must synchronize — before Merge runs; the
// serving layer uses it to stream per-shard completion events. The
// tier split needs no observer: RunStats.Tiers counts it.
type Plan struct {
	Experiment  string // experiment id, e.g. "fig6"
	Fingerprint string // canonical encoding of the run options
	Shards      []Shard
	Merge       func(parts []any) (*report.Doc, error)
	OnShard     func(ShardEvent)

	// Remote is opaque plan metadata handed to an attached RemoteTier so
	// a fabric peer can rebuild the same plan from first principles (the
	// core package stamps the normalized run options here). A nil Remote
	// keeps every shard local — ResolveLocal relies on this to guarantee
	// a peer serving a dispatched shard can never re-dispatch it.
	Remote any
}

// TierCounts splits shard resolutions by answering tier: the
// in-memory LRU, the persistent disk tier, a fabric peer, a joined
// concurrent execution (or an earlier plan of the same batch), or a
// miss (the shard actually executed). Mem+Disk+Remote+Join+Miss equals
// the shard count; Miss equals Executed and the rest CacheHits. The
// JSON form is the run ledger's record field.
type TierCounts struct {
	Mem    int `json:"mem"`
	Disk   int `json:"disk"`
	Remote int `json:"remote,omitempty"`
	Join   int `json:"join,omitempty"`
	Miss   int `json:"miss"`
}

// Total returns the shard count the split accounts for.
func (t TierCounts) Total() int { return t.Mem + t.Disk + t.Remote + t.Join + t.Miss }

// add counts one cache hit answered by tier.
func (t *TierCounts) add(tier string) {
	switch tier {
	case TierMem:
		t.Mem++
	case TierDisk:
		t.Disk++
	case TierRemote:
		t.Remote++
	default:
		t.Join++
	}
}

// RunStats describes one plan's execution. Shard counts are unit-level: a
// split shard counts once in Shards/Executed/CacheHits; its declared
// and actually-run sub-shards are broken out in SubShards/SubExecuted.
// Tiers splits the same shards by answering tier.
type RunStats struct {
	Shards      int           // shards in the plan
	CacheHits   int           // shards served from the cache or a concurrent in-flight execution
	Executed    int           // shards this call actually ran
	SubShards   int           // sub-shards declared across the plan's split shards
	SubExecuted int           // sub-shards this call actually ran
	QueueWait   time.Duration // summed dispatch→execution wait across executed shards
	Wall        time.Duration // Execute: wall clock, merge included; ExecuteBatch: attributed compute
	Tiers       TierCounts
}

// LatencyStats is an always-on (count, total) latency aggregate — the
// cheap complement of the span recorder, maintained whether or not
// tracing is enabled so /v1/metrics can report queue dynamics and
// tier-attributed cache latency at all times.
type LatencyStats struct {
	Count uint64
	Total time.Duration
}

// Avg returns Total/Count, or 0 before any observation.
func (s LatencyStats) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Sub returns the aggregate accumulated between prev and s — both
// snapshots of the same monotone counter. A prev that is ahead of s
// (snapshots of different engines) yields a zero aggregate.
func (s LatencyStats) Sub(prev LatencyStats) LatencyStats {
	if prev.Count > s.Count || prev.Total > s.Total {
		return LatencyStats{}
	}
	return LatencyStats{Count: s.Count - prev.Count, Total: s.Total - prev.Total}
}

// latCounter is the lock-free accumulator behind LatencyStats.
type latCounter struct {
	count atomic.Uint64
	ns    atomic.Int64
}

func (l *latCounter) add(d time.Duration) {
	l.count.Add(1)
	l.ns.Add(int64(d))
}

func (l *latCounter) stats() LatencyStats {
	return LatencyStats{Count: l.count.Load(), Total: time.Duration(l.ns.Load())}
}

// Metrics are cumulative engine-lifetime counters plus a snapshot of
// both cache tiers. CacheHits/CacheMisses are the engine's run-level
// view (a hit from either tier counts once); Mem and Disk break the
// tiers out with their own entries/hits/misses/evictions.
type Metrics struct {
	Runs              uint64
	ShardsPlanned     uint64
	ShardsExecuted    uint64
	SubShardsPlanned  uint64 // sub-shards declared by split shards across all runs
	SubShardsExecuted uint64 // sub-shards actually run (cached subs and warm units excluded)
	CacheHits         uint64
	CacheMisses       uint64
	Errors            uint64
	TotalWall         time.Duration
	TotalShardTime    time.Duration
	Mem               CacheStats     // in-memory tier snapshot
	Disk              DiskCacheStats // disk tier snapshot (zero when none attached)

	// Queue dynamics and tier-attributed lookup latency, maintained
	// regardless of whether a span recorder is attached.
	QueueWait    LatencyStats // dispatch→execution wait per executed shard
	MemLookup    LatencyStats // lookups answered by the in-memory tier
	DiskLookup   LatencyStats // lookups answered by the persistent tier
	MissLookup   LatencyStats // lookups answered by neither tier
	RemoteLookup LatencyStats // shards answered by a fabric peer (count = remote hits)

	// RemoteErrors counts dispatches that exhausted the remote tier
	// (every attempted peer failed) and fell back to local execution.
	RemoteErrors uint64
}

// Sub returns the counter window accumulated between prev and m: the
// cumulative counters and latency aggregates subtracted, the cache-tier
// snapshots carried from m (tier entries/bytes are states, not
// counters). The run ledger uses this to attribute queue-wait and
// per-tier lookup latency to one run's lifetime.
func (m Metrics) Sub(prev Metrics) Metrics {
	out := m
	out.Runs -= min(prev.Runs, m.Runs)
	out.ShardsPlanned -= min(prev.ShardsPlanned, m.ShardsPlanned)
	out.ShardsExecuted -= min(prev.ShardsExecuted, m.ShardsExecuted)
	out.SubShardsPlanned -= min(prev.SubShardsPlanned, m.SubShardsPlanned)
	out.SubShardsExecuted -= min(prev.SubShardsExecuted, m.SubShardsExecuted)
	out.CacheHits -= min(prev.CacheHits, m.CacheHits)
	out.CacheMisses -= min(prev.CacheMisses, m.CacheMisses)
	out.Errors -= min(prev.Errors, m.Errors)
	if prev.TotalWall < m.TotalWall {
		out.TotalWall = m.TotalWall - prev.TotalWall
	} else {
		out.TotalWall = 0
	}
	if prev.TotalShardTime < m.TotalShardTime {
		out.TotalShardTime = m.TotalShardTime - prev.TotalShardTime
	} else {
		out.TotalShardTime = 0
	}
	out.QueueWait = m.QueueWait.Sub(prev.QueueWait)
	out.MemLookup = m.MemLookup.Sub(prev.MemLookup)
	out.DiskLookup = m.DiskLookup.Sub(prev.DiskLookup)
	out.MissLookup = m.MissLookup.Sub(prev.MissLookup)
	out.RemoteLookup = m.RemoteLookup.Sub(prev.RemoteLookup)
	out.RemoteErrors -= min(prev.RemoteErrors, m.RemoteErrors)
	return out
}

// RemoteRequest carries everything a remote tier needs to address one
// shard on a peer: the experiment id and the plan's Remote metadata
// (enough to rebuild the plan), plus the plan-level shard key and —
// when dispatching one unit of a declared split — the sub-shard key.
type RemoteRequest struct {
	Experiment string
	Meta       any    // Plan.Remote, opaque to the engine
	Shard      string // plan-level shard key
	Sub        string // sub-shard key; "" for a leaf or unit dispatch
}

// RemoteTier answers shard addresses from a peer fleet. Resolve is
// consulted in runOrJoin after the in-flight and cache re-checks and
// before a worker slot is taken, so remote resolutions never occupy
// the local pool. ok=false with a nil error means "execute locally"
// (the key hashes to this process, or the owning peer's circuit is
// open); a non-nil error means every attempted peer failed — the
// engine counts it and executes locally, so a degraded fleet is
// slower, never wrong. peer names the answering peer on success.
type RemoteTier interface {
	Resolve(key string, req RemoteRequest) (v any, peer string, ok bool, err error)
}

// Engine is a worker-pool scheduler with a shared result cache. Safe for
// concurrent use: the worker bound holds across concurrent Execute
// calls, and identical shards requested concurrently are computed once
// (the later request joins the in-flight execution).
type Engine struct {
	workers int
	cache   *Cache
	disk    *DiskCache // optional persistent tier under the LRU
	remote  RemoteTier // optional fabric tier between disk and execute
	sem     chan int   // engine-wide worker slots; the value is the slot id
	rec     *obs.Recorder

	// Always-on latency aggregates (see Metrics).
	queueWait  latCounter
	memLat     latCounter
	diskLat    latCounter
	missLat    latCounter
	remoteLat  latCounter
	remoteErrs atomic.Uint64

	ifmu     sync.Mutex
	inflight map[string]*inflightShard

	mu      sync.Mutex
	metrics Metrics
}

// inflightShard is one shard execution in progress; concurrent requests
// for the same key wait on done instead of recomputing.
type inflightShard struct {
	done chan struct{}
	val  any
	err  error
}

// DefaultCacheEntries bounds the shared shard cache when callers have no
// stronger opinion. A full `rowpress all` at one option set plans well
// under a thousand shards, so this holds several distinct sweeps.
const DefaultCacheEntries = 4096

// New returns an engine running at most workers shards concurrently with
// a cache of at most cacheEntries completed shards. workers <= 0 selects
// GOMAXPROCS; cacheEntries <= 0 selects DefaultCacheEntries.
func New(workers, cacheEntries int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cacheEntries <= 0 {
		cacheEntries = DefaultCacheEntries
	}
	e := &Engine{
		workers:  workers,
		cache:    NewCache(cacheEntries),
		sem:      make(chan int, workers),
		inflight: map[string]*inflightShard{},
	}
	for i := 0; i < workers; i++ {
		e.sem <- i
	}
	return e
}

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Cache exposes the engine's in-memory shard cache (for stats and
// purging).
func (e *Engine) Cache() *Cache { return e.cache }

// AttachDiskCache layers a persistent content-addressed store under the
// in-memory LRU: lookups fall through to it on a memory miss (promoting
// hits back into memory), and completed shards are written through to
// it. Attach before serving; the engine does not synchronize the swap
// against in-flight Executes.
func (e *Engine) AttachDiskCache(dc *DiskCache) { e.disk = dc }

// Disk returns the attached persistent tier, or nil.
func (e *Engine) Disk() *DiskCache { return e.disk }

// AttachRemote slots a fabric remote tier beneath the local cache
// tiers and above local execution: a shard that misses mem and disk is
// offered to the remote tier before it takes a worker slot. Only plans
// carrying Remote metadata are dispatched. Attach before serving; the
// engine does not synchronize the swap against in-flight Executes.
func (e *Engine) AttachRemote(r RemoteTier) { e.remote = r }

// SetRecorder attaches a span recorder: every subsequent shard
// lifecycle (queue wait, cache lookup, execute, merge, barrier) is
// recorded into it. nil detaches — the engine then pays only a
// pointer check per potential span. Attach before executing; the
// engine does not synchronize the swap against in-flight runs.
func (e *Engine) SetRecorder(r *obs.Recorder) { e.rec = r }

// Recorder returns the attached span recorder, or nil.
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Metrics returns a snapshot of the cumulative counters and both cache
// tiers.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	m := e.metrics
	e.mu.Unlock()
	m.Mem = e.cache.Stats()
	if e.disk != nil {
		m.Disk = e.disk.Stats()
	}
	m.QueueWait = e.queueWait.stats()
	m.MemLookup = e.memLat.stats()
	m.DiskLookup = e.diskLat.stats()
	m.MissLookup = e.missLat.stats()
	m.RemoteLookup = e.remoteLat.stats()
	m.RemoteErrors = e.remoteErrs.Load()
	return m
}

// tierGet looks key up in the memory tier and then the disk tier,
// promoting disk hits into memory so subsequent lookups stay hot.
// tier names the tier that answered ("" on a miss); lat is the lookup
// latency, also folded into the always-on per-tier aggregates.
func (e *Engine) tierGet(key string) (v any, tier string, lat time.Duration, ok bool) {
	t0 := time.Now()
	if v, ok := e.cache.Get(key); ok {
		lat = time.Since(t0)
		e.memLat.add(lat)
		return v, TierMem, lat, true
	}
	if e.disk != nil {
		if v, ok := e.disk.Get(key); ok {
			e.cache.Put(key, v)
			lat = time.Since(t0)
			e.diskLat.add(lat)
			return v, TierDisk, lat, true
		}
	}
	lat = time.Since(t0)
	e.missLat.add(lat)
	return nil, "", lat, false
}

// tierPut writes a completed shard payload to both tiers.
func (e *Engine) tierPut(key string, v any) {
	e.cache.Put(key, v)
	if e.disk != nil {
		e.disk.Put(key, v)
	}
}

// Execute runs one plan as a one-plan ExecuteBatch: cached shards are
// served from the memory tier (falling back to the disk and remote
// tiers when attached), the rest run on the worker pool, and Merge
// assembles the payloads in shard order into the result document. The
// first shard error (by shard index) aborts the run. RunStats.Wall is
// the call's wall clock, merge included.
func (e *Engine) Execute(p Plan) (*report.Doc, RunStats, error) {
	outs, stats, errs, bs := e.ExecuteBatch([]Plan{p})
	stats[0].Wall = bs.Wall
	return outs[0], stats[0], errs[0]
}

// BatchStats describes one ExecuteBatch call. Shard references are
// counted twice: ShardRefs is the plan-side view (every shard of every
// plan), while UniqueShards is the engine-side view after key
// deduplication — the most work the batch could possibly run.
type BatchStats struct {
	Plans        int
	ShardRefs    int // shards across all plans, duplicates included
	UniqueShards int // distinct shard keys in the batch
	Deduplicated int // refs beyond the first occurrence of their key
	CacheHits    int // unique shards served from the cache (or joined in-flight)
	Executed     int // unique shards this call actually ran
	SubExecuted  int // sub-shards this call actually ran, across all split shards
	QueueWait    time.Duration
	Wall         time.Duration
	Tiers        TierCounts // every plan's tier split summed: accounts for ShardRefs
}

// resolution is the outcome of resolving one shard or sub-shard address
// past the caller's cache lookup.
type resolution struct {
	val     any
	err     error
	ran     bool          // this call did the work (false: joined, cache re-check, or remote)
	worker  int           // pool slot that ran a leaf; -1 when joined, remote, or split
	queue   time.Duration // dispatch→execution wait (summed over sub-shards)
	wall    time.Duration // execution time (summed over sub-shards, gather included)
	subsRun int           // sub-shards this call ran
	peer    string        // answering fabric peer when resolved remotely
}

// batchShard is the shared slot for one unique shard key in a batch,
// owned by the first plan (and shard index) referencing it.
type batchShard struct {
	resolution
	key          string
	owner, index int
	tier         string // answering tier; "" when this batch ran the shard
}

// event is the owning plan's ShardEvent for the resolved slot.
func (sl *batchShard) event(s *Shard) ShardEvent {
	return ShardEvent{Index: sl.index, Key: s.Key, Cached: !sl.ran, Tier: sl.tier, Peer: sl.peer,
		Worker: sl.worker, Queue: sl.queue, Wall: sl.wall, Subs: len(s.Subs), SubsRun: sl.subsRun, Err: sl.err}
}

// ExecuteBatch is the engine's one execution core; Execute is the
// one-plan case. It runs many plans as one deduplicated unit of work:
// the union of all shard keys is computed up front, each unique shard
// is fetched from the cache tiers or executed exactly once on the
// worker pool, and every plan's Merge then assembles its report from
// the shared payloads. Plans are independent: a shard or merge failure
// poisons only the plans that reference it, reported per-plan in errs.
//
// Each plan's OnShard fires once per shard ref. The plan owning a key
// (its first reference) sees the real resolution: the answering tier
// and peer, or the worker, queue wait, wall, and sub-shard counts of the
// execution. A later ref to a key already resolved in this batch is
// reported Cached with Tier "join".
//
// Per-plan RunStats follow the same first-owner accounting: the owner
// records the shard's execution, and every later ref records a cache
// hit — so summing Executed over stats equals BatchStats.Executed, and
// each plan's CacheHits+Executed equals its shard count, exactly as if
// the plans had run sequentially through Execute. Tiers splits the
// same refs as the events do: an executed owner is a Miss, a cached
// owner counts under its answering tier, and a later ref is a Join.
// Per-plan Wall is the compute attributed to that plan (its owned
// shard time plus its merge), not batch wall clock.
func (e *Engine) ExecuteBatch(plans []Plan) (outs []*report.Doc, stats []RunStats, errs []error, bs BatchStats) {
	start := time.Now()
	bs.Plans = len(plans)
	outs = make([]*report.Doc, len(plans))
	stats = make([]RunStats, len(plans))
	errs = make([]error, len(plans))

	for pi := range plans {
		bs.ShardRefs += len(plans[pi].Shards)
	}
	// refs holds every plan's shard refs back to back, each pointing at
	// its key's slot in pool. pool never grows past its capacity, so
	// pointers into it stay valid.
	refs := make([]*batchShard, 0, bs.ShardRefs)
	pool := make([]batchShard, 0, bs.ShardRefs)
	slots := make(map[string]*batchShard, bs.ShardRefs)
	var missing []*batchShard
	for pi := range plans {
		p := &plans[pi]
		for si := range p.Shards {
			s := &p.Shards[si]
			k := Key(p.Experiment, p.Fingerprint, s.Key)
			if sl, ok := slots[k]; ok {
				refs = append(refs, sl)
				bs.Deduplicated++
				continue
			}
			pool = append(pool, batchShard{resolution: resolution{worker: -1}, key: k, owner: pi, index: si})
			sl := &pool[len(pool)-1]
			slots[k] = sl
			refs = append(refs, sl)
			v, tier, lat, ok := e.tierGet(k)
			if e.rec != nil {
				e.rec.Record(lookupKind(tier), -1, si, p.Experiment, s.Key, time.Now().Add(-lat), lat, 0)
			}
			if !ok {
				missing = append(missing, sl)
				continue
			}
			sl.val, sl.tier = v, tier
			if p.OnShard != nil {
				p.OnShard(sl.event(s))
			}
		}
	}
	bs.UniqueShards = len(slots)

	if len(missing) > 0 {
		barrierStart := time.Now()
		var wg sync.WaitGroup
		for _, sl := range missing {
			wg.Add(1)
			go func(sl *batchShard, enq time.Time) {
				defer wg.Done()
				p := &plans[sl.owner]
				s := &p.Shards[sl.index]
				sl.resolution = e.resolveShard(sl.key, *s, p.Experiment, p.Remote, sl.index, enq)
				if !sl.ran {
					sl.tier = TierJoin
					if sl.peer != "" {
						sl.tier = TierRemote
					}
				}
				if p.OnShard != nil {
					p.OnShard(sl.event(s))
				}
			}(sl, time.Now())
		}
		wg.Wait()
		if e.rec != nil {
			e.rec.Record(obs.Barrier, -1, -1, plans[0].Experiment, "", barrierStart, time.Since(barrierStart), 0)
		}
	}

	var shardTime time.Duration
	var subShards, failed int
	for pi := range plans {
		p, st := &plans[pi], &stats[pi]
		st.Shards = len(p.Shards)
		parts := make([]any, len(p.Shards))
		for si, sl := range refs[:st.Shards] {
			s := &p.Shards[si]
			st.SubShards += len(s.Subs)
			parts[si] = sl.val
			if sl.err != nil && errs[pi] == nil {
				errs[pi] = fmt.Errorf("engine: %s shard %q: %w", p.Experiment, s.Key, sl.err)
			}
			owned := sl.owner == pi && sl.index == si
			if owned && sl.ran {
				st.Executed++
				st.Tiers.Miss++
				st.SubExecuted += sl.subsRun
				st.QueueWait += sl.queue
				st.Wall += sl.wall
				continue
			}
			st.CacheHits++
			if owned {
				st.Tiers.add(sl.tier)
				continue
			}
			st.Tiers.Join++
			if p.OnShard != nil {
				p.OnShard(ShardEvent{Index: si, Key: s.Key, Cached: true, Tier: TierJoin, Worker: -1, Subs: len(s.Subs), Err: sl.err})
			}
		}
		refs = refs[st.Shards:]
		bs.Executed += st.Executed
		bs.SubExecuted += st.SubExecuted
		bs.QueueWait += st.QueueWait
		bs.Tiers.Mem += st.Tiers.Mem
		bs.Tiers.Disk += st.Tiers.Disk
		bs.Tiers.Remote += st.Tiers.Remote
		bs.Tiers.Join += st.Tiers.Join
		bs.Tiers.Miss += st.Tiers.Miss
		shardTime += st.Wall
		subShards += st.SubShards
		if errs[pi] == nil {
			t0 := time.Now()
			out, err := p.Merge(parts)
			if e.rec != nil {
				e.rec.Record(obs.Merge, -1, -1, p.Experiment, "", t0, time.Since(t0), 0)
			}
			st.Wall += time.Since(t0)
			if err != nil {
				errs[pi] = fmt.Errorf("engine: %s merge: %w", p.Experiment, err)
			} else {
				outs[pi] = out
			}
		}
		if errs[pi] != nil {
			failed++
		}
	}
	bs.CacheHits = bs.UniqueShards - bs.Executed
	bs.Wall = time.Since(start)

	e.mu.Lock()
	e.metrics.Runs += uint64(len(plans))
	e.metrics.ShardsPlanned += uint64(bs.ShardRefs)
	e.metrics.ShardsExecuted += uint64(bs.Executed)
	e.metrics.SubShardsPlanned += uint64(subShards)
	e.metrics.SubShardsExecuted += uint64(bs.SubExecuted)
	e.metrics.CacheHits += uint64(bs.ShardRefs - bs.Executed)
	e.metrics.CacheMisses += uint64(bs.Executed)
	e.metrics.Errors += uint64(failed)
	e.metrics.TotalWall += bs.Wall
	e.metrics.TotalShardTime += shardTime
	e.mu.Unlock()
	return outs, stats, errs, bs
}

// lookupKind maps a tierGet result onto its span kind.
func lookupKind(tier string) obs.Kind {
	switch tier {
	case TierMem:
		return obs.CacheMem
	case TierDisk:
		return obs.CacheDisk
	default:
		return obs.CacheMiss
	}
}

// resolveShard serves one missing plan shard: a leaf shard goes through
// runOrJoin directly; a shard with a declared split fans its sub-shards
// out on the pool and gathers. meta is the plan's Remote metadata; idx
// labels the recorded spans.
func (e *Engine) resolveShard(key string, s Shard, exp string, meta any, idx int, enq time.Time) resolution {
	if len(s.Subs) == 0 {
		return e.runOrJoin(key, s, exp, meta, s.Key, "", idx, enq)
	}
	return e.runSplit(key, s, exp, meta, idx, enq)
}

// SubKey derives a sub-shard's cache address from its parent shard's
// address and the sub key — content-addressed like Key, so the disk
// tier stores sub payloads under the same fixed-length names.
func SubKey(shardKey, subKey string) string {
	return Key(shardKey, "sub", subKey)
}

// claim registers the caller as key's executor and returns its
// in-flight slot, or — with a nil slot — resolves key without running
// it: by joining a concurrent in-flight execution, or from the memory
// tier when one completed after the caller's cache miss. An executor
// Puts its result before deregistering (see finish), so
// absent-from-inflight + present-in-cache is authoritative and the
// result must not be recomputed. peek keeps the hit/miss counters
// honest (the caller already recorded this lookup as a miss).
func (e *Engine) claim(key string) (*inflightShard, resolution) {
	r := resolution{worker: -1}
	e.ifmu.Lock()
	if c, ok := e.inflight[key]; ok {
		e.ifmu.Unlock()
		<-c.done
		r.val, r.err = c.val, c.err
		return nil, r
	}
	if v, ok := e.cache.peek(key); ok {
		e.ifmu.Unlock()
		r.val = v
		return nil, r
	}
	c := &inflightShard{done: make(chan struct{})}
	e.inflight[key] = c
	e.ifmu.Unlock()
	return c, r
}

// finish deregisters a claimed in-flight slot and releases its joiners.
func (e *Engine) finish(key string, c *inflightShard) {
	e.ifmu.Lock()
	delete(e.inflight, key)
	e.ifmu.Unlock()
	close(c.done)
}

// runSplit resolves a split shard: concurrent requests for the unit key
// join the in-flight gather exactly as runOrJoin joins a leaf, missing
// sub-shards run through runOrJoin — so they deduplicate, cache, and
// record spans individually — and Gather folds the payloads into the
// unit payload, cached under the unit key. The calling goroutine holds
// no worker slot while its sub-shards queue, so a split never deadlocks
// the pool, even at one worker; only sub-shard executions occupy slots.
// queue and wall are summed over the sub-shards this call ran (wall
// includes the gather). Sub-shards dispatch to the remote tier
// individually — each carries its own sub key — while the gather always
// runs locally.
func (e *Engine) runSplit(key string, s Shard, exp string, meta any, idx int, enq time.Time) resolution {
	c, r := e.claim(key)
	if c == nil {
		return r
	}
	defer e.finish(key, c)

	parts := make([]any, len(s.Subs))
	serrs := make([]error, len(s.Subs))
	var wg sync.WaitGroup
	var smu sync.Mutex
	for si, sub := range s.Subs {
		skey := SubKey(key, sub.Key)
		label := s.Key + "/" + sub.Key
		sv, tier, lat, ok := e.tierGet(skey)
		if e.rec != nil {
			e.rec.Record(lookupKind(tier), -1, idx, exp, label, time.Now().Add(-lat), lat, 0)
		}
		if ok {
			parts[si] = sv
			continue
		}
		wg.Add(1)
		go func(si int, sub SubShard, skey, label string) {
			defer wg.Done()
			sr := e.runOrJoin(skey, Shard{Key: label, Run: sub.Run, Type: sub.Type}, exp, meta, s.Key, sub.Key, idx, enq)
			smu.Lock()
			parts[si], serrs[si] = sr.val, sr.err
			r.queue += sr.queue
			r.wall += sr.wall
			if sr.ran {
				r.subsRun++
			}
			smu.Unlock()
		}(si, sub, skey, label)
	}
	wg.Wait()
	for si, serr := range serrs {
		if serr != nil {
			r.err = fmt.Errorf("sub-shard %q: %w", s.Subs[si].Key, serr)
			break
		}
	}
	if r.err == nil {
		t0 := time.Now()
		r.val, r.err = gatherShard(s, parts)
		r.wall += time.Since(t0)
		if r.err == nil {
			e.tierPut(key, r.val)
		}
	}
	c.val, c.err = r.val, r.err
	r.ran = true
	return r
}

// gatherShard isolates Gather panics the way runShard isolates Run's.
func gatherShard(s Shard, parts []any) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gather panic: %v", r)
		}
	}()
	if s.Gather == nil {
		return nil, fmt.Errorf("shard declares %d sub-shards but no Gather", len(s.Subs))
	}
	return s.Gather(parts)
}

// runOrJoin executes the shard under the engine-wide worker bound,
// deduplicating against concurrent executions of the same key: the first
// caller runs (and caches the result), later callers wait for it. ran
// reports whether this caller did the work; worker is the slot that
// carried it, queue the enq→execution wait, wall the execution time.
// exp and idx label the recorded spans.
//
// When a remote tier is attached and the plan carries Remote metadata,
// the shard is offered to the fabric after the in-flight registration
// and before a worker slot is taken: a remote answer (ran=false, peer
// set) fills the in-flight slot and both local cache tiers exactly as
// a local execution would, so concurrent requesters join it and warm
// runs stay local. An answer of another type than s.Type is a failed
// dispatch. Remote resolutions never hold a pool slot — a coordinator
// at one worker still fans a whole plan out to its peers.
func (e *Engine) runOrJoin(key string, s Shard, exp string, meta any, shardKey, subKey string, idx int, enq time.Time) resolution {
	c, r := e.claim(key)
	if c == nil {
		return r
	}
	defer e.finish(key, c)

	if e.remote != nil && meta != nil {
		t0 := time.Now()
		rv, peer, ok, rerr := e.remote.Resolve(key, RemoteRequest{Experiment: exp, Meta: meta, Shard: shardKey, Sub: subKey})
		if ok && rerr == nil && s.Type != nil && reflect.TypeOf(rv) != s.Type {
			ok, rerr = false, fmt.Errorf("engine: peer %s answered %q with a %T payload, want %v", peer, s.Key, rv, s.Type)
		}
		if ok && rerr == nil {
			rlat := time.Since(t0)
			e.remoteLat.add(rlat)
			e.tierPut(key, rv)
			if e.rec != nil {
				e.rec.Record(obs.RemoteDispatch, -1, idx, exp, s.Key, t0, rlat, payloadBytes(rv))
			}
			c.val = rv
			r.val, r.peer = rv, peer
			return r
		}
		if rerr != nil {
			// Every attempted peer failed: count it and execute locally —
			// a degraded fleet is slower, never wrong.
			e.remoteErrs.Add(1)
		}
	}

	r.worker = <-e.sem
	r.queue = time.Since(enq)
	e.queueWait.add(r.queue)
	if e.rec != nil {
		e.rec.Record(obs.QueueWait, r.worker, idx, exp, s.Key, enq, r.queue, 0)
	}
	t0 := time.Now()
	c.val, c.err = runShard(s)
	r.wall = time.Since(t0)
	e.sem <- r.worker
	if c.err == nil {
		e.tierPut(key, c.val)
	}
	if e.rec != nil {
		var size int64
		if c.err == nil {
			size = payloadBytes(c.val)
		}
		e.rec.Record(obs.Execute, r.worker, idx, exp, s.Key, t0, r.wall, size)
	}
	r.val, r.err, r.ran = c.val, c.err, true
	return r
}

// ResolveLocal serves one shard address on behalf of a fabric
// coordinator: local cache tiers first, then execution on this
// engine's pool, with full single-flight dedup against concurrent
// local runs and other dispatches of the same key. The plan metadata
// is never consulted — a peer answers purely from its own tiers and
// workers and never re-dispatches, so fabric topologies cannot form
// forwarding loops. tier names the answering tier ("" when this call
// executed the shard); executions and hits land in the engine's
// cumulative metrics so a warm fleet is checkable per daemon.
func (e *Engine) ResolveLocal(key string, s Shard, exp string) (v any, tier string, err error) {
	enq := time.Now()
	v, tier, lat, ok := e.tierGet(key)
	if e.rec != nil {
		e.rec.Record(lookupKind(tier), -1, -1, exp, s.Key, time.Now().Add(-lat), lat, 0)
	}
	if ok {
		e.mu.Lock()
		e.metrics.CacheHits++
		e.mu.Unlock()
		return v, tier, nil
	}

	r := e.resolveShard(key, s, exp, nil, -1, enq)
	if !r.ran {
		tier = TierJoin
	}
	e.mu.Lock()
	if r.ran {
		e.metrics.ShardsExecuted++
		e.metrics.CacheMisses++
		e.metrics.SubShardsExecuted += uint64(r.subsRun)
		e.metrics.TotalShardTime += r.wall
	} else {
		e.metrics.CacheHits++
	}
	if r.err != nil {
		e.metrics.Errors++
	}
	e.mu.Unlock()
	return r.val, tier, r.err
}

// countWriter counts bytes written through it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// payloadBytes sizes a shard payload by gob-encoding it into a
// counting writer — the same codec (and type registry) the disk tier
// uses, so the number matches what a distributed shard fabric would
// move. Unregistered payload types size as 0. Only called when a span
// recorder is attached, and after the execute interval is measured,
// so the encoding cost never distorts span timings.
func payloadBytes(v any) int64 {
	var cw countWriter
	if err := gob.NewEncoder(&cw).Encode(&diskPayload{V: v}); err != nil {
		return 0
	}
	return cw.n
}

// runShard isolates shard panics so a bad regenerator cannot take down a
// serving daemon.
func runShard(s Shard) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard panic: %v", r)
		}
	}()
	return s.Run()
}
