// Package ledger is the persistent run ledger: an append-only,
// corruption-tolerant, size-bounded NDJSON store of one versioned
// record per completed run, sweep, or load test. It is the sibling of
// engine.DiskCache one layer up — the disk cache makes *payloads*
// survive a restart, the ledger makes the *trajectory* survive: what
// ran, with which options, how long it took, which cache tier answered
// each shard, and what the result document hashed to. On top of the
// store, Compare and HistoryDoc turn any two records (or the whole
// history) into benchstat-style delta documents with regression flags
// and a hard determinism check, so cross-run comparability is a
// first-class deliverable of the reproduction, mirroring the RowPress
// artifact's machine-readable dataset practice.
//
// Durability contract:
//
//   - Appends are a single write of one newline-terminated JSON line
//     under a mutex, so concurrent appenders never interleave bytes
//     and a crash can truncate at most the final line.
//   - Load skips, never fails on, a truncated final line, an
//     unparseable line, a record with unknown fields (a newer schema),
//     or an unknown Version — each skip is counted in Stats.Skipped.
//   - The store is size-bounded: when an append pushes the file past
//     its byte bound, the oldest records are pruned down to a low-water
//     mark (¾ of the bound) and the file is compacted through a
//     temp-file + rename, so a crash mid-compact never loses the live
//     ledger, and a full ledger rewrites itself once per batch of
//     appends rather than on every append.
//
// A ledger opened without a directory is memory-only: the same records,
// queries and pruning, bounded by record count, with no file and no
// encoding at all — not even the document hash, which is computed only
// for a line written to disk. It is the run history of a daemon started
// without -ledger-dir.
package ledger

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/report"
)

// RecordVersion is the schema version stamped into every record.
// Records carrying any other version are skipped on load (counted, not
// fatal), so a downgrade never misreads a newer schema.
const RecordVersion = 1

// Record kinds.
const (
	KindRun      = "run"
	KindSweep    = "sweep"
	KindLoadTest = "loadtest"
)

// Latency is a (count, total) latency aggregate in milliseconds — the
// wire form of engine.LatencyStats.
type Latency struct {
	Count   uint64  `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// Profile is the worker-utilization / critical-path / Amdahl summary
// from obs.Analyze, present only when the run was traced.
type Profile struct {
	Workers         int     `json:"workers"`
	ExecutedShards  int     `json:"executed_shards"`
	TotalExecMS     float64 `json:"total_exec_ms"`
	CriticalPathMS  float64 `json:"critical_path_ms"`
	SerialFraction  float64 `json:"serial_fraction"`
	MaxSpeedup      float64 `json:"max_speedup"`
	MeanUtilization float64 `json:"mean_utilization"`
}

// LoadStats is the serving-path load-test view: client-observed
// latency quantiles over the run's request window next to the
// server-reported quantiles for the same window (derived from
// /v1/metrics histogram-bucket deltas), so the client/server skew is
// computed once, in the record, instead of eyeballed across outputs.
type LoadStats struct {
	Target        string   `json:"target"`
	Mix           []string `json:"mix"`
	Clients       int      `json:"clients"`
	Requests      int      `json:"requests"`
	Errors        int      `json:"errors"`
	DurationMS    float64  `json:"duration_ms"`
	ThroughputRPS float64  `json:"throughput_rps"`

	ClientP50MS  float64 `json:"client_p50_ms"`
	ClientP95MS  float64 `json:"client_p95_ms"`
	ClientP99MS  float64 `json:"client_p99_ms"`
	ClientMeanMS float64 `json:"client_mean_ms"`
	ClientMaxMS  float64 `json:"client_max_ms"`

	// Server-side quantiles for the same request window, and the skew
	// (client minus server) the network + client stack added. Absent
	// (zero) when the server did not expose histogram buckets.
	ServerWindow bool    `json:"server_window"`
	ServerP50MS  float64 `json:"server_p50_ms"`
	ServerP99MS  float64 `json:"server_p99_ms"`
	SkewP50MS    float64 `json:"skew_p50_ms"`
	SkewP99MS    float64 `json:"skew_p99_ms"`

	// Fabric topology for the same window, from the target's server-view
	// metrics delta: how many peers the daemon dispatched to, and how
	// the test's shard work split between peer answers and local
	// execution. All zero against a daemon without fabric metrics, so
	// `rowpress compare` shows the 1-node vs N-node trajectory.
	Peers          int    `json:"peers,omitempty"`
	RemoteExecuted uint64 `json:"remote_executed,omitempty"`
	LocalExecuted  uint64 `json:"local_executed,omitempty"`
}

// Record is one versioned ledger entry: the durable identity of a
// completed run, sweep, or load test.
type Record struct {
	Version     int       `json:"version"`
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	Experiment  string    `json:"experiment"`
	OptionsHash string    `json:"options_hash"`
	DocHash     string    `json:"doc_hash,omitempty"`
	Error       string    `json:"error,omitempty"`
	CompletedAt time.Time `json:"completed_at"`

	// Docs are the result documents the record identifies (one for a
	// run, one per point for a sweep, nil points marking failures).
	// Append hashes them into DocHash (see DocsHash) when it writes the
	// record to disk, and never stores them.
	Docs []*report.Doc `json:"-"`

	WallMS float64 `json:"wall_ms"`
	Shards int     `json:"shards"`
	// Workers is the engine pool size the run executed on; SubShards is
	// the number of declared sub-shards that actually ran (zero when
	// every split unit was answered from cache or the plan had no
	// splits). Both are omitted from records written before the
	// sub-shard planning layer existed.
	Workers   int `json:"workers,omitempty"`
	SubShards int `json:"sub_shards,omitempty"`
	// Peers is the configured fabric peer count on the serving daemon
	// (0 for a single-process run); RemoteLookup is the dispatch
	// latency window for shards answered by those peers.
	Peers        int               `json:"peers,omitempty"`
	Tiers        engine.TierCounts `json:"tiers"`
	QueueWait    Latency           `json:"queue_wait"`
	MemLookup    Latency           `json:"mem_lookup"`
	DiskLookup   Latency           `json:"disk_lookup"`
	MissLookup   Latency           `json:"miss_lookup"`
	RemoteLookup Latency           `json:"remote_lookup,omitzero"`

	Profile *Profile   `json:"profile,omitempty"`
	Load    *LoadStats `json:"load,omitempty"`
}

// DefaultMaxBytes bounds the ledger file when callers have no stronger
// opinion: records are a few hundred bytes, so this holds tens of
// thousands of runs.
const DefaultMaxBytes int64 = 8 << 20

// MemoryRecords bounds a memory-only ledger by record count. Pruning
// to ¾ of it, as the file does, keeps the 256 newest records.
const MemoryRecords = 256 * 4 / 3

// Stats is a snapshot of the store.
type Stats struct {
	Records int
	Bytes   int64  // NDJSON bytes on disk; 0 for a memory-only ledger
	Skipped int    // unreadable lines dropped on load
	Pruned  uint64 // records evicted by the size bound
	Appends uint64
}

// Ledger is the store. Safe for concurrent use.
type Ledger struct {
	path  string // "" for a memory-only ledger
	bound int64  // NDJSON bytes on disk, or records in memory

	mu      sync.Mutex
	f       *os.File
	records []Record // oldest first
	sizes   []int64  // per record: encoded line length on disk, 1 in memory
	used    int64    // sum of sizes, including skipped lines still on disk
	skipped int
	pruned  uint64
	appends uint64
	seq     uint64
}

// FileName is the ledger's on-disk name within its directory.
const FileName = "ledger.ndjson"

// Open opens (creating if needed) the ledger rooted at dir, bounded to
// maxBytes of NDJSON (<= 0 selects DefaultMaxBytes). Unreadable lines
// are skipped and counted; they are dropped from disk at the next
// compaction, not eagerly. An empty dir opens a memory-only ledger
// bounded to MemoryRecords records; maxBytes is then unused.
func Open(dir string, maxBytes int64) (*Ledger, error) {
	if dir == "" {
		// Sized once: pruning compacts in place, so the arrays never grow.
		return &Ledger{
			bound:   MemoryRecords,
			records: make([]Record, 0, MemoryRecords+1),
			sizes:   make([]int64, 0, MemoryRecords+1),
		}, nil
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := &Ledger{path: filepath.Join(dir, FileName), bound: maxBytes}
	unterminated, err := l.load()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l.f = f
	// A crash can leave the final line without its newline. Terminate it
	// now, or the next append would glue onto the partial record and be
	// corrupted with it.
	if unterminated {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("ledger: %w", err)
		}
		l.used++
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.used > l.bound {
		if err := l.pruneLocked(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Path returns the ledger file's path, "" for a memory-only ledger.
func (l *Ledger) Path() string { return l.path }

// maxLine bounds the bytes of one line held in memory on load. A
// longer line is read through, skipped, and counted like any other
// unreadable line, so the records after it still load.
const maxLine = 4 << 20

// load reads every parseable record; anything else is skipped. It
// reports whether the file's final line lacks its newline.
func (l *Ledger) load() (unterminated bool, err error) {
	f, err := os.Open(l.path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var line []byte
	var size int64 // the line's bytes on disk, newline included
	for {
		chunk, err := br.ReadSlice('\n')
		size += int64(len(chunk))
		if len(line) <= maxLine {
			line = append(line, chunk...)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if size > 0 {
			l.loadLine(line, size)
		}
		if err == io.EOF {
			return size > 0, nil
		}
		if err != nil {
			// An unreadable remainder degrades like a truncated line.
			l.skipped++
			return true, nil
		}
		line, size = line[:0], 0
	}
}

// loadLine keeps one line's record or counts the line as skipped. A
// truncated final line lands here too and is skipped.
func (l *Ledger) loadLine(line []byte, size int64) {
	l.used += size // a skipped line stays on disk until the next compaction
	var r Record
	dec := json.NewDecoder(bytes.NewReader(line))
	// Unknown fields mean a newer schema wrote this line; Version
	// catches older readers of renamed-but-compatible shapes. Either
	// way the record is skipped, never fatal.
	dec.DisallowUnknownFields()
	if len(line) > maxLine || dec.Decode(&r) != nil || r.Version != RecordVersion {
		l.skipped++
		return
	}
	l.records = append(l.records, r)
	l.sizes = append(l.sizes, size)
}

// pid is this process's id, a component of every record id it stamps.
var pid = os.Getpid()

// newIDLocked derives a readable, sortable, collision-resistant record
// id from the completion time and a per-process sequence: the
// timestamp orders ids across processes, the hash suffix of
// "nanos|pid|seq" separates processes stamping within the same second.
func (l *Ledger) newIDLocked(at time.Time) string {
	l.seq++
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], at.UnixNano(), 10)
	b = strconv.AppendInt(append(b, '|'), int64(pid), 10)
	b = strconv.AppendUint(append(b, '|'), l.seq, 10)
	h := sha256.Sum256(b)
	b = at.UTC().AppendFormat(b[:0], "20060102T150405")
	return string(hex.AppendEncode(append(b, '-'), h[:3]))
}

// Append stamps the record into the ledger and returns it with its
// assigned ID (when empty) and Version. CompletedAt is defaulted to
// now. On disk the write is one line, carrying the hash of the
// record's Docs; in memory nothing is encoded or hashed. If the
// append pushes the ledger past its bound, the oldest records are
// pruned (and the file compacted).
func (l *Ledger) Append(r Record) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.Version = RecordVersion
	if r.CompletedAt.IsZero() {
		r.CompletedAt = time.Now().UTC()
	}
	r.CompletedAt = r.CompletedAt.UTC().Truncate(time.Millisecond)
	if r.ID == "" {
		r.ID = l.newIDLocked(r.CompletedAt)
	}
	size := int64(1)
	if l.path != "" {
		if r.Docs != nil {
			r.DocHash = DocsHash(r.Docs)
		}
		b, err := json.Marshal(r)
		if err != nil {
			return r, fmt.Errorf("ledger: encode: %w", err)
		}
		b = append(b, '\n')
		if _, err := l.f.Write(b); err != nil {
			return r, fmt.Errorf("ledger: append: %w", err)
		}
		size = int64(len(b))
	}
	r.Docs = nil
	l.records = append(l.records, r)
	l.sizes = append(l.sizes, size)
	l.used += size
	l.appends++
	if l.used > l.bound {
		if err := l.pruneLocked(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// pruneLocked drops the oldest records until the live set fits the
// low-water mark, ¾ of the bound, then rewrites the file atomically.
// Pruning below the bound, not just to it, leaves room for the next
// appends: a full ledger would otherwise prune one record and rewrite
// the whole file on every append, holding mu while it does. Caller
// holds mu.
func (l *Ledger) pruneLocked() error {
	var live int64
	for _, s := range l.sizes {
		live += s
	}
	lowWater := l.bound - l.bound/4
	drop := 0
	// Always keep the newest record, even if alone it exceeds the bound.
	for live > lowWater && drop < len(l.records)-1 {
		live -= l.sizes[drop]
		drop++
	}
	l.pruned += uint64(drop)
	// Compact in place: the arrays are reused, so a full ledger prunes
	// without allocating, and the vacated slots are cleared so they keep
	// nothing the dropped records referenced alive.
	n := copy(l.records, l.records[drop:])
	clear(l.records[n:])
	l.records = l.records[:n]
	l.sizes = l.sizes[:copy(l.sizes, l.sizes[drop:])]
	if l.path == "" {
		l.used = live
		return nil
	}

	tmp, err := os.CreateTemp(filepath.Dir(l.path), "ledger-*")
	if err != nil {
		return fmt.Errorf("ledger: compact: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, r := range l.records {
		b, err := json.Marshal(r)
		if err == nil {
			w.Write(b)
			w.WriteByte('\n')
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("ledger: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ledger: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ledger: compact: %w", err)
	}
	// Reopen the append handle on the new inode; the old one points at
	// the unlinked pre-compaction file.
	if l.f != nil {
		l.f.Close()
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: compact: %w", err)
	}
	l.f = f
	l.used = live
	return nil
}

// Close flushes nothing (appends are synchronous) and releases the
// file handle; on a memory-only ledger it does nothing.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Stats returns a snapshot of the store.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Records: len(l.records),
		Skipped: l.skipped,
		Pruned:  l.pruned,
		Appends: l.appends,
	}
	if l.path != "" {
		st.Bytes = l.used
	}
	return st
}

// Query filters history lookups. Zero values match everything.
type Query struct {
	Experiment string
	Kind       string
	Limit      int // max records returned, newest first; <= 0 = all
}

// Records returns matching records newest-first.
func (l *Ledger) Records(q Query) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	for i := len(l.records) - 1; i >= 0; i-- {
		r := l.records[i]
		if q.Experiment != "" && r.Experiment != q.Experiment {
			continue
		}
		if q.Kind != "" && r.Kind != q.Kind {
			continue
		}
		out = append(out, r)
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out
}

// Get returns the record with the given id.
func (l *Ledger) Get(id string) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.records) - 1; i >= 0; i-- {
		if l.records[i].ID == id {
			return l.records[i], true
		}
	}
	return Record{}, false
}

// DocsHash content-addresses an ordered document set: the SHA-256
// over the concatenated canonical JSON encodings, with nil points
// (failed sweep points) marked so failure position changes the hash.
// A single document hashes to the SHA-256 of its own encoding. Equal
// documents hash equal, so two runs of the same options must produce
// the same hash — the determinism invariant Compare enforces.
func DocsHash(docs []*report.Doc) string {
	h := sha256.New()
	for _, d := range docs {
		if d == nil {
			h.Write([]byte("\x00nil\x00"))
			continue
		}
		b, err := report.JSON(d)
		if err != nil {
			h.Write([]byte("\x00unhashable\x00"))
			continue
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashJSON canonically addresses any JSON-encodable value under a
// domain prefix — the ledger's options hash for non-run records
// (sweep specs, load-test configs).
func HashJSON(prefix string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unhashable"
	}
	h := sha256.Sum256(append([]byte(prefix+"\x1f"), b...))
	return hex.EncodeToString(h[:])
}
