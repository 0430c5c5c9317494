package engine

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// DiskCache is the persistent warm-start tier: a content-addressed
// on-disk store of completed shard payloads, layered under the
// in-memory LRU via Engine.AttachDiskCache. A restarted daemon pointed
// at the same directory answers previously computed runs without
// executing a single shard.
//
// Layout: one gob-encoded file per shard key (the key is already a
// SHA-256 hex digest, so it is a safe filename) plus an index.json with
// per-entry sizes and LRU clocks. The store is corruption-tolerant by
// construction: a file that fails to decode is deleted and reported as
// a miss, a missing or mangled index is rebuilt by scanning the
// directory, and writes go through a temp file + rename so a crash
// never leaves a half-written payload under a live key.
//
// Payloads are encoded as gob `any` values, so every concrete payload
// type must be registered with RegisterPayloadType (core's shard-plan
// builders register the types they carry whenever they build a plan).
// A Put whose payload has an unregistered type is skipped — the entry
// just stays memory-only.
type DiskCache struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*diskEntry
	seq     uint64 // LRU clock: larger = more recently used
	bytes   int64

	hits, misses, evictions, writes, corrupt, skips, writeErrors uint64
}

type diskEntry struct {
	Size int64  `json:"size"`
	Seq  uint64 `json:"seq"`
}

// DiskCacheStats is a snapshot of the persistent tier.
type DiskCacheStats struct {
	Entries     int
	Bytes       int64
	MaxBytes    int64
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Writes      uint64
	Corrupt     uint64 // unreadable payload files dropped on load
	Skips       uint64 // Puts skipped (unregistered payload type)
	WriteErrors uint64 // Puts lost to I/O failures (disk full, permissions)
}

// DefaultDiskCacheBytes bounds the persistent tier when callers have no
// stronger opinion: enough for many full `rowpress all` option sets.
const DefaultDiskCacheBytes int64 = 256 << 20

// diskPayload is the gob envelope; the indirection lets one decoder
// recover any registered concrete payload type.
type diskPayload struct {
	V any
}

// RegisterPayloadType registers a shard payload's concrete type with
// the payload codec. It is idempotent, so plan builders call it each
// time they build a plan: registration then always precedes the first
// encode or decode at one of the plan's keys.
func RegisterPayloadType(v any) { gob.Register(v) }

// EncodePayload writes v in the payload wire format shared by the disk
// tier and the shard fabric: the gob envelope that lets one decoder
// recover any registered concrete type. Peers on the same build are
// byte-compatible by construction.
func EncodePayload(w io.Writer, v any) error {
	return gob.NewEncoder(w).Encode(&diskPayload{V: v})
}

// DecodePayload reads one payload written by EncodePayload.
func DecodePayload(r io.Reader) (any, error) {
	var p diskPayload
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	return p.V, nil
}

// OpenDiskCache opens (creating if needed) the store rooted at dir,
// bounded to maxBytes of payload data (<= 0 selects
// DefaultDiskCacheBytes). The index is loaded when present and
// consistent; otherwise the directory scan is authoritative.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskCacheBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk cache: %w", err)
	}
	dc := &DiskCache{dir: dir, maxBytes: maxBytes, entries: map[string]*diskEntry{}}
	dc.load()
	return dc, nil
}

// Dir returns the store's root directory.
func (dc *DiskCache) Dir() string { return dc.dir }

const diskIndexName = "index.json"

func (dc *DiskCache) payloadPath(key string) string {
	return filepath.Join(dc.dir, key+".gob")
}

// load populates the index from disk: the directory scan is the source
// of truth for which entries exist and how big they are; index.json
// only contributes recency clocks (so LRU order survives restarts).
// Any failure degrades to "fewer warm entries", never to an error.
func (dc *DiskCache) load() {
	saved := map[string]*diskEntry{}
	if b, err := os.ReadFile(filepath.Join(dc.dir, diskIndexName)); err == nil {
		// A mangled index is ignored wholesale; the scan below rebuilds it.
		_ = json.Unmarshal(b, &saved)
	}
	names, err := os.ReadDir(dc.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		// Orphaned temp files from a crash between CreateTemp and rename
		// would otherwise accumulate outside the byte bound forever.
		if strings.HasPrefix(name, "put-") || (strings.HasPrefix(name, "index-") && name != diskIndexName) {
			_ = os.Remove(filepath.Join(dc.dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".gob") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		key := strings.TrimSuffix(name, ".gob")
		e := &diskEntry{Size: info.Size()}
		if s, ok := saved[key]; ok {
			e.Seq = s.Seq
		}
		if e.Seq > dc.seq {
			dc.seq = e.Seq
		}
		dc.entries[key] = e
		dc.bytes += e.Size
	}
	dc.evictLocked()
}

// Get returns the payload stored under key. Decode failures delete the
// offending file and report a miss, so one corrupt entry costs one
// recomputation, not a wedged store.
func (dc *DiskCache) Get(key string) (any, bool) {
	dc.mu.Lock()
	e, ok := dc.entries[key]
	if !ok {
		dc.misses++
		dc.mu.Unlock()
		return nil, false
	}
	dc.seq++
	e.Seq = dc.seq
	dc.mu.Unlock()

	b, err := os.ReadFile(dc.payloadPath(key))
	var p diskPayload
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(b)).Decode(&p)
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if err != nil {
		dc.corrupt++
		dc.misses++
		dc.dropLocked(key)
		return nil, false
	}
	dc.hits++
	return p.V, true
}

// Put stores the payload under key, evicting least-recently-used
// entries while the store exceeds its byte bound. Unencodable payloads
// (unregistered types) are skipped silently.
func (dc *DiskCache) Put(key string, val any) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(diskPayload{V: val}); err != nil {
		dc.mu.Lock()
		dc.skips++
		dc.mu.Unlock()
		return
	}
	// An I/O failure (disk full, permissions) degrades the entry to
	// memory-only, but is counted so operators see persistence stalling
	// instead of a silently cold next restart.
	tmp, err := os.CreateTemp(dc.dir, "put-*")
	if err != nil {
		dc.mu.Lock()
		dc.writeErrors++
		dc.mu.Unlock()
		return
	}
	_, werr := tmp.Write(buf.Bytes())
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), dc.payloadPath(key)) != nil {
		_ = os.Remove(tmp.Name())
		dc.mu.Lock()
		dc.writeErrors++
		dc.mu.Unlock()
		return
	}

	dc.mu.Lock()
	defer dc.mu.Unlock()
	if old, ok := dc.entries[key]; ok {
		dc.bytes -= old.Size
	}
	dc.seq++
	dc.entries[key] = &diskEntry{Size: int64(buf.Len()), Seq: dc.seq}
	dc.bytes += int64(buf.Len())
	dc.writes++
	dc.evictLocked()
}

// dropLocked removes one entry and its file. Caller holds mu.
func (dc *DiskCache) dropLocked(key string) {
	if e, ok := dc.entries[key]; ok {
		dc.bytes -= e.Size
		delete(dc.entries, key)
	}
	_ = os.Remove(dc.payloadPath(key))
}

// evictLocked enforces the byte bound by dropping least-recently-used
// entries. Caller holds mu. Entry counts are small (thousands), so a
// linear minimum scan per eviction is cheaper than maintaining a heap.
func (dc *DiskCache) evictLocked() {
	for dc.bytes > dc.maxBytes && len(dc.entries) > 0 {
		var oldestKey string
		var oldestSeq uint64
		first := true
		//lint:ignore rowpressvet/maprange Seq is a strictly increasing LRU clock, so the minimum is unique and the scan's visit order cannot change the victim; eviction affects cache retention only, never report bytes
		for k, e := range dc.entries {
			if first || e.Seq < oldestSeq {
				oldestKey, oldestSeq, first = k, e.Seq, false
			}
		}
		dc.dropLocked(oldestKey)
		dc.evictions++
	}
}

// Flush persists the index (entry sizes and LRU clocks) atomically.
// Payload files are durable as soon as Put returns; flushing only
// preserves recency order across restarts, so a crash between flushes
// costs eviction-order fidelity, not data.
func (dc *DiskCache) Flush() error {
	dc.mu.Lock()
	b, err := json.MarshalIndent(dc.entries, "", " ")
	dc.mu.Unlock()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dc.dir, "index-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dc.dir, diskIndexName))
}

// Stats returns a snapshot of the tier.
func (dc *DiskCache) Stats() DiskCacheStats {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return DiskCacheStats{
		Entries:     len(dc.entries),
		Bytes:       dc.bytes,
		MaxBytes:    dc.maxBytes,
		Hits:        dc.hits,
		Misses:      dc.misses,
		Evictions:   dc.evictions,
		Writes:      dc.writes,
		Corrupt:     dc.corrupt,
		Skips:       dc.skips,
		WriteErrors: dc.writeErrors,
	}
}
