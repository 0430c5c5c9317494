package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
)

// Key derives the content address of a shard result: the SHA-256 of the
// (experiment, fingerprint, shard key) triple. Components are joined with
// an unambiguous separator so no two distinct triples collide.
func Key(parts ...string) string {
	h := sha256.Sum256([]byte(strings.Join(parts, "\x1f")))
	return hex.EncodeToString(h[:])
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Entries   int
	Evictions uint64
}

// HitRate returns hits / (hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a bounded, content-addressed, in-memory store of completed
// shard payloads with LRU eviction. Safe for concurrent use. Payloads are
// shared by reference: callers must treat them as immutable.
type Cache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key string
	val any
}

// NewCache returns a cache holding at most capEntries payloads.
func NewCache(capEntries int) *Cache {
	if capEntries < 1 {
		capEntries = 1
	}
	return &Cache{cap: capEntries, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the payload stored under key, marking it recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// peek returns the payload stored under key without touching the
// hit/miss counters or recency — for internal re-checks that already
// recorded their lookup via Get.
func (c *Cache) peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).val, true
}

// Put stores the payload under key, evicting the least recently used
// entry if the cache is full.
func (c *Cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Evictions: c.evictions}
}
