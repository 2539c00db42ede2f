// Package assesscache memoises two-phase trust assessments on the serving
// hot path. A TypeAssess request over an unchanged history is the common
// case in steady state — clients re-check a server far more often than the
// server transacts — yet the seed served every request by re-running the
// full behaviour test over the whole record list. The cache turns that into
// an O(1) lookup, in the same spirit as the paper's Scheme-2 incremental
// statistics: never recompute what an unchanged history already decided.
//
// Entries are keyed by (server, threshold) and stamped with the store's
// per-server version counter. A hit requires the stamped version to equal
// the store's current version, so any accepted write — which bumps the
// counter — invalidates every cached assessment of that server without the
// store and cache ever needing to talk to each other. Capacity is bounded
// by an LRU policy.
//
// Deprecated: no node serves from it (ADR 0016's amendment); the benchmark's
// traced replay is its one importer.
package assesscache

import (
	"container/list"
	"sync"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
)

// DefaultCapacity bounds the cache when the caller passes no capacity.
const DefaultCapacity = 4096

// Result is one memoised assessment outcome: the full assessment plus the
// accept decision for the keyed threshold.
type Result struct {
	Assessment core.Assessment
	Accept     bool
}

// Stats exposes cache counters. Invalidation counts stale entries dropped
// because the server's history changed; those lookups also count as misses.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Size          int    `json:"size"`
}

type key struct {
	server    feedback.EntityID
	threshold float64
}

type cacheEntry struct {
	key     key
	version uint64
	res     Result
}

// Cache is a bounded LRU of assessment results. It is safe for concurrent
// use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	byKey   map[key]*list.Element
	lru     *list.List // front = most recently used
	hits    uint64
	misses  uint64
	evicted uint64
	staled  uint64
}

// New returns a cache holding at most capacity entries; capacity < 1 means
// DefaultCapacity.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:   capacity,
		byKey: make(map[key]*list.Element, capacity),
		lru:   list.New(),
	}
}

// Get returns the cached result for (server, threshold) if it was computed
// at exactly the given store version. A version mismatch drops the stale
// entry and reports a miss — this is how a write to the store invalidates
// the cache.
func (c *Cache) Get(server feedback.EntityID, version uint64, threshold float64) (Result, bool) {
	k := key{server: server, threshold: threshold}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return Result{}, false
	}
	ce := el.Value.(*cacheEntry)
	if ce.version != version {
		c.lru.Remove(el)
		delete(c.byKey, k)
		c.staled++
		c.misses++
		return Result{}, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return ce.res, true
}

// Put stores the result computed for (server, threshold) at the given store
// version, replacing any previous entry for the key and evicting the least
// recently used entry when over capacity.
func (c *Cache) Put(server feedback.EntityID, version uint64, threshold float64, res Result) {
	k := key{server: server, threshold: threshold}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		ce := el.Value.(*cacheEntry)
		ce.version = version
		ce.res = res
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[k] = c.lru.PushFront(&cacheEntry{key: k, version: version, res: res})
	if c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evicted++
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evicted,
		Invalidations: c.staled,
		Size:          c.lru.Len(),
	}
}
