package ioengine

import (
	"container/list"
	"sync"
)

const cacheShards = 8

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	// Hits counts Get calls that found an entry.
	Hits int64
	// Misses counts Get calls that did not.
	Misses int64
	// Evictions counts entries dropped to stay under budget.
	Evictions int64
	// Bytes is the sum of resident entry sizes.
	Bytes int64
	// Entries is the resident entry count.
	Entries int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a sharded LRU byte-slice cache with a total byte budget.
// A budget <= 0 means unbounded. Values are shared, not copied: callers
// must treat returned slices as read-only.
//
// Concurrency contract: the cache is safe for concurrent use from any
// goroutine — each shard is guarded by its own mutex, and the counters
// live under the same locks, so Stats is always a coherent snapshot.
// Determinism of the counter *values*, however, is a property of the
// caller: the simulation keeps every Get/Put on the kernel thread, in
// event order (data-plane closures never touch the cache — see the sim
// package's two-plane contract), which is what keeps hit/miss counts
// and the Prometheus export byte-identical run to run. Callers outside
// a kernel get thread safety, not reproducible counter interleavings.
// Both properties are exercised under -race in concurrency_test.go.
type Cache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	lru     *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key string
	val []byte
}

// NewCache returns a cache holding at most budget bytes of values
// (<= 0 for unbounded), split evenly across shards.
func NewCache(budget int64) *Cache {
	c := &Cache{}
	per := int64(0)
	if budget > 0 {
		per = budget / cacheShards
		if per == 0 {
			per = 1
		}
	}
	for i := range c.shards {
		c.shards[i].budget = per
		c.shards[i].lru = list.New()
		c.shards[i].entries = map[string]*list.Element{}
	}
	return c
}

// shard routes a key to its shard with an inline FNV-1a (no allocation,
// unlike hash/fnv's heap-allocated state).
func (c *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// Get returns the cached value for key, counting a hit or miss and
// refreshing the entry's recency.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// peek is Get without touching the hit/miss counters or recency — used
// by the raw-prefetch staging path so the reported hit rate reflects
// only consumer chunk lookups.
func (c *Cache) peek(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// contains reports residency without counter or recency effects.
func (c *Cache) contains(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Put inserts or refreshes key, evicting least-recently-used entries in
// its shard as needed. Values larger than the shard budget are not
// cached at all.
func (c *Cache) Put(key string, val []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && int64(len(val)) > s.budget {
		return
	}
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		s.lru.MoveToFront(el)
	} else {
		s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, val: val})
		s.bytes += int64(len(val))
	}
	for s.budget > 0 && s.bytes > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.bytes -= int64(len(e.val))
		s.evictions++
	}
}

// Stats sums the shard counters.
func (c *Cache) Stats() CacheStats {
	var out CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		out.Bytes += s.bytes
		out.Entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return out
}

// CacheSet lazily maintains one Cache per name — the per-node chunk
// caches a job shares across its tasks.
type CacheSet struct {
	mu     sync.Mutex
	budget int64
	caches map[string]*Cache
}

// NewCacheSet returns a set whose caches each hold budgetPerCache bytes
// (<= 0 for unbounded).
func NewCacheSet(budgetPerCache int64) *CacheSet {
	return &CacheSet{budget: budgetPerCache, caches: map[string]*Cache{}}
}

// For returns the cache for name, creating it on first use.
func (cs *CacheSet) For(name string) *Cache {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c, ok := cs.caches[name]
	if !ok {
		c = NewCache(cs.budget)
		cs.caches[name] = c
	}
	return c
}

// Stats aggregates the counters of every cache in the set.
func (cs *CacheSet) Stats() CacheStats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out CacheStats
	for _, c := range cs.caches {
		s := c.Stats()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Evictions += s.Evictions
		out.Bytes += s.Bytes
		out.Entries += s.Entries
	}
	return out
}
