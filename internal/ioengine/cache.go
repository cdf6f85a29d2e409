package ioengine

import (
	"container/list"
	"sync"
)

// Cache is an LRU byte-slice cache with one byte budget. A budget <= 0
// means unbounded. Values are shared, not copied: callers must treat
// returned slices as read-only. The cache counts nothing: a Bound counts
// every chunk lookup, hit or miss, in ioengine/chunk_reads_total.
//
// Concurrency contract: one mutex guards the cache, so it is safe for
// concurrent use from any goroutine. The simulation keeps every Get/Put
// on the kernel thread, in event order (data-plane closures never touch
// the cache — see the sim package's two-plane contract), which is what
// keeps what is resident, and so the hit/miss counts, the same run to
// run. Both properties are exercised under -race in concurrency_test.go.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	lru     *list.List // front = most recent; values are *cacheEntry
	entries map[string]*list.Element
}

type cacheEntry struct {
	key string
	val []byte
}

// NewCache returns a cache holding at most budget bytes of values
// (<= 0 for unbounded).
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, lru: list.New(), entries: map[string]*list.Element{}}
}

// Get returns the cached value for key, refreshing the entry's recency.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// peek is Get without touching recency — used by the single-pass scan and
// the raw-prefetch staging path, which must not reorder the working set.
func (c *Cache) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// contains reports residency without recency effects.
func (c *Cache) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put inserts or refreshes key, evicting least-recently-used entries as
// needed. A value larger than the whole budget is not cached at all.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget > 0 && int64(len(val)) > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for c.budget > 0 && c.bytes > c.budget {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.val))
	}
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
