// Streaming sort-merge shuffle engine.
//
// Each map task's per-reducer bucket is turned into a *sorted run* once,
// when the map (or its combiner) completes. Reducers consume their runs
// through a k-way heap merge with streaming group iteration instead of
// concatenating everything and re-sorting it, and grouped values reach
// Reduce/Combine through a pooled buffer that is reused across keys — the
// Hadoop iterator contract: the slice is valid only for the duration of
// the call.
//
// The merge is stable in exactly the order the old concat-and-stable-sort
// produced: pairs come out in (key, run index, position-within-run)
// order, where run index is map-task arrival order. Job outputs are
// byte-identical to the previous path.
//
// Two-plane split: sortRun and runSpans are pure byte work and run on
// the data plane (sim.ComputePool) — reducers index each run's group
// boundaries while their shuffle flows drain, then merge span-at-a-time
// on the kernel thread. All scratch buffers here are sync.Pool-backed,
// so data-plane workers draw per-worker (per-P) buffers and never share
// a scratch slice.
package mapreduce

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// sortRun stable-sorts one run — or the job's final output — by key,
// preserving emission order within equal keys. A run already in key order
// (combiner output, a range-partitioned job's concatenated reducers) costs
// one scan and touches no scratch. Otherwise the sort moves 16-byte
// (prefix, position) entries, not 32-byte pairs: entries order by prefix,
// then by the full keys, then by position. That order is total, so it has
// exactly one sorted permutation — the stable one — and an unstable
// pdqsort cannot produce any other. The pairs then move once each, in
// place, along the permutation's cycles.
func sortRun(kvs []KV) {
	if runIsSorted(kvs) {
		return
	}
	sc := sortScratchPool.Get().(*sortScratch)
	if cap(sc.keys) < len(kvs) {
		// Power-of-two capacities: runs of nearly equal length (a job's
		// buckets) then reuse each other's scratch instead of missing it.
		sc.keys = make([]sortKey, 1<<bits.Len(uint(len(kvs)-1)))
	}
	keys := sc.keys[:len(kvs)]
	for i := range kvs {
		keys[i] = sortKey{pre: keyPrefix(kvs[i].K), idx: i}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.pre != b.pre {
			return cmp.Compare(a.pre, b.pre)
		}
		if c := strings.Compare(kvs[a.idx].K, kvs[b.idx].K); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// keys[j].idx is where position j's pair comes from; a visited
	// position is marked by pointing it at itself.
	for i := range keys {
		if keys[i].idx == i {
			continue
		}
		first := kvs[i]
		j := i
		for src := keys[j].idx; src != i; src = keys[j].idx {
			kvs[j] = kvs[src]
			keys[j].idx = j
			j = src
		}
		kvs[j] = first
		keys[j].idx = j
	}
	sortScratchPool.Put(sc)
}

// sortKey stands for one pair while its run sorts.
type sortKey struct {
	pre uint64 // keyPrefix of the pair's key
	idx int    // the pair's position in the unsorted run
}

// sortScratch is pooled by pointer to a struct, not to the slice: putting
// &keys would move a slice header to the heap on every call.
type sortScratch struct{ keys []sortKey }

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// keyPrefix packs a key's first eight bytes big-endian, zero-padded, so
// that keyPrefix(a) < keyPrefix(b) implies a < b bytewise: at the first
// byte where the padded prefixes differ either both keys have a byte there,
// or a has ended where b goes on. Equal prefixes decide nothing ("a" and
// "a\x00" pad alike) and fall through to a full comparison.
func keyPrefix(k string) uint64 {
	if len(k) >= 8 {
		return uint64(k[7]) | uint64(k[6])<<8 | uint64(k[5])<<16 | uint64(k[4])<<24 |
			uint64(k[3])<<32 | uint64(k[2])<<40 | uint64(k[1])<<48 | uint64(k[0])<<56
	}
	var pre uint64
	for i := 0; i < len(k); i++ {
		pre |= uint64(k[i]) << (56 - 8*i)
	}
	return pre
}

// runIsSorted reports whether a run is already in key order.
func runIsSorted(kvs []KV) bool {
	for i := 1; i < len(kvs); i++ {
		if kvs[i].K < kvs[i-1].K {
			return false
		}
	}
	return true
}

// runSpans indexes a sorted run's groups — maximal ranges of equal-key
// pairs — as one end offset per group; a group starts where the previous
// one ended. It is pure and allocation-local, so reducers run it on the
// data plane — the per-run prefetch pass — overlapping the shuffle. Return
// the slice with putSpanBuf when the merge is done.
func runSpans(kvs []KV) []uint32 {
	// A run is a []KV in memory: 2^32 pairs would be 128 GiB of it.
	if uint64(len(kvs)) > math.MaxUint32 {
		panic(fmt.Sprintf("mapreduce: a run of %d pairs exceeds the 32-bit group index", len(kvs)))
	}
	// At most one group per pair: grow once, to the run's own length.
	ends := slices.Grow(getSpanBuf(), len(kvs))
	for i := 0; i < len(kvs); {
		j := i + 1
		for j < len(kvs) && kvs[j].K == kvs[i].K {
			j++
		}
		ends = append(ends, uint32(j))
		i = j
	}
	return ends
}

// spanCursor walks one indexed run a group at a time. idx is the run's
// arrival order, the cross-run stability tie-break.
type spanCursor struct {
	kvs   []KV
	ends  []uint32 // the current and later groups' ends
	start int      // the current group's first pair
	pre   uint64   // keyPrefix of its key, what less compares first
	idx   int
}

// key returns the cursor's current group key.
func (c *spanCursor) key() string { return c.kvs[c.start].K }

// next returns the current group's pairs and moves to the following
// group; the cursor is spent once no ends are left.
func (c *spanCursor) next() []KV {
	end := int(c.ends[0])
	group := c.kvs[c.start:end]
	c.start, c.ends = end, c.ends[1:]
	if len(c.ends) > 0 {
		c.pre = keyPrefix(c.key())
	}
	return group
}

// spanMerge yields group spans from indexed sorted runs in (key, run
// index) order. Runs are read through cursors and never mutated, so a
// retried reduce attempt sees them intact.
type spanMerge struct {
	cursors []spanCursor
	heap    []*spanCursor
	single  *spanCursor // fast path when at most one run is non-empty
}

// newSpanMerge builds a merge over indexed runs; empty runs are skipped
// so the heap only ever holds live cursors.
func newSpanMerge(runs [][]KV, ends [][]uint32) *spanMerge {
	m := &spanMerge{cursors: make([]spanCursor, 0, len(runs))}
	for i := range runs {
		if len(ends[i]) > 0 {
			m.cursors = append(m.cursors, spanCursor{kvs: runs[i], ends: ends[i], pre: keyPrefix(runs[i][0].K), idx: i})
		}
	}
	if len(m.cursors) < 2 {
		if len(m.cursors) == 1 {
			m.single = &m.cursors[0]
		}
		return m
	}
	m.heap = make([]*spanCursor, len(m.cursors))
	for i := range m.cursors {
		m.heap[i] = &m.cursors[i]
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

// less orders cursors by (group key, run index) — the stability contract.
// The cached prefixes settle most comparisons without touching a key.
func (m *spanMerge) less(a, b *spanCursor) bool {
	if a.pre != b.pre {
		return a.pre < b.pre
	}
	if ka, kb := a.key(), b.key(); ka != kb {
		return ka < kb
	}
	return a.idx < b.idx
}

func (m *spanMerge) siftDown(i int) {
	h := m.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && m.less(h[r], h[l]) {
			least = r
		}
		if !m.less(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// eachGroupSpans merges indexed sorted runs and invokes fn once per
// distinct key with that key's values in (run, emission) order: the heap
// advances a whole group span per step, cursors with equal keys pop in
// run-index order, and each span's values land in position order. The
// vals buffer is reused across calls: the slice passed to fn is valid only
// for the duration of the call and must not be retained.
func eachGroupSpans(runs [][]KV, ends [][]uint32, vals *[]any, fn func(key string, vals []any) error) error {
	m := newSpanMerge(runs, ends)
	if c := m.single; c != nil {
		for len(c.ends) > 0 {
			key := c.key()
			buf := (*vals)[:0]
			for _, kv := range c.next() {
				buf = append(buf, kv.V)
			}
			*vals = buf
			if err := fn(key, buf); err != nil {
				return err
			}
		}
		return nil
	}
	for len(m.heap) > 0 {
		key := m.heap[0].key()
		buf := (*vals)[:0]
		for len(m.heap) > 0 && m.heap[0].key() == key {
			c := m.heap[0]
			for _, kv := range c.next() {
				buf = append(buf, kv.V)
			}
			if len(c.ends) == 0 {
				last := len(m.heap) - 1
				m.heap[0] = m.heap[last]
				m.heap = m.heap[:last]
			}
			if len(m.heap) > 1 {
				m.siftDown(0)
			}
		}
		*vals = buf
		if err := fn(key, buf); err != nil {
			return err
		}
	}
	return nil
}

// spanBufPool recycles group-boundary indexes across reduce attempts.
var spanBufPool sync.Pool

// getSpanBuf returns a recycled span buffer (possibly nil; append grows
// it normally).
func getSpanBuf() []uint32 {
	if p, _ := spanBufPool.Get().(*[]uint32); p != nil {
		return (*p)[:0]
	}
	return nil
}

// putSpanBuf returns a span buffer to the pool.
func putSpanBuf(s []uint32) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	spanBufPool.Put(&s)
}

// kvBufPool recycles run buffers ([]KV) between map waves and jobs: map
// tasks draw from it on first emit to a bucket and Run returns every
// consumed run after the reduce wave. sync.Pool hands each P (and so
// each data-plane worker) its own cached buffers — concurrent emitters
// never receive the same scratch slice.
var kvBufPool sync.Pool

// getKVBuf returns a recycled run buffer, or nil when the pool is empty
// (append grows it normally in that case).
func getKVBuf() []KV {
	if p, _ := kvBufPool.Get().(*[]KV); p != nil {
		return (*p)[:0]
	}
	return nil
}

// putKVBuf clears a run buffer (dropping key/value references) and
// returns it to the pool.
func putKVBuf(s []KV) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	kvBufPool.Put(&s)
}

// valsPool recycles the grouped-value buffers handed to Reduce/Combine.
// Same per-worker property as kvBufPool: workers draw distinct buffers.
var valsPool sync.Pool

func getVals() *[]any {
	if p, _ := valsPool.Get().(*[]any); p != nil {
		return p
	}
	s := make([]any, 0, 16)
	return &s
}

func putVals(p *[]any) {
	s := (*p)[:cap(*p)]
	clear(s)
	*p = s[:0]
	valsPool.Put(p)
}
