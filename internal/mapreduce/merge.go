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
	"slices"
	"strings"
	"sync"
)

// sortRun stable-sorts one run — or the job's final output — by key,
// preserving emission order within equal keys.
func sortRun(kvs []KV) {
	slices.SortStableFunc(kvs, func(a, b KV) int { return strings.Compare(a.K, b.K) })
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

// ensureSortedRun sorts only when needed — combiner output is emitted in
// group (key) order and is normally already sorted, so this is an O(n)
// scan on the hot path rather than an O(n log n) re-sort.
func ensureSortedRun(kvs []KV) {
	if !runIsSorted(kvs) {
		sortRun(kvs)
	}
}

// kvSpan is one maximal [start, end) range of equal-key pairs within a
// sorted run.
type kvSpan struct{ start, end int }

// runSpans indexes a sorted run's group boundaries. It is pure and
// allocation-local, so reducers run it on the data plane — the per-run
// prefetch pass — overlapping the shuffle. Return the slice with
// putSpanBuf when the merge is done.
func runSpans(kvs []KV) []kvSpan {
	// At most one group per pair: grow once, to half the run's own size.
	spans := slices.Grow(getSpanBuf(), len(kvs))
	for i := 0; i < len(kvs); {
		j := i + 1
		for j < len(kvs) && kvs[j].K == kvs[i].K {
			j++
		}
		spans = append(spans, kvSpan{start: i, end: j})
		i = j
	}
	return spans
}

// spanCursor walks one indexed run a group at a time. idx is the run's
// arrival order, the cross-run stability tie-break.
type spanCursor struct {
	kvs   []KV
	spans []kvSpan
	pos   int
	idx   int
}

// key returns the cursor's current group key.
func (c *spanCursor) key() string { return c.kvs[c.spans[c.pos].start].K }

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
func newSpanMerge(runs [][]KV, spans [][]kvSpan) *spanMerge {
	m := &spanMerge{cursors: make([]spanCursor, 0, len(runs))}
	for i := range runs {
		if len(spans[i]) > 0 {
			m.cursors = append(m.cursors, spanCursor{kvs: runs[i], spans: spans[i], idx: i})
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
func (m *spanMerge) less(a, b *spanCursor) bool {
	ka, kb := a.key(), b.key()
	if ka != kb {
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
func eachGroupSpans(runs [][]KV, spans [][]kvSpan, vals *[]any, fn func(key string, vals []any) error) error {
	m := newSpanMerge(runs, spans)
	if m.single != nil {
		c := m.single
		for ; c.pos < len(c.spans); c.pos++ {
			sp := c.spans[c.pos]
			buf := (*vals)[:0]
			for _, kv := range c.kvs[sp.start:sp.end] {
				buf = append(buf, kv.V)
			}
			*vals = buf
			if err := fn(c.kvs[sp.start].K, buf); err != nil {
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
			sp := c.spans[c.pos]
			for _, kv := range c.kvs[sp.start:sp.end] {
				buf = append(buf, kv.V)
			}
			c.pos++
			if c.pos >= len(c.spans) {
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
func getSpanBuf() []kvSpan {
	if p, _ := spanBufPool.Get().(*[]kvSpan); p != nil {
		return (*p)[:0]
	}
	return nil
}

// putSpanBuf returns a span buffer to the pool.
func putSpanBuf(s []kvSpan) {
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
