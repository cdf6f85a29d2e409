// Streaming sort-merge shuffle engine.
//
// Each map task's per-reducer bucket is turned into a *sorted run* once,
// when the map completes. Reducers consume their runs
// through a k-way heap merge with streaming group iteration instead of
// concatenating everything and re-sorting it, and grouped values reach
// Reduce through a pooled buffer that is reused across keys — the
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
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// sortRun stable-sorts one run — or the job's final output — by key,
// preserving emission order within equal keys. A run already in key order
// (a range-partitioned job's concatenated reducers) costs one scan and
// touches no scratch. Otherwise radixSort orders an index of the pairs,
// not the 32-byte pairs themselves, into the one order that is total: by
// key, then by position. A total order has exactly one sorted permutation
// — the stable one. The pairs then move once each, in place, along the
// permutation's cycles.
func sortRun(kvs []KV) {
	if runIsSorted(kvs) {
		return
	}
	// A run is a []KV in memory, so 2^32 pairs would be 128 GiB of it: no
	// run gets there, and none wraps a uint32 position silently.
	if uint64(len(kvs)) > math.MaxUint32 {
		panic(fmt.Sprintf("mapreduce: a run of %d pairs exceeds the 32-bit sort index", len(kvs)))
	}
	sc := sortScratchPool.Get().(*sortScratch)
	win, pos := scratch(&sc.win, len(kvs)), scratch(&sc.pos, len(kvs))
	for i := range kvs {
		win[i] = keyWindow(kvs[i].K, 0)
		pos[i] = uint32(i)
	}
	radixSort(kvs, win, pos, scratch(&sc.tmp, len(kvs)), 0, true)
	// pos[j] is where position j's pair comes from; a visited position is
	// marked by pointing it at itself.
	for i := range pos {
		if int(pos[i]) == i {
			continue
		}
		first := kvs[i]
		j := i
		for src := int(pos[j]); src != i; src = int(pos[j]) {
			kvs[j] = kvs[src]
			pos[j] = uint32(j)
			j = src
		}
		kvs[j] = first
		pos[j] = uint32(j)
	}
	sortScratchPool.Put(sc)
}

// sortKey stands for one pair in a radix leaf's insertion sort: its
// keyWindow and its position in the unsorted run.
type sortKey struct {
	win uint64
	idx uint32
}

// keyWindow packs the key's seven bytes from base on big-endian, zero-
// padded, above a low byte counting the key's bytes from base on (8: more
// than seven). For keys sharing their first base bytes a smaller window is
// a smaller key — where windows first differ, both keys have a byte or the
// one that has ended is a prefix of the other — and equal windows are
// equal keys unless both go on past the window.
func keyWindow(k string, base int) uint64 {
	k = k[min(base, len(k)):]
	if len(k) > 7 {
		return keyPrefix(k)&^0xff | 8
	}
	return keyPrefix(k) | uint64(len(k))
}

// radixLeaf is the bucket size radixSort finishes by insertion.
const radixLeaf = 24

// radixSort sorts the ascending positions in data — keys sharing their
// first depth bytes and going on past them — most significant byte first.
// Windows start at multiples of 7; the one a key's window starts at is
// the last below depth, or depth itself once refilled. The digit at depth
// is the key's byte plus one, or 0 where it has ended, so "a" < "a\x00".
// Every scatter is stable, so equal keys keep ascending positions
// uncompared. spare is the same stretch of the other array; home reports
// whether data is in pos, where a finished stretch must end up.
func radixSort(kvs []KV, win []uint64, data, spare []uint32, depth int, home bool) {
	for {
		base := depth / 7 * 7
		if depth > 0 && depth == base {
			// The window is spent: load the key's next seven bytes.
			for _, p := range data {
				win[p] = keyWindow(kvs[p].K, base)
			}
		}
		if len(data) <= radixLeaf {
			dst := data
			if !home {
				dst = spare
			}
			insertionSort(kvs, win, data, dst, base)
			return
		}
		// Bytes every key has and shares advance the depth unscattered:
		// up to the first differing byte, the shortest key's end or the
		// window's end.
		first := win[data[0]]
		var diff uint64
		short := first & 0xff
		for _, p := range data[1:] {
			diff |= win[p] ^ first
			short = min(short, win[p]&0xff)
		}
		if diff == 0 && short < 8 { // equal keys, in position order
			if !home {
				copy(spare, data)
			}
			return
		}
		if shared := base + min(bits.LeadingZeros64(diff)/8, int(short), 7); shared > depth {
			depth = shared
			if depth == base+7 {
				continue
			}
		}
		// The digits at depth differ. Counts become bucket starts, which
		// the scatter advances to bucket ends.
		at := depth - base
		var ends [257]uint32
		lo, hi := 256, 0
		for _, p := range data {
			d := radixDigit(win[p], at)
			ends[d]++
			lo, hi = min(lo, d), max(hi, d)
		}
		var sum, bigN uint32
		big := hi
		for d := lo; d <= hi; d++ {
			c := ends[d]
			ends[d] = sum
			sum += c
			if d > 0 && c > bigN {
				big, bigN = d, c
			}
		}
		for _, p := range data {
			d := radixDigit(win[p], at)
			spare[ends[d]] = p
			ends[d]++
		}
		data, spare, home = spare, data, !home
		// Ended keys are done. Every other bucket but the largest recurses;
		// the loop takes that one, so the stack stays logarithmic.
		if end := ends[0]; end > 0 && !home {
			copy(spare[:end], data[:end])
		}
		for d := max(lo, 1); d <= hi; d++ {
			if start, end := ends[d-1], ends[d]; end > start && d != big {
				radixSort(kvs, win, data[start:end], spare[start:end], depth+1, home)
			}
		}
		data, spare = data[ends[big]-bigN:ends[big]], spare[ends[big]-bigN:ends[big]]
		depth++
	}
}

// radixDigit is a key's digit at byte at of its window w: 0 past the
// key's end, else the byte plus one.
func radixDigit(w uint64, at int) int {
	d := int(byte(w>>(56-8*at))) + 1
	if at >= int(byte(w)) {
		d = 0
	}
	return d
}

// insertionSort sorts radixSort's small buckets from src into dst (src
// itself or the other array), on a stack copy carrying each window beside
// its position. An entry moves only past greater keys: stable.
func insertionSort(kvs []KV, win []uint64, src, dst []uint32, base int) {
	var buf [radixLeaf]sortKey
	keys := buf[:len(src)]
	for i, p := range src {
		e := sortKey{win: win[p], idx: p}
		j := i
		for ; j > 0; j-- {
			o := keys[j-1]
			// Equal windows leave the order open only if both keys go on.
			if e.win > o.win || e.win == o.win && (e.win&0xff != 8 || kvs[e.idx].K[base+7:] >= kvs[o.idx].K[base+7:]) {
				break
			}
			keys[j] = o
		}
		keys[j] = e
	}
	for i, e := range keys {
		dst[i] = e.idx
	}
}

// sortScratch holds every index sortRun uses, 16 bytes a pair, pooled by
// pointer to a struct, not to a slice: putting &win would move a slice
// header to the heap on every call, and a second pool costs a second miss.
type sortScratch struct {
	win      []uint64
	pos, tmp []uint32
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// scratch returns n elements of *s, first growing it to a power of two:
// runs of nearly equal length (a job's buckets) then reuse each other's
// scratch instead of missing it.
func scratch[E any](s *[]E, n int) []E {
	if cap(*s) < n {
		*s = make([]E, 1<<bits.Len(uint(n-1)))
	}
	return (*s)[:n]
}

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
// data plane — the per-run prefetch pass — overlapping the shuffle. The
// index is appended to ends[:0]: a buffer from spanBufs, returned there
// when the merge is done.
func runSpans(kvs []KV, ends []uint32) []uint32 {
	// A run is a []KV in memory: 2^32 pairs would be 128 GiB of it.
	if uint64(len(kvs)) > math.MaxUint32 {
		panic(fmt.Sprintf("mapreduce: a run of %d pairs exceeds the 32-bit group index", len(kvs)))
	}
	// At most one group per pair: grow once, to the run's own length.
	ends = slices.Grow(ends[:0], len(kvs))
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

// spanCursor walks one indexed run a group at a time, leaving its runSpans
// index whole for the reducer to recycle. idx is the run's arrival order,
// the cross-run stability tie-break.
type spanCursor struct {
	kvs   []KV
	ends  []uint32  // every group's end in kvs
	box   *[]uint32 // ends' spanBufs box
	g     int       // the current group
	start int       // the current group's first pair
	pre   uint64    // keyPrefix of its key, what less compares first
	idx   int
}

// key returns the cursor's current group key.
func (c *spanCursor) key() string { return c.kvs[c.start].K }

// live reports whether the cursor has a group left.
func (c *spanCursor) live() bool { return c.g < len(c.ends) }

// next returns the current group's pairs and moves to the following
// group; the cursor is spent once no group is left.
func (c *spanCursor) next() []KV {
	end := int(c.ends[c.g])
	group := c.kvs[c.start:end]
	c.start = end
	c.g++
	if c.live() {
		c.pre = keyPrefix(c.key())
	}
	return group
}

// spanMerge yields group spans from indexed sorted runs in (key, run
// index) order. Runs are read through cursors and never mutated, so a
// retried reduce attempt sees them intact.
type spanMerge struct {
	heap   []*spanCursor
	single *spanCursor // fast path when at most one run is non-empty
}

// newSpanMerge builds a merge over fresh cursors (kvs, ends and idx set),
// skipping empty runs so the heap only ever holds live cursors.
func newSpanMerge(cursors []spanCursor) spanMerge {
	var m spanMerge
	live := 0
	for i := range cursors {
		if c := &cursors[i]; c.live() {
			c.pre = keyPrefix(c.key())
			m.single = c
			live++
		}
	}
	if live < 2 {
		return m
	}
	m.single, m.heap = nil, make([]*spanCursor, 0, live)
	for i := range cursors {
		if cursors[i].live() {
			m.heap = append(m.heap, &cursors[i])
		}
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

// eachGroupSpans merges the cursors' indexed sorted runs and invokes fn
// once per distinct key with that key's values in (run, emission) order:
// the heap advances a whole group span per step, cursors with equal keys
// pop in run-index order, and each span's values land in position order.
// The vals buffer is reused across calls: the slice passed to fn is valid
// only for the duration of the call and must not be retained.
func eachGroupSpans(cursors []spanCursor, vals *[]any, fn func(key string, vals []any) error) error {
	m := newSpanMerge(cursors)
	if c := m.single; c != nil {
		for c.live() {
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
			if !c.live() {
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

// bufPool recycles slices through a sync.Pool of *[]T boxes. get hands
// out the box with the slice and the holder gives both back to put, so a
// warm recycle boxes no fresh slice header.
type bufPool[T any] struct{ pool sync.Pool }

// get returns a recycled buffer and its box, or nil and nil when the pool
// is empty (append grows the buffer normally in that case).
func (p *bufPool[T]) get() ([]T, *[]T) {
	b, _ := p.pool.Get().(*[]T)
	if b == nil {
		return nil, nil
	}
	return (*b)[:0], b
}

// put returns s to the pool in its box b, or in a new box when s was
// grown from nothing.
func (p *bufPool[T]) put(s []T, b *[]T) {
	if cap(s) == 0 {
		return
	}
	if b == nil {
		b = new([]T)
	}
	*b = s[:0]
	p.pool.Put(b)
}

// spanBufs recycles group-boundary indexes across reduce attempts.
var spanBufs bufPool[uint32]

// kvBufs recycles run buffers ([]KV) between map waves and jobs: map
// tasks draw from it on first emit to a bucket and Run returns every
// consumed run after the reduce wave. sync.Pool hands each P (and so
// each data-plane worker) its own cached buffers — concurrent emitters
// never receive the same scratch slice.
var kvBufs bufPool[KV]

// putKVBuf clears a run buffer (dropping key/value references) and
// returns it to the pool in its box.
func putKVBuf(s []KV, b *[]KV) {
	clear(s[:cap(s)])
	kvBufs.put(s, b)
}

// valsPool recycles the grouped-value buffers handed to Reduce.
// Same per-worker property as kvBufs: workers draw distinct buffers.
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
