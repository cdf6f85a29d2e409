// Streaming sort-merge shuffle engine.
//
// Each map task's per-reducer bucket is turned into a *sorted run* once,
// when the map completes. Reducers consume their runs
// through a k-way heap merge with streaming group iteration instead of
// concatenating everything and re-sorting it, and grouped values reach
// Reduce through one buffer reused across keys — the
// Hadoop iterator contract: the slice is valid only for the duration of
// the call.
//
// The merge is stable: pairs come out in (key, run index,
// position-within-run) order, where run index is map-task arrival order —
// the order a stable sort of the concatenated runs gives, to which the
// merge tests hold it byte for byte.
//
// Two-plane split: sortRun and runSpans are pure byte work and run on
// the data plane (sim.ComputePool) — reducers index each run's group
// boundaries while their shuffle flows drain, then merge span-at-a-time
// on the kernel thread. All scratch buffers here come from free lists
// (internal/freelist): a Get hands a buffer to one holder until it is Put
// back, so concurrent data-plane workers never share a scratch slice.
package mapreduce

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"scidp/internal/freelist"
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
	sc := sortScratches.Get()
	if sc == nil {
		sc = new(sortScratch)
	}
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
	sortScratches.Put(sc)
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

// sortScratch holds every index sortRun uses, 16 bytes a pair, kept as
// one struct so that one free list serves all three.
type sortScratch struct {
	win      []uint64
	pos, tmp []uint32
}

var sortScratches freelist.List[*sortScratch]

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
// index is appended to ends[:0]: a buffer from spanBufs, put back there
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
	ends  []uint32 // every group's end in kvs
	g     int      // the current group
	start int      // the current group's first pair
	pre   uint64   // keyPrefix of its key, what less compares first
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
// only for the duration of the call and must not be retained. The buffer
// is returned, grown to the largest group, for the caller to keep.
func eachGroupSpans(cursors []spanCursor, vals []any, fn func(key string, vals []any) error) ([]any, error) {
	m := newSpanMerge(cursors)
	if c := m.single; c != nil {
		for c.live() {
			key := c.key()
			vals = vals[:0]
			for _, kv := range c.next() {
				vals = append(vals, kv.V)
			}
			if err := fn(key, vals); err != nil {
				return vals, err
			}
		}
		return vals, nil
	}
	for len(m.heap) > 0 {
		key := m.heap[0].key()
		vals = vals[:0]
		for len(m.heap) > 0 && m.heap[0].key() == key {
			c := m.heap[0]
			for _, kv := range c.next() {
				vals = append(vals, kv.V)
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
		if err := fn(key, vals); err != nil {
			return vals, err
		}
	}
	return vals, nil
}

// spanBufs recycles group-boundary indexes across reduce attempts.
var spanBufs freelist.List[[]uint32]

// kvBufs recycles run buffers ([]KV) between map waves and jobs: map
// tasks draw from it on first emit to a bucket and Run gives every
// consumed run back after the reduce wave.
var kvBufs freelist.List[[]KV]

// valBufs recycles the grouped-value buffers handed to Reduce.
var valBufs freelist.List[[]any]

// putCleared clears a buffer, dropping what its elements reference, and
// keeps s[:0] in l. A buffer that never grew is not kept.
func putCleared[E any](l *freelist.List[[]E], s []E) {
	if cap(s) == 0 {
		return
	}
	clear(s[:cap(s)])
	l.Put(s[:0])
}
