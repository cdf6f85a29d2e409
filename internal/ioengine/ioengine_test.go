package ioengine

import (
	"bytes"
	"fmt"
	"testing"

	"scidp/internal/obs"
	"scidp/internal/sim"
)

func TestBytesSource(t *testing.T) {
	b := Bytes([]byte("0123456789"))
	if b.Size() != 10 {
		t.Fatalf("Size = %d, want 10", b.Size())
	}
	got, err := b.ReadAt(3, 4)
	if err != nil || string(got) != "3456" {
		t.Fatalf("ReadAt(3,4) = %q, %v", got, err)
	}
	if got, _ := b.ReadAt(8, 10); string(got) != "89" {
		t.Fatalf("short read at EOF = %q, want \"89\"", got)
	}
	if got, _ := b.ReadAt(20, 4); got != nil {
		t.Fatalf("read past EOF = %q, want nil", got)
	}
}

func TestStatsWrapper(t *testing.T) {
	s := &Stats{R: Bytes([]byte("0123456789"))}
	if _, err := s.ReadAt(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAt(8, 10); err != nil {
		t.Fatal(err)
	}
	if s.Calls != 2 || s.BytesRead != 6 {
		t.Fatalf("Calls=%d BytesRead=%d, want 2 and 6", s.Calls, s.BytesRead)
	}
	if s.Size() != 10 {
		t.Fatalf("Size = %d, want 10", s.Size())
	}
}

func TestRangeIntersect(t *testing.T) {
	a := Range{Off: 10, Len: 10}
	if got, ok := a.Intersect(Range{Off: 15, Len: 10}); !ok || got != (Range{Off: 15, Len: 5}) {
		t.Fatalf("Intersect = %+v, %v", got, ok)
	}
	if _, ok := a.Intersect(Range{Off: 20, Len: 5}); ok {
		t.Fatal("adjacent ranges should not intersect")
	}
	if _, ok := a.Intersect(Range{Off: 0, Len: 10}); ok {
		t.Fatal("disjoint ranges should not intersect")
	}
}

func TestMerge(t *testing.T) {
	got := Merge([]Range{
		{Off: 30, Len: 5},
		{Off: 0, Len: 10},
		{Off: 8, Len: 4},
		{Off: 12, Len: 3},
		{Off: 40, Len: 0},
	})
	want := []Range{{Off: 0, Len: 15}, {Off: 30, Len: 5}}
	if len(got) != len(want) {
		t.Fatalf("Merge = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Merge[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if out := Merge(nil); len(out) != 0 {
		t.Fatalf("Merge(nil) = %+v, want empty", out)
	}
}

// chunkReads reads the Bound's one record of chunk lookups from reg.
func chunkReads(reg *obs.Registry) (hits, misses float64) {
	return reg.Counter("ioengine/chunk_reads_total", obs.L("result", "hit")).Value(),
		reg.Counter("ioengine/chunk_reads_total", obs.L("result", "miss")).Value()
}

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put("a", []byte("hello"))
	v, ok := c.Get("a")
	if !ok || string(v) != "hello" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}

	// A Bound counts each chunk lookup once: a miss fills the cache, the
	// rereads hit it, and cache_hit_ratio is derived from those counts.
	reg := obs.New()
	RegisterObs(reg)
	ratio := reg.Gauge("ioengine/cache_hit_ratio")
	if reg.Snapshot(); ratio.Value() != 0 {
		t.Fatalf("cache_hit_ratio = %v with no lookups, want 0", ratio.Value())
	}
	data := []byte("0123456789abcdef")
	k := sim.NewKernel()
	k.Go("p", func(p *sim.Proc) {
		b := Bind(p, &slowReader{data: data, latency: 0.001}, Options{Cache: NewCache(0), Obs: reg})
		for _, off := range []int64{0, 0, 0, 8} {
			if got, err := decoded(b.readChunk(rawChunk(off, 8), false)); err != nil || !bytes.Equal(got, data[off:off+8]) {
				t.Errorf("chunk at %d = %q, %v", off, got, err)
			}
		}
	})
	k.Run()
	if hits, misses := chunkReads(reg); hits != 2 || misses != 2 {
		t.Fatalf("chunk reads: %v hits / %v misses, want 2 / 2", hits, misses)
	}
	if reg.Snapshot(); ratio.Value() != 0.5 {
		t.Fatalf("cache_hit_ratio = %v, want 0.5", ratio.Value())
	}
}

// resident is the cache's byte total and entry count, read under its lock.
func (c *Cache) resident() (bytes, entries int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, int64(len(c.entries))
}

func TestCacheEvictionUnderBudget(t *testing.T) {
	const budget = 512
	c := NewCache(budget)
	// A value larger than budget/8 but within the budget is kept.
	c.Put("big", make([]byte, budget/2))
	if !c.contains("big") {
		t.Fatal("a value within the budget was refused")
	}
	val := make([]byte, 32)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("key-%d", i), val)
		if b, _ := c.resident(); b > budget {
			t.Fatalf("after %d puts resident bytes %d exceed budget %d", i+1, b, budget)
		}
	}
	b, n := c.resident()
	if c.contains("big") || n != budget/32 || b != n*32 {
		t.Fatalf("resident %d bytes in %d entries, want the oldest evicted and %d 32-byte entries", b, n, budget/32)
	}
	// A value larger than the whole budget is refused outright.
	c.Put("huge", make([]byte, budget+1))
	if _, ok := c.peek("huge"); ok {
		t.Fatal("oversized value should not be cached")
	}
	if after, _ := c.resident(); after != b {
		t.Fatal("oversized Put changed resident bytes")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Room for four 1-byte entries: the fifth evicts the globally least
	// recently used one, whichever keys they are.
	c := NewCache(4)
	keys := []string{"x", "k0", "k1", "k2", "k3", "k4"}
	for _, k := range keys[:4] {
		c.Put(k, []byte{1})
	}
	c.Get("x") // refresh: k0 is now LRU
	c.Put("k3", []byte{2})
	if !c.contains("x") {
		t.Fatal("recently used entry was evicted")
	}
	if c.contains("k0") {
		t.Fatal("least recently used entry survived")
	}
	c.peek("k1") // peek leaves recency alone: k1 stays LRU
	c.Put("k4", []byte{3})
	for _, k := range []string{"x", "k2", "k3", "k4"} {
		if !c.contains(k) {
			t.Fatalf("%s was evicted before the LRU entry", k)
		}
	}
	if c.contains("k1") {
		t.Fatal("peeked entry was promoted past the LRU")
	}
}

func TestCacheSet(t *testing.T) {
	cs := NewCacheSet(0)
	a, b := cs.For("node-a"), cs.For("node-b")
	if a == b {
		t.Fatal("distinct names share a cache")
	}
	if cs.For("node-a") != a {
		t.Fatal("For is not stable per name")
	}
	a.Put("k", []byte("vv"))
	if _, ok := b.Get("k"); ok {
		t.Fatal("a value put in one node's cache is visible in another's")
	}
	if v, ok := cs.For("node-a").Get("k"); !ok || string(v) != "vv" {
		t.Fatalf("For(node-a).Get = %q, %v", v, ok)
	}
}

// slowReader charges a fixed virtual latency per engine read.
type slowReader struct {
	data    []byte
	latency float64
	reads   int
}

func (r *slowReader) ReadAt(p *sim.Proc, off, n int64) ([]byte, error) {
	r.reads++
	p.Sleep(r.latency)
	return Bytes(r.data).ReadAt(off, n)
}

func (r *slowReader) Size() int64 { return int64(len(r.data)) }

func (r *slowReader) Name() string { return "slow" }

// Trace is the engine-level stats wrapper: it counts the calls and bytes
// crossing a ReaderAt, including background prefetch reads. It has the
// same concurrency contract as Stats: plain counters, safe because the
// sim kernel serializes all process execution.
type Trace struct {
	// R is the wrapped engine reader.
	R ReaderAt
	// BytesRead is the running total of bytes returned.
	BytesRead int64
	// Calls is the number of ReadAt invocations.
	Calls int64
}

// ReadAt implements ReaderAt.
func (t *Trace) ReadAt(p *sim.Proc, off, n int64) ([]byte, error) {
	b, err := t.R.ReadAt(p, off, n)
	t.BytesRead += int64(len(b))
	t.Calls++
	return b, err
}

// Size implements ReaderAt.
func (t *Trace) Size() int64 { return t.R.Size() }

func TestTraceWrapper(t *testing.T) {
	k := sim.NewKernel()
	tr := &Trace{R: &slowReader{data: make([]byte, 64), latency: 0.001}}
	k.Go("p", func(p *sim.Proc) {
		tr.ReadAt(p, 0, 16)
		tr.ReadAt(p, 16, 16)
	})
	k.Run()
	if tr.Calls != 2 || tr.BytesRead != 32 {
		t.Fatalf("Calls=%d BytesRead=%d, want 2 and 32", tr.Calls, tr.BytesRead)
	}
	if tr.Size() != 64 {
		t.Fatalf("Size = %d, want 64", tr.Size())
	}
}

// decoded is a chunk read's decoded bytes, or its error.
func decoded(pl Payload, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return pl.Bytes()
}

// rawChunk is the decoder of an sz-byte chunk at off stored uncompressed:
// its decode returns the stored bytes.
func rawChunk(off, sz int64) chunkDecoder {
	return chunkDecoder{pkg: "test", off: off, stored: sz, rawSize: sz}
}

// chunkedRead reads nchunks chunks of size sz in order through b,
// validating content, and returns any error.
func chunkedRead(tb testing.TB, b *Bound, nchunks int, sz int64, data []byte) {
	tb.Helper()
	for i := 0; i < nchunks; i++ {
		off := int64(i) * sz
		got, err := decoded(b.readChunk(rawChunk(off, sz), false))
		if err != nil {
			tb.Fatalf("readChunk(%d): %v", off, err)
		}
		if !bytes.Equal(got, data[off:off+sz]) {
			tb.Fatalf("chunk %d content mismatch", i)
		}
	}
}

func TestBoundChunkCacheSkipsReadAndDecode(t *testing.T) {
	raw := []byte("abcdefghijklmnop")
	stored := oneShotDeflate(t, raw, 6)
	r := &slowReader{data: stored, latency: 0.01}
	cache, reg := NewCache(0), obs.New()
	dec := chunkDecoder{pkg: "test", deflated: true, stored: int64(len(stored)), rawSize: int64(len(raw))}
	var outs [2][]byte
	var took [2]float64
	k := sim.NewKernel()
	k.Go("p", func(p *sim.Proc) {
		b := Bind(p, r, Options{Cache: cache, Obs: reg})
		for i := range outs {
			start := p.Now()
			out, err := decoded(b.readChunk(dec, false))
			if err != nil || !bytes.Equal(out, raw) {
				t.Errorf("read %d = %q, %v", i, out, err)
			}
			outs[i], took[i] = out, p.Now()-start
		}
	})
	k.Run()
	if t.Failed() {
		return
	}
	// Every inflate returns a fresh buffer: the same one twice is one decode.
	if &outs[0][0] != &outs[1][0] {
		t.Fatal("second read decoded again, want it served from the cache")
	}
	if r.reads != 1 {
		t.Fatalf("engine reads = %d, want 1", r.reads)
	}
	if took[1] >= took[0] {
		t.Fatalf("cached read took %v, cold took %v; want strictly faster", took[1], took[0])
	}
	if hits, misses := chunkReads(reg); hits != 1 || misses != 1 {
		t.Fatalf("chunk reads: %v hits / %v misses, want 1 / 1", hits, misses)
	}
}

func TestPrefetchOverlap(t *testing.T) {
	const nchunks, sz = 6, int64(8)
	data := make([]byte, int(sz)*nchunks)
	for i := range data {
		data[i] = byte(i)
	}
	plan := make([]Range, nchunks)
	for i := range plan {
		plan[i] = Range{Off: int64(i) * sz, Len: sz}
	}

	run := func(prefetch int) float64 {
		r := &slowReader{data: data, latency: 0.01}
		k := sim.NewKernel()
		var elapsed float64
		k.Go("p", func(p *sim.Proc) {
			b := Bind(p, r, Options{Prefetch: prefetch})
			b.Announce(plan)
			chunkedRead(t, b, nchunks, sz, data)
			elapsed = p.Now()
		})
		k.Run()
		return elapsed
	}

	sequential := run(0)
	overlapped := run(4)
	if want := 0.01 * nchunks; sequential < want {
		t.Fatalf("sequential run took %v, want >= %v", sequential, want)
	}
	if overlapped >= sequential {
		t.Fatalf("prefetch run took %v, sequential %v; want strictly faster", overlapped, sequential)
	}
}

func TestAnnounceOnPlainSourceIsNoOp(t *testing.T) {
	c := Chunk{Offset: 1, StoredSize: 2, RawSize: 2}
	x := ChunkIndex{Src: Bytes([]byte("!xy")), Pkg: "test", Chunks: []Chunk{c}}
	x.Announce([]int{0}) // must not panic
	for _, read := range []func(int) (Payload, error){x.Read, x.Scan} {
		if got, err := decoded(read(0)); err != nil || string(got) != "xy" {
			t.Fatalf("read fallback = %q, %v", got, err)
		}
	}
}
