// Package ioengine is the shared read path every storage and format layer
// consumes: one engine-level interface (ReaderAt, charging virtual time
// per call), one proc-bound view (Source, what format parsers take), and
// composable wrappers — a sharded LRU chunk cache holding decompressed
// chunks, a readahead prefetcher issuing upcoming chunk reads on
// background sim processes, and a stats wrapper replacing the old
// ad-hoc counting readers. The PFS client, the HDFS range reader, the
// MPI-IO range math, and the netcdf/hdf5lite plugins all build on
// this package instead of private copies.
//
// Caching assumes the read-only in-place contract SciDP's analysis path
// has: input files are immutable once analysis starts, so cache entries
// are never invalidated.
package ioengine

import (
	"fmt"

	"scidp/internal/obs"
	"scidp/internal/sim"
)

// ReaderAt is the engine-level random-access interface: every read names
// the simulated process it charges virtual time to, so one engine (and
// one cache behind it) can serve many tasks.
type ReaderAt interface {
	// ReadAt returns up to n bytes starting at off; short reads at EOF
	// return what is available.
	ReadAt(p *sim.Proc, off, n int64) ([]byte, error)
	// Size returns the total length.
	Size() int64
}

// Source is the proc-bound view of a ReaderAt — the random-access
// interface format parsers consume. The netcdf, hdf5lite, and scifmt
// ReaderAt names are aliases of this type.
type Source interface {
	ReadAt(off, n int64) ([]byte, error)
	Size() int64
}

// Bytes adapts an in-memory blob to Source.
type Bytes []byte

// ReadAt implements Source.
func (b Bytes) ReadAt(off, n int64) ([]byte, error) {
	if off < 0 || off >= int64(len(b)) {
		return nil, nil
	}
	end := off + n
	if end > int64(len(b)) {
		end = int64(len(b))
	}
	return b[off:end], nil
}

// Size implements Source.
func (b Bytes) Size() int64 { return int64(len(b)) }

// Stats wraps a Source and tallies bytes and calls — the tracing hook the
// format readers' header-cost tests use.
//
// Concurrency contract: BytesRead and Calls are plain ints deliberately
// left unsynchronized. They are mutated only from sim-process context,
// and the kernel runs exactly one process or event callback at a time
// (see the sim package comment), so there is no data race and totals
// are deterministic. Do not share a Stats across kernels or touch it
// from a real goroutine while Kernel.Run is executing; the invariant is
// exercised under the race detector in concurrency_test.go.
type Stats struct {
	// R is the wrapped source.
	R Source
	// BytesRead is the running total of bytes returned.
	BytesRead int64
	// Calls is the number of ReadAt invocations.
	Calls int64
}

// ReadAt implements Source.
func (s *Stats) ReadAt(off, n int64) ([]byte, error) {
	b, err := s.R.ReadAt(off, n)
	s.BytesRead += int64(len(b))
	s.Calls++
	return b, err
}

// Size implements Source.
func (s *Stats) Size() int64 { return s.R.Size() }

// A plain Source reads, decodes and copies inline. A *Bound adds the chunk
// cache, the tier, the prefetcher and the data plane; ChunkIndex's read
// paths and Fork/Join below reach them by asking whether the source is one.

// Fork runs fn on r's data plane when r is bound to a process — pure
// assembly work: hyperslab scatter copies, row-chunk assembly — and
// otherwise inline, returning nil. Anything fn writes must not be read
// before the matching Join.
func Fork(r Source, fn func()) *sim.Future {
	if b, ok := r.(*Bound); ok {
		return b.Fork(fn)
	}
	fn()
	return nil
}

// Join waits for futures forked from r. A plain source has none: its
// Fork returned nil, which callers drop and never hand to Join.
func Join(r Source, futs ...*sim.Future) {
	if b, ok := r.(*Bound); ok {
		b.Join(futs...)
	}
}

// Options configures Bind.
type Options struct {
	// Cache is the (possibly shared) chunk cache reads go through; nil
	// disables caching unless Prefetch forces a private staging cache.
	Cache *Cache
	// Prefetch is the readahead depth: after each announced chunk is
	// consumed, up to this many upcoming chunks are read on background
	// processes. Zero disables readahead.
	Prefetch int
	// Obs, when non-nil, receives chunk-read and prefetch counters
	// (ioengine/chunk_reads_total{result=hit|miss},
	// ioengine/prefetch_issued_total, ioengine/prefetch_hits_total).
	Obs *obs.Registry
	// Tier is the cluster-wide cooperative cache chunk reads consult
	// between the per-job cache and the engine; nil disables it.
	Tier *Tier
	// TierNode names the node the bound process runs on — the burst
	// buffer Tier lookups are local to.
	TierNode string
}

// Bound couples a process to an engine reader and implements Source,
// applying the configured cache and prefetcher to chunk reads.
type Bound struct {
	p        *sim.Proc
	r        ReaderAt
	name     string
	cache    *Cache
	tier     *Tier
	tnode    string
	prefetch int
	plan     []Range
	next     int // plan index of the first not-yet-consumed chunk
	inflight map[int64]*sim.WaitGroup

	// Observability handles (nil when Options.Obs was nil — nil-check
	// fast path, same single-threaded contract as Stats).
	chunkHits      *obs.Counter
	chunkMisses    *obs.Counter
	prefetchIssued *obs.Counter
	prefetchHits   *obs.Counter
}

// Bind returns a Source over (p, r). With a Cache, chunk reads are served
// from (and fill) the decompressed-chunk cache; with Prefetch > 0,
// announced chunks are read ahead on background processes spawned from
// p's kernel.
func Bind(p *sim.Proc, r ReaderAt, opts Options) *Bound {
	b := &Bound{p: p, r: r, cache: opts.Cache,
		tier: opts.Tier, tnode: opts.TierNode, prefetch: opts.Prefetch}
	if nr, ok := r.(interface{ Name() string }); ok {
		b.name = nr.Name() // namespaces cache keys
	}
	if b.prefetch > 0 {
		if b.cache == nil {
			b.cache = NewCache(0) // private staging cache for raw readahead
		}
		b.inflight = map[int64]*sim.WaitGroup{}
	}
	if opts.Obs != nil {
		b.chunkHits = opts.Obs.Counter("ioengine/chunk_reads_total", obs.L("result", "hit"))
		b.chunkMisses = opts.Obs.Counter("ioengine/chunk_reads_total", obs.L("result", "miss"))
		b.prefetchIssued = opts.Obs.Counter("ioengine/prefetch_issued_total")
		b.prefetchHits = opts.Obs.Counter("ioengine/prefetch_hits_total")
	}
	return b
}

// Size implements Source.
func (b *Bound) Size() int64 { return b.r.Size() }

// ReadAt implements Source: a plain engine read charged to the bound
// process (header and probe reads take this path; only chunk reads
// cache).
func (b *Bound) ReadAt(off, n int64) ([]byte, error) {
	return b.r.ReadAt(b.p, off, n)
}

// Fork submits fn to the bound process's data plane and returns its join
// handle.
func (b *Bound) Fork(fn func()) *sim.Future { return b.p.Compute(fn) }

// Join blocks the bound process until every future has resolved.
func (b *Bound) Join(futs ...*sim.Future) { b.p.Await(futs...) }

// Announce takes the chunk ranges an upcoming read will touch, in read
// order, as the readahead plan and kicks off the first window.
func (b *Bound) Announce(plan []Range) {
	b.plan = plan
	b.next = 0
	b.startPrefetch()
}

// readChunk is the one chunk path: ChunkIndex.Read, or with once its Scan.
// A chunk resident in the cache or the tier is returned decoded; a miss
// reads the stored bytes, prefetch-staged or on the bound process. Only a
// caching read with a cache to Put into or a tier to Admit to keeps a copy
// of its miss, so only it decodes on the data plane behind a join of its
// own. Any other miss returns the stored bytes with their decoder: the
// decode travels into the data-plane closure its consumer forks anyway
// (Payload.Bytes), and a decode error surfaces at that closure's join. It
// still takes the one event the join would have, so the event schedule is
// the same either way.
//
// once is the single-pass scan: a one-shot scan over a pruned chunk list
// must not evict the working set iterative slab readers depend on, so it
// peeks the cache (no LRU promotion), never consults the tier and keeps
// nothing. Prefetch-staged bytes are still consumed and the readahead
// window still advances.
func (b *Bound) readChunk(dec chunkDecoder, once bool) (Payload, error) {
	off, stored := dec.off, dec.stored
	b.advance(off)
	held := b.cache != nil || b.tier != nil
	var dkey string
	if held {
		dkey = b.key('d', off, stored)
	}
	if v, ok := b.resident(dkey, once); ok {
		b.chunkHits.Inc()
		b.startPrefetch()
		return Payload{b: v}, nil
	}
	b.chunkMisses.Inc()
	raw, err := b.fetchRaw(off, stored)
	if err != nil {
		return Payload{}, err
	}
	if once || !held {
		b.p.Sleep(0)
		b.startPrefetch()
		return Payload{b: raw, deferred: true, dec: dec}, nil
	}
	// The closure is pure (validation + decompression of private bytes), so
	// it may overlap decodes from other tasks parked at the same virtual
	// instant. Cache Get/Put stay on the kernel thread, keeping the hit/miss
	// counters deterministic.
	var out []byte
	var derr error
	b.p.Await(b.p.Compute(func() { out, derr = dec.decode(raw) }))
	if derr != nil {
		return Payload{}, derr
	}
	if b.cache != nil {
		b.cache.Put(dkey, out)
	}
	if b.tier != nil {
		b.tier.MissOST(stored)
		b.tier.Admit(b.tnode, dkey, out, stored)
	}
	b.startPrefetch()
	return Payload{b: out}, nil
}

// resident looks the decoded chunk dkey up in the per-job cache, then in
// the cooperative tier: a local buffer hit is free, a peer hit charges its
// transfer inside Tier.Read. A single-pass scan only peeks the cache.
func (b *Bound) resident(dkey string, once bool) (v []byte, ok bool) {
	switch {
	case b.cache == nil:
	case once:
		v, ok = b.cache.peek(dkey)
	default:
		v, ok = b.cache.Get(dkey)
	}
	if ok || b.tier == nil || once {
		return v, ok
	}
	return b.tier.Read(b.p, b.tnode, dkey)
}

// fetchRaw returns the stored chunk bytes: wait out an in-flight
// prefetch, check the raw staging entries (peek — hit/miss counters
// track only the decompressed-chunk lookups), else read on the bound
// process.
func (b *Bound) fetchRaw(off, n int64) ([]byte, error) {
	if b.inflight != nil {
		if wg := b.inflight[off]; wg != nil {
			b.p.Wait(wg)
		}
	}
	if b.cache != nil {
		if raw, ok := b.cache.peek(b.key('r', off, n)); ok {
			b.prefetchHits.Inc()
			return raw, nil
		}
	}
	return b.r.ReadAt(b.p, off, n)
}

// advance moves the readahead window past the announced chunk at off.
func (b *Bound) advance(off int64) {
	for i := b.next; i < len(b.plan); i++ {
		if b.plan[i].Off == off {
			b.next = i + 1
			return
		}
	}
}

// startPrefetch issues background reads for up to Prefetch upcoming
// chunks of the announced plan that are neither cached nor in flight.
func (b *Bound) startPrefetch() {
	if b.prefetch <= 0 || b.next >= len(b.plan) {
		return
	}
	k := b.p.Kernel()
	issued := 0
	for i := b.next; i < len(b.plan) && issued < b.prefetch; i++ {
		rg := b.plan[i]
		if _, busy := b.inflight[rg.Off]; busy {
			issued++ // outstanding reads occupy the window
			continue
		}
		rkey := b.key('r', rg.Off, rg.Len)
		if b.cache.contains(b.key('d', rg.Off, rg.Len)) || b.cache.contains(rkey) {
			continue
		}
		wg := k.NewWaitGroup()
		wg.Add(1)
		b.inflight[rg.Off] = wg
		b.prefetchIssued.Inc()
		k.Go("ioengine/prefetch", func(pp *sim.Proc) {
			if raw, err := b.r.ReadAt(pp, rg.Off, rg.Len); err == nil {
				b.cache.Put(rkey, raw)
			}
			delete(b.inflight, rg.Off)
			wg.Done()
		})
		issued++
	}
}

// key builds a cache key: namespace, entry kind ('d' decompressed chunk,
// 'r' raw staged bytes), and the byte range.
func (b *Bound) key(kind byte, off, n int64) string {
	return fmt.Sprintf("%s#%c@%d+%d", b.name, kind, off, n)
}
