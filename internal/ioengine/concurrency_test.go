package ioengine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"scidp/internal/obs"
	"scidp/internal/sim"
)

// These tests pin the package's concurrency contract: Stats, Trace,
// Bound, and the chunk-read counters are mutated only from kernel
// context — chunk decodes offload to the data plane, but every cache
// Get/Put and counter increment stays on the kernel thread in event
// order — so the totals are race-free and deterministic at any worker
// count. The Cache itself is additionally safe for arbitrary concurrent
// use (its one mutex); TestCacheConcurrentAccess hammers that from real
// goroutines. `make race` runs this package under the race detector; a
// contract violation shows up here as a detected race or as a counter
// divergence between runs.

// contendedRun drives many processes through one shared Trace, Cache,
// and prefetching Bound on a single kernel, and returns the final
// counter values: the Trace's and the Bound's chunk-read hits and misses. The readers start a beat apart: started together they
// would all reach the first decode's join before its Put, and nobody
// would hit. workers sizes the pool that decodes the chunks (0 = none
// attached, the inline schedule).
func contendedRun(procs, chunks, workers int) (Trace, float64, float64) {
	k := sim.NewKernel()
	if workers > 0 {
		pool := sim.NewComputePool(workers)
		defer pool.Close()
		k.SetComputePool(pool)
	}
	reg := obs.New()
	k.SetObs(reg)
	const chunkSz = 64
	data := make([]byte, chunks*chunkSz)
	for i := range data {
		data[i] = byte(i)
	}
	eng := &Trace{R: &slowReader{data: data, latency: 0.001}}
	cache := NewCache(0)
	for pi := 0; pi < procs; pi++ {
		k.Go(fmt.Sprintf("reader-%d", pi), func(p *sim.Proc) {
			p.Sleep(0.002 * float64(pi))
			b := Bind(p, eng, Options{Cache: cache, Prefetch: 2, Obs: reg})
			plan := make([]Range, chunks)
			for i := range plan {
				plan[i] = Range{Off: int64(i) * chunkSz, Len: chunkSz}
			}
			b.Announce(plan)
			for i := 0; i < chunks; i++ {
				if _, err := decoded(b.readChunk(rawChunk(int64(i)*chunkSz, chunkSz), false)); err != nil {
					panic(err)
				}
			}
		})
	}
	k.Run()
	hits, misses := chunkReads(reg)
	return Trace{BytesRead: eng.BytesRead, Calls: eng.Calls}, hits, misses
}

func TestCountersDeterministicUnderKernelConcurrency(t *testing.T) {
	tr1, h1, m1 := contendedRun(8, 16, 0)
	for _, workers := range []int{0, 1, 4} {
		tr2, h2, m2 := contendedRun(8, 16, workers)
		if tr1 != tr2 {
			t.Fatalf("workers=%d: Trace counters diverged: %+v vs %+v", workers, tr1, tr2)
		}
		if h1 != h2 || m1 != m2 {
			t.Fatalf("workers=%d: registry counters diverged: hit %v/%v miss %v/%v", workers, h1, h2, m1, m2)
		}
	}
	if tr1.Calls == 0 || h1 == 0 || m1 == 0 {
		t.Fatalf("degenerate run: trace=%+v, %v hits, %v misses", tr1, h1, m1)
	}
	if h1+m1 != 8*16 {
		t.Fatalf("chunk reads = %v, want %v", h1+m1, 8*16)
	}
}

func TestStatsDeterministicAcrossInterleavedProcs(t *testing.T) {
	run := func() (Stats, Stats) {
		k := sim.NewKernel()
		eng := &slowReader{data: make([]byte, 4096), latency: 0.0007}
		var a, b Stats
		k.Go("a", func(p *sim.Proc) {
			s := Bind(p, eng, Options{})
			a.R = s
			for i := 0; i < 10; i++ {
				a.ReadAt(int64(i)*64, 64)
			}
		})
		k.Go("b", func(p *sim.Proc) {
			s := Bind(p, eng, Options{})
			b.R = s
			for i := 0; i < 7; i++ {
				b.ReadAt(int64(i)*128, 128)
			}
		})
		k.Run()
		a.R, b.R = nil, nil // compare counters only
		return a, b
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("Stats diverged: %+v/%+v vs %+v/%+v", a1, b1, a2, b2)
	}
	if a1.Calls != 10 || a1.BytesRead != 640 || b1.Calls != 7 || b1.BytesRead != 896 {
		t.Fatalf("unexpected totals: %+v %+v", a1, b1)
	}
}

// TestCountersDeterministicAcrossWorkerCounts re-runs the contended
// read mix through the two-plane engine: chunk decodes offload to the
// pool, yet every counter — trace, registry — must match between
// one worker and many.
func TestCountersDeterministicAcrossWorkerCounts(t *testing.T) {
	tr1, h1, m1 := contendedRun(8, 16, 1)
	tr2, h2, m2 := contendedRun(8, 16, 8)
	if tr1 != tr2 {
		t.Fatalf("Trace counters diverged across worker counts: %+v vs %+v", tr1, tr2)
	}
	if h1 != h2 || m1 != m2 {
		t.Fatalf("registry counters diverged: hit %v/%v miss %v/%v", h1, h2, m1, m2)
	}
	if h1+m1 != 8*16 {
		t.Fatalf("chunk reads = %v, want %v", h1+m1, 8*16)
	}
}

// TestCacheConcurrentAccess hammers one cache from real goroutines with
// overlapping keys — the thread-safety half of the cache contract. Run
// under -race this validates the one mutex; the final state must be
// internally consistent regardless of interleaving.
func TestCacheConcurrentAccess(t *testing.T) {
	cache := NewCache(1 << 16)
	const goroutines, ops, keys = 8, 2000, 64
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := make([]byte, 128)
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("chunk-%d", (g*31+i)%keys)
				switch i % 3 {
				case 0:
					cache.Put(key, val)
				case 1:
					if _, ok := cache.Get(key); ok {
						hits.Add(1)
					}
				default:
					cache.contains(key)
				}
			}
		}()
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("no Get found an entry")
	}
	if b, n := cache.resident(); n != keys || b != n*128 {
		t.Fatalf("inconsistent final state: %d bytes in %d entries, want %d 128-byte entries", b, n, keys)
	}
}
