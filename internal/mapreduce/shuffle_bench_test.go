package mapreduce

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"scidp/internal/obs"
	"scidp/internal/sim"
)

// benchRuns builds numRuns sorted runs of perRun pairs each, with keys
// drawn from a shared space so duplicates straddle runs — the shape a
// combiner-fed reducer sees.
func benchRuns(numRuns, perRun int) [][]KV {
	rng := rand.New(rand.NewSource(7))
	runs := make([][]KV, numRuns)
	for r := range runs {
		kvs := make([]KV, perRun)
		for i := range kvs {
			kvs[i] = KV{K: fmt.Sprintf("key-%05d", rng.Intn(perRun*2)), V: i}
		}
		sortRun(kvs)
		runs[r] = kvs
	}
	return runs
}

// uniqueRuns builds numRuns sorted runs of perRun random ten-byte keys,
// none repeated — what a TeraSort reducer merges: every group is one pair,
// so the heap sifts once per record.
func uniqueRuns(numRuns, perRun int) [][]KV {
	rng := rand.New(rand.NewSource(7))
	runs := make([][]KV, numRuns)
	for r := range runs {
		runs[r] = make([]KV, perRun)
		for i, k := range randomKeys(rng, perRun, 10) {
			runs[r][i] = KV{K: k, V: i}
		}
		sortRun(runs[r])
	}
	return runs
}

// BenchmarkShuffleMerge compares the reducer-side data plane on identical
// sorted runs: the merge reducers run — index each run's groups, then the
// span-level k-way merge with a pooled value buffer — versus the pre-PR
// concat + sort.SliceStable + per-key []any path. (In a reducer the
// indexing overlaps the shuffle's flows on the data plane; here it is
// serial and billed to the loop.) merge-unique is the merge on a TeraSort
// reducer's input, 16 runs of 1 310 unique keys.
func BenchmarkShuffleMerge(b *testing.B) {
	const numRuns, perRun = 8, 4096
	runs := benchRuns(numRuns, perRun)
	merge := func(runs [][]KV) func(b *testing.B) {
		pairs := 0
		for _, r := range runs {
			pairs += len(r)
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			var vals []any
			for i := 0; i < b.N; i++ {
				n := 0
				if err := mergeRuns(runs, &vals, func(key string, vs []any) error {
					n += len(vs)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				if n != pairs {
					b.Fatalf("consumed %d pairs, want %d", n, pairs)
				}
			}
		}
	}
	b.ResetTimer() // building the runs is setup, not the merge
	b.Run("merge", merge(runs))
	b.Run("merge-unique", merge(uniqueRuns(16, 1310)))
	b.Run("concat-sort-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := concatSortGroups(runs, func(key string, vs []any) error {
				n += len(vs)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			if n != numRuns*perRun {
				b.Fatalf("consumed %d pairs, want %d", n, numRuns*perRun)
			}
		}
	})
}

// BenchmarkPartition compares the inlined FNV-1a partitioner against the
// old per-key fnv.New32a hasher.
func BenchmarkPartition(b *testing.B) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("plot_18_%02d_00.nc/QR#%d", i%24, i)
	}
	b.Run("inline", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += defaultPartition(keys[i%len(keys)], 8)
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	})
	b.Run("hasher-baseline", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += hasherPartition(keys[i%len(keys)], 8)
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	})
}

// byteRecords is an InputFormat whose splits carry pre-built byte
// payloads of fixed-width records (the TeraSort shape).
type byteRecords []*Split

func (s byteRecords) Splits(p *sim.Proc) ([]*Split, error) { return s, nil }

func (s byteRecords) ForEach(tc *TaskContext, sp *Split, fn func(key string, value any) error) error {
	return fn(sp.Label, sp.Payload)
}

// benchTeraSort runs the full TeraSort-shaped job — map emits every
// 100-byte record keyed by its 10-byte prefix, 4 reducers merge and
// count — through the whole engine (scheduling, partitioning, shuffle,
// sort-merge, reduce). withObs attaches a fresh metrics registry (and
// kernel span tracer) per iteration, measuring the instrumented path.
// workers < 0 attaches no pool (the inline schedule); workers >= 0
// attaches a ComputePool of that size, and the map
// function forks one scan closure per reducer — each closure extracts
// only its own bucket's records in record order, so buckets (and the
// job output) are identical to a serial scan.
func benchTeraSort(b *testing.B, withObs bool, workers, splitsN, recsPerSplit int) {
	const rec = 100
	const reducers = 4
	rng := rand.New(rand.NewSource(11))
	splits := make([]*Split, splitsN)
	for i := range splits {
		data := make([]byte, recsPerSplit*rec)
		rng.Read(data)
		for off := 0; off < len(data); off += rec {
			for j := 0; j < 10; j++ {
				data[off+j] = 'A' + data[off+j]%26
			}
		}
		splits[i] = &Split{Label: fmt.Sprintf("t%d", i), Payload: data, Length: int64(len(data))}
	}
	var pool *sim.ComputePool
	if workers >= 0 {
		pool = sim.NewComputePool(workers)
		defer pool.Close()
	}
	// The serial shape is exactly PR 4's job (single-scan map, range
	// partition); the pooled shape spreads keys with a modulo partition
	// and forks one scan closure per reducer — closure r emits only
	// bucket r's records, in record order, so the closures write
	// disjoint buckets and can run concurrently on the data plane.
	partition := func(key string, n int) int { return int(key[0]) * n / 256 }
	mapFn := func(tc *TaskContext, key string, value any) error {
		data := value.([]byte)
		for off := 0; off+rec <= len(data); off += rec {
			tc.Emit(string(data[off:off+10]), data[off:off+rec])
		}
		return nil
	}
	if workers >= 0 {
		partition = func(key string, n int) int { return int(key[0]) % n }
		mapFn = func(tc *TaskContext, key string, value any) error {
			data := value.([]byte)
			p := tc.Proc()
			futs := make([]*sim.Future, 0, reducers)
			for r := 0; r < reducers; r++ {
				r := r
				futs = append(futs, p.Compute(func() {
					for off := 0; off+rec <= len(data); off += rec {
						if int(data[off])%reducers != r {
							continue
						}
						tc.Emit(string(data[off:off+10]), data[off:off+rec])
					}
				}))
			}
			p.Await(futs...)
			return nil
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		k.SetComputePool(pool)
		var reg *obs.Registry
		if withObs {
			reg = obs.New()
			k.SetObs(reg)
		}
		var total int
		job := &Job{
			Name:        "terasort-wall",
			Cluster:     testCluster(k, 4, 2),
			TaskStartup: 0.1,
			Obs:         reg,
			Input:       byteRecords(splits),
			NumReducers: reducers,
			PairBytes:   func(kv KV) int64 { return rec },
			Partition:   partition,
			Map:         mapFn,
			Reduce: func(tc *TaskContext, key string, values []any) error {
				total += len(values)
				tc.Emit(key, len(values))
				return nil
			},
		}
		var res *Result
		var err error
		k.Go("driver", func(p *sim.Proc) { res, err = job.Run(p) })
		k.Run()
		if err != nil {
			b.Fatal(err)
		}
		if total != splitsN*recsPerSplit {
			b.Fatalf("reduced %d records, want %d", total, splitsN*recsPerSplit)
		}
		if res.Elapsed() <= 0 {
			b.Fatal("no virtual time elapsed")
		}
		if withObs && reg.SpanCount() == 0 {
			b.Fatal("attached run recorded no spans")
		}
	}
	b.ReportMetric(float64(b.N*splitsN*recsPerSplit)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTeraSortWall measures the engine's real wall-clock. The
// serial sub-benchmark runs the PR 4 geometry with no data plane (every
// instrumentation site takes the nil fast path — the pair of
// BenchmarkTeraSortWallObs). The workers=N family runs a larger geometry
// through the two-plane executor; speedup over workers=1 tracks the machine's
// core count on the map/sort phases (on a single-core host all worker
// counts are within noise of each other, by design — determinism never
// depends on the count).
func BenchmarkTeraSortWall(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTeraSort(b, false, -1, 4, 2000) })
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchTeraSort(b, false, w, 8, 6000)
		})
	}
}

// BenchmarkTeraSortWallObs is the serial job with metrics and spans on.
func BenchmarkTeraSortWallObs(b *testing.B) { benchTeraSort(b, true, -1, 4, 2000) }
