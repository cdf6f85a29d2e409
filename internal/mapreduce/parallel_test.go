package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scidp/internal/obs"
	"scidp/internal/sim"
)

// parallelRun executes one deterministic TeraSort-shaped job with the
// given data-plane worker count (-1 = no pool) and returns the result
// plus the raw observability exports. The map function forks one scan
// closure per reducer, so pooled runs genuinely emit from concurrent
// workers into disjoint buckets.
func parallelRun(t *testing.T, workers int, combine bool, faults TaskFaults) (*Result, []byte, []byte) {
	t.Helper()
	const rec, splitsN, recsPerSplit, reducers = 100, 4, 600, 3
	rng := rand.New(rand.NewSource(23))
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
	k := sim.NewKernel()
	k.SetComputePool(pool)
	reg := obs.New()
	reg.SetProcess("parallel-test")
	k.SetObs(reg)
	maxAttempts := 1
	var spec Speculation
	if faults != nil {
		maxAttempts = 3
		spec = Speculation{Quantile: 0.75, Multiplier: 1.5, MinCompleted: 2, Interval: 0.25}
	}
	job := &Job{
		Name:        "parallel-determinism",
		Cluster:     testCluster(k, 4, 2),
		TaskStartup: 0.1,
		Obs:         reg,
		Input:       byteRecords(splits),
		NumReducers: reducers,
		MaxAttempts: maxAttempts,
		Speculation: spec,
		Faults:      faults,
		PairBytes:   func(kv KV) int64 { return rec },
		Partition:   func(key string, n int) int { return int(key[0]) % n },
		Map: func(tc *TaskContext, key string, value any) error {
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
		},
		Reduce: func(tc *TaskContext, key string, values []any) error {
			tc.Emit(key, len(values))
			return nil
		},
	}
	if combine {
		job.Combine = func(tc *TaskContext, key string, values []any) error {
			// Re-emit pairs unchanged: exercises the combiner's
			// data-plane pre-sort without changing the output shape.
			for _, v := range values {
				tc.Emit(key, v)
			}
			return nil
		}
	}
	var res *Result
	var err error
	k.Go("driver", func(p *sim.Proc) { res, err = job.Run(p) })
	k.Run()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var tb, pb bytes.Buffer
	if err := reg.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	return res, tb.Bytes(), pb.Bytes()
}

// assertSameRun fails unless two runs match on everything the engine
// promises to keep worker-count invariant: output pairs,
// shuffle accounting, per-task stats, virtual duration, and both
// observability export streams, byte for byte.
func assertSameRun(t *testing.T, label string, ref, got *Result, refTrace, gotTrace, refProm, gotProm []byte) {
	t.Helper()
	if !reflect.DeepEqual(ref.Output, got.Output) {
		t.Errorf("%s: outputs differ (%d vs %d pairs)", label, len(ref.Output), len(got.Output))
	}
	if ref.ShuffleBytes != got.ShuffleBytes {
		t.Errorf("%s: shuffle bytes %d vs %d", label, ref.ShuffleBytes, got.ShuffleBytes)
	}
	if !reflect.DeepEqual(ref.MapStats, got.MapStats) || !reflect.DeepEqual(ref.ReduceStats, got.ReduceStats) {
		t.Errorf("%s: task stats differ", label)
	}
	if ref.Elapsed() != got.Elapsed() {
		t.Errorf("%s: virtual duration %v vs %v", label, ref.Elapsed(), got.Elapsed())
	}
	if !bytes.Equal(refTrace, gotTrace) {
		t.Errorf("%s: Chrome-trace exports differ", label)
	}
	if !bytes.Equal(refProm, gotProm) {
		t.Errorf("%s: Prometheus exports differ", label)
	}
}

// TestJobDeterministicAcrossWorkerCounts is the engine-level tentpole
// check: identical jobs at workers=1 and workers=8 produce byte-
// identical outputs, stats, and exports — with and without a combiner.
func TestJobDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, combine := range []bool{false, true} {
		name := "plain"
		if combine {
			name = "combiner"
		}
		t.Run(name, func(t *testing.T) {
			ref, refTrace, refProm := parallelRun(t, 1, combine, nil)
			if len(ref.Output) == 0 || ref.ShuffleBytes == 0 {
				t.Fatal("degenerate reference run")
			}
			for _, workers := range []int{0, 8} {
				got, gotTrace, gotProm := parallelRun(t, workers, combine, nil)
				assertSameRun(t, fmt.Sprintf("workers=%d", workers), ref, got, refTrace, gotTrace, refProm, gotProm)
			}
		})
	}
}

// TestJobDeterministicUnderFaults repeats the worker-count comparison
// with injected task failures and stragglers plus speculation enabled —
// retries and backup attempts must also be worker-count invariant.
func TestJobDeterministicUnderFaults(t *testing.T) {
	faults := stubFaults(func(phase string, task, attempt int) (error, float64) {
		if phase == "map" && task == 1 && attempt == 1 {
			return fmt.Errorf("injected map failure"), 1
		}
		if phase == "map" && task == 2 && attempt == 1 {
			return nil, 6 // straggler: speculation should back it up
		}
		if phase == "reduce" && task == 0 && attempt == 1 {
			return fmt.Errorf("injected reduce failure"), 1
		}
		return nil, 1
	})
	ref, refTrace, refProm := parallelRun(t, 1, false, faults)
	for _, workers := range []int{0, 4} {
		got, gotTrace, gotProm := parallelRun(t, workers, false, faults)
		assertSameRun(t, fmt.Sprintf("workers=%d", workers), ref, got, refTrace, gotTrace, refProm, gotProm)
	}
}

// TestPooledMatchesNoPoolOutput: a kernel nobody attached a pool to runs
// the pooled schedule inline, so the whole run — result, stats, trace and
// metrics exports — is the pooled run's, byte for byte.
func TestPooledMatchesNoPoolOutput(t *testing.T) {
	bare, bareTrace, bareProm := parallelRun(t, -1, false, nil)
	pooled, pooledTrace, pooledProm := parallelRun(t, 4, false, nil)
	assertSameRun(t, "no pool vs workers=4", bare, pooled, bareTrace, pooledTrace, bareProm, pooledProm)
}
