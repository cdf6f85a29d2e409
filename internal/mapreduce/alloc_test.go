//go:build !race

package mapreduce

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"scidp/internal/sim"
)

// The race detector's shadow allocations, and its sync.Pool (fmt's
// printers, which task labels use) dropping a quarter of its Puts, mean
// the steady state these guards measure does not exist under -race.

// distinctKeysJob emits n distinct keys from one split to one reducer
// without allocating per record, so what remains is the engine's own.
func distinctKeysJob(k *sim.Kernel, keys []string) *Job {
	return &Job{
		Name:        "distinct",
		Cluster:     testCluster(k, 1, 1),
		Input:       &memInput{splits: []*Split{{Label: "s0", Payload: []string{""}, Length: 1}}},
		NumReducers: 1,
		Map: func(tc *TaskContext, key string, value any) error {
			for _, key := range keys {
				tc.Emit(key, 1)
			}
			return nil
		},
		Reduce: func(tc *TaskContext, key string, values []any) error {
			tc.Emit(key, len(values))
			return nil
		},
	}
}

// TestReduceOutputAllocatesOncePerSlice is the tier-1 guard against a
// return to append-doubling on the reduce side: the reducer's local
// output, the job's Output and a run's span index are each made once at
// their known size, so a job's malloc count does not grow with its group
// count (the map-side run buffer is recycled by the warm-up run).
func TestReduceOutputAllocatesOncePerSlice(t *testing.T) {
	// No collection while measuring: a GC empties fmt's printer pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(n int) float64 {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%07d", i)
		}
		return testing.AllocsPerRun(5, func() {
			k := sim.NewKernel()
			job := distinctKeysJob(k, keys)
			var res *Result
			var err error
			k.Go("driver", func(p *sim.Proc) { res, err = job.Run(p) })
			k.Run()
			if err != nil || len(res.Output) != n {
				t.Fatalf("job = %d groups, %v; want %d", len(res.Output), err, n)
			}
		})
	}
	small, large := mallocs(1<<10), mallocs(1<<16)
	// 64x the groups: append-doubling local and Output alone adds 15.
	if grew := large - small; grew > 2 {
		t.Fatalf("mallocs per job grew by %.0f from 2^10 to 2^16 groups (%.0f -> %.0f), want <= 2", grew, small, large)
	}
}

// TestIdleSlotsCostNothing: a one-task stage allocates as much on a 16x8
// cluster as on a 2x1 one. The stage's one start event starts the slot
// that takes the task and skips every slot that then finds the stage
// drained, so an idle slot costs no process, no body closure and no name
// closure. When every slot had a process of its own, the 16x8 stage
// allocated 140 more than the 2x1 one (164 against 24): one a slot, its
// body closure, and one a node, its name closure; the processes came off
// the kernel's idle list.
func TestIdleSlotsCostNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(nodes, slots int) (n float64) {
		// One driver runs every stage, as a job's does, so the kernel's
		// event queue and idle processes are warm after the first.
		k := sim.NewKernel()
		job := &Job{Name: "idle", Cluster: testCluster(k, nodes, slots)}
		k.Go("driver", func(p *sim.Proc) {
			n = testing.AllocsPerRun(5, func() { oneTaskStage(t, p, job) })
		})
		k.Run()
		return n
	}
	if small, large := mallocs(2, 1), mallocs(16, 8); large != small {
		t.Fatalf("a one-task stage allocated %.0f times on 2x1 slots and %.0f on 16x8, want the same", small, large)
	}
}

// TestSortRunReusesItsScratch: once one run of a size has been sorted,
// sorting another costs no allocation, with two collections between the
// sorts — the index stays on its free list, which a collection leaves
// alone, and the pairs are permuted in place.
func TestSortRunReusesItsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{40, 1310, 2621, 20000} {
		run := drawRun(rng, randomKeys(rng, n, 10), n)
		if runIsSorted(run) {
			t.Fatalf("the random run of %d pairs needs no sorting", n)
		}
		work := make([]KV, n)
		// AllocsPerRun's own warm-up call fills the free list.
		if mallocs := testing.AllocsPerRun(5, func() {
			runtime.GC()
			runtime.GC()
			copy(work, run)
			sortRun(work)
		}); mallocs != 0 {
			t.Errorf("sortRun of %d pairs allocated %.0f times after warm-up, want 0", n, mallocs)
		}
	}
}

// TestSortRunLeavesASortedRunAlone: a run already in order is recognised
// before any scratch is drawn. With the free list drained, drawing from
// it would have to allocate, whatever the run's size.
func TestSortRunLeavesASortedRunAlone(t *testing.T) {
	for _, n := range []int{0, 1, 40, 1 << 17} {
		run := make([]KV, n)
		for i := range run {
			run[i] = KV{K: fmt.Sprintf("key-%07d", i/2), V: i}
		}
		for sortScratches.Get() != nil {
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sortRun(run)
		runtime.ReadMemStats(&after)
		if mallocs := after.Mallocs - before.Mallocs; mallocs != 0 {
			t.Errorf("sortRun of a sorted run of %d pairs allocated %d times on an empty free list, want 0", n, mallocs)
		}
	}
}

// TestStageCostsLittlePerTask: once warm, a stage of 64 located tasks
// allocates at most perTask more a task than a stage of one. What a task
// still costs is its attempt's TaskContext and its Phases; its queue
// entry is part of the Task, and the stage's queue lists and committed
// stats grow a few times a stage, not once a task.
func TestStageCostsLittlePerTask(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	k := sim.NewKernel()
	job := &Job{Name: "located", Cluster: testCluster(k, 4, 2)}
	commit := func() {}
	tasks := make([]*Task, 64)
	for i := range tasks {
		tasks[i] = &Task{Label: "t", Locations: []string{job.Cluster.Nodes[i%4].Name},
			Run: func(tc *TaskContext) (func(), error) {
				tc.Charge("Work", 1)
				return commit, nil
			}}
	}
	stage := func(p *sim.Proc, n int) {
		next := 0
		err := job.RunStage(p, "map", func(*sim.Proc) (*Task, error) {
			if next == n {
				return nil, nil
			}
			next++
			return tasks[next-1], nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	var one, many float64
	k.Go("driver", func(p *sim.Proc) {
		one = testing.AllocsPerRun(5, func() { stage(p, 1) })
		many = testing.AllocsPerRun(5, func() { stage(p, len(tasks)) })
	})
	k.Run()
	// Measured 2.41 a task: its TaskContext and its Phases, and the queue
	// lists' growth spread over the stage. With a queue entry allocated
	// a push, Phases grown from one and stats doubling it was 3.54.
	const perTask = 3.0
	if got := (many - one) / float64(len(tasks)-1); got > perTask {
		t.Fatalf("a stage of %d located tasks allocated %.0f times, one of 1 task %.0f: %.2f a task, want <= %.1f",
			len(tasks), many, one, got, perTask)
	}
}

// TestBufRecycleAllocatesNothing: a warm Get and Put of a run buffer, a
// span index or a value buffer allocate nothing, with two collections
// between recycles: the free lists keep what a collection would empty
// from a sync.Pool, and a Put that boxed a fresh slice header would
// allocate once a recycled buffer.
func TestBufRecycleAllocatesNothing(t *testing.T) {
	putCleared(&kvBufs, make([]KV, 0, 8))
	spanBufs.Put(make([]uint32, 0, 8))
	putCleared(&valBufs, make([]any, 0, 8))
	if n := testing.AllocsPerRun(20, func() {
		runtime.GC()
		runtime.GC()
		putCleared(&kvBufs, append(kvBufs.Get(), KV{K: "k"}))
		spanBufs.Put(append(spanBufs.Get(), 1)[:0])
		putCleared(&valBufs, append(valBufs.Get(), true))
	}); n != 0 {
		t.Fatalf("a warm recycle allocated %.0f times, want 0", n)
	}
}
