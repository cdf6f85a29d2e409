package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestNoPoolIsTheInlinePool: a kernel nobody attached a pool to runs the
// one schedule — Compute hands back a resolved future, Await joins through
// its event — so its event count and flow trace are those of a kernel with
// NewComputePool(0), and of any worker count.
func TestNoPoolIsTheInlinePool(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) {
		ran := false
		fut := p.Compute(func() { ran = true })
		if fut == nil || !ran {
			t.Errorf("Compute with no pool attached: future %v, ran %v; want a resolved future", fut, ran)
		}
		before := k.EventsProcessed()
		p.Await(fut)
		if k.EventsProcessed() != before+1 {
			t.Error("Await of a resolved future did not join through one event")
		}
	})
	k.Run()

	ref, refEvents, refTrace := computeTimeline(nil)
	for _, workers := range []int{0, 2} {
		pool := NewComputePool(workers)
		got, events, trace := computeTimeline(pool)
		pool.Close()
		if events != refEvents || trace != refTrace || !slices.Equal(got, ref) {
			t.Errorf("workers=%d: %d events, no pool %d; timelines equal %v, traces equal %v",
				workers, events, refEvents, slices.Equal(got, ref), trace == refTrace)
		}
	}
}

// TestComputeForkJoin drives many processes forking many closures
// through a real worker pool and checks every result joins back intact.
// Under -race this is the pool's memory-visibility test: the results
// slice is written by workers and read on the kernel thread after Await.
func TestComputeForkJoin(t *testing.T) {
	pool := NewComputePool(4)
	defer pool.Close()
	k := NewKernel()
	k.SetComputePool(pool)
	const procs, tasks = 8, 16
	results := make([][]int, procs)
	for pi := 0; pi < procs; pi++ {
		pi := pi
		results[pi] = make([]int, tasks)
		k.Go(fmt.Sprintf("p%d", pi), func(p *Proc) {
			futs := make([]*Future, tasks)
			for i := 0; i < tasks; i++ {
				i := i
				futs[i] = p.Compute(func() { results[pi][i] = pi*1000 + i*i })
			}
			p.Sleep(0.001) // overlap the joins across processes
			p.Await(futs...)
			for i := 0; i < tasks; i++ {
				if results[pi][i] != pi*1000+i*i {
					t.Errorf("proc %d task %d = %d", pi, i, results[pi][i])
				}
			}
		})
	}
	k.Run()
}

// computeTimeline runs a fixed mix of sleeps, fork-joins, and transfers
// on pool (nil = none attached) and returns every (proc, virtual time)
// resume observation, the event count and the flow trace — the
// worker-count invariance probe.
func computeTimeline(pool *ComputePool) ([]string, uint64, string) {
	k := NewKernel()
	k.SetComputePool(pool)
	tr := &Tracer{}
	k.SetTracer(tr)
	disk := NewResource("disk", 1e6)
	var log []string
	for pi := 0; pi < 4; pi++ {
		pi := pi
		k.Go(fmt.Sprintf("p%d", pi), func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Sleep(0.01 * float64(pi))
				var sum int
				futs := []*Future{
					p.Compute(func() { sum += busyWork(pi + round) }),
					p.Compute(func() { _ = busyWork(round) }),
				}
				p.Transfer(1000, disk)
				p.Await(futs...)
				log = append(log, fmt.Sprintf("p%d r%d t=%.6f sum=%d", pi, round, p.Now(), sum))
			}
		})
	}
	k.Run()
	return log, k.EventsProcessed(), tr.String()
}

// busyWork burns real CPU so pooled runs genuinely overlap.
func busyWork(seed int) int {
	x := seed
	for i := 0; i < 2000; i++ {
		x = x*1103515245 + 12345
	}
	if x == 0 {
		return 1
	}
	return seed * seed
}

// TestComputeWorkerCountInvariance is the tentpole guarantee: the same
// simulation produces identical resume timelines (virtual times, order,
// results) with an inline pool, one worker, and many workers.
func TestComputeWorkerCountInvariance(t *testing.T) {
	ref, _, _ := computeTimeline(nil)
	if len(ref) != 12 {
		t.Fatalf("timeline has %d entries, want 12", len(ref))
	}
	for _, workers := range []int{1, 4} {
		pool := NewComputePool(workers)
		got, _, _ := computeTimeline(pool)
		pool.Close()
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d entries, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d entry %d: %q, want %q", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestComputePanicPropagates verifies a data-plane panic re-raises in
// the awaiting process's context, so the kernel attributes the failure
// to the right process deterministically.
func TestComputePanicPropagates(t *testing.T) {
	pool := NewComputePool(2)
	defer pool.Close()
	k := NewKernel()
	k.SetComputePool(pool)
	k.Go("fated", func(p *Proc) {
		p.Await(p.Compute(func() { panic("chunk exploded") }))
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("kernel did not propagate the data-plane panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "fated") || !strings.Contains(msg, "chunk exploded") {
			t.Fatalf("panic %q does not name the process and cause", msg)
		}
	}()
	k.Run()
}

// TestComputePoolCloseIdempotent pins Close semantics: double Close is
// fine, and closing an unused pool is fine.
func TestComputePoolCloseIdempotent(t *testing.T) {
	p := NewComputePool(2)
	p.Close()
	p.Close()
	unused := NewComputePool(3)
	unused.Close()
	if w := NewComputePool(-5).Workers(); w != 0 {
		t.Fatalf("negative worker count normalized to %d, want 0", w)
	}
}

// Workers reports the pool's configured worker count (0 = inline).
func (cp *ComputePool) Workers() int { return cp.workers }
