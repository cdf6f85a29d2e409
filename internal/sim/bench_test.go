package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkKernelFlows drains 10 000 staggered-start flows over a pool
// of 64 shared resources — roughly the whole population is concurrently
// active mid-run, so every start and completion rebalances a crowded
// fair-share set. It is the kernel's flow-scheduling cost in isolation
// (the benchmark's sim.flows_per_wall_s measures the same shape).
func BenchmarkKernelFlows(b *testing.B) {
	const flows, nRes = 10000, 64
	type flow struct {
		at, bytes float64
		r1, r2    int
	}
	rng := rand.New(rand.NewSource(7))
	work := make([]flow, flows)
	for i := range work {
		work[i] = flow{
			at:    rng.Float64() * 2,
			bytes: 1000 + rng.Float64()*9000,
			r1:    rng.Intn(nRes),
			r2:    rng.Intn(nRes),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		res := make([]*Resource, nRes)
		for j := range res {
			res[j] = NewResource("r", 1000)
		}
		completed := 0
		for _, f := range work {
			f := f
			k.After(f.at, func() {
				k.StartFlow(f.bytes, func() { completed++ }, res[f.r1], res[f.r2])
			})
		}
		k.Run()
		if completed != flows {
			b.Fatalf("kernel completed %d/%d flows", completed, flows)
		}
	}
	b.ReportMetric(float64(flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

// BenchmarkProcSwitch is the cost of one process switch: a single process
// yielding b.N times, each a wake-up event plus a hand-off to the kernel
// and back.
func BenchmarkProcSwitch(b *testing.B) {
	k := NewKernel()
	k.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSpawn is the cost of one short-lived process — spawn, one
// Sleep, exit — started twelve at a time by a driver that waits for the
// batch, the shape of a stage's slot workers.
func BenchmarkProcSpawn(b *testing.B) {
	const batch = 12
	k := NewKernel()
	k.Go("driver", func(p *Proc) {
		wg := k.NewWaitGroup()
		body := func(wp *Proc) {
			wp.Sleep(1)
			wg.Done()
		}
		for i := 0; i < b.N; i += batch {
			wg.Add(batch)
			for j := 0; j < batch; j++ {
				k.Go("worker", body)
			}
			p.Wait(wg)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
