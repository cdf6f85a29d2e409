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

// BenchmarkTransferAll is the kernel's cost of a striped read: 32 readers,
// each pulling 8-part reads off 16 latency-charging targets over one
// shared fabric and its own NIC, until b.N reads have run. One op is one
// read: its start event, its flows' rebalances and their completions.
func BenchmarkTransferAll(b *testing.B) {
	const readers, stripes, targets = 32, 8, 16
	k := NewKernel()
	fabric := NewResource("fabric", 2.5e9)
	osts := make([]*Resource, targets)
	for i := range osts {
		osts[i] = NewResource("ost", 120e6)
		osts[i].Latency = 0.004
	}
	left := b.N
	for r := 0; r < readers; r++ {
		nic := NewResource("nic", 1.25e9)
		parts := make([]Part, stripes)
		for s := range parts {
			parts[s] = Part{Bytes: 1 << 17, Res: []*Resource{osts[(r+s)%targets], fabric, nic}}
		}
		k.Go("reader", func(p *Proc) {
			for left > 0 {
				left--
				p.TransferAll(parts...)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(k.EventsProcessed())/float64(b.N), "events/op")
}
