package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var end float64
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		p.Sleep(1.5)
		end = p.Now()
	})
	k.Run()
	if !almostEqual(end, 4.0) {
		t.Fatalf("end = %v, want 4.0", end)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := NewKernel()
	k.Go("p", func(p *Proc) {
		p.Sleep(-5)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	k.Run()
}

func TestSingleFlowRate(t *testing.T) {
	k := NewKernel()
	disk := NewResource("disk", 100) // 100 B/s
	var done float64
	k.Go("reader", func(p *Proc) {
		p.Transfer(500, disk)
		done = p.Now()
	})
	k.Run()
	if !almostEqual(done, 5.0) {
		t.Fatalf("done = %v, want 5.0", done)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	k := NewKernel()
	disk := NewResource("disk", 100)
	ends := map[string]float64{}
	for _, name := range []string{"a", "b"} {
		name := name
		k.Go(name, func(p *Proc) {
			p.Transfer(500, disk)
			ends[name] = p.Now()
		})
	}
	k.Run()
	// Two equal flows on a 100 B/s resource each get 50 B/s: both end at 10 s.
	for name, at := range ends {
		if !almostEqual(at, 10.0) {
			t.Errorf("flow %s ended at %v, want 10.0", name, at)
		}
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	k := NewKernel()
	disk := NewResource("disk", 100)
	var longEnd, shortEnd float64
	k.Go("long", func(p *Proc) {
		p.Transfer(1000, disk)
		longEnd = p.Now()
	})
	k.Go("short", func(p *Proc) {
		p.Transfer(100, disk)
		shortEnd = p.Now()
	})
	k.Run()
	// Both start at 50 B/s. Short (100 B) ends at t=2. Long then has 900
	// remaining of 1000 minus 100 moved = 900 at full 100 B/s -> ends at 11.
	if !almostEqual(shortEnd, 2.0) {
		t.Errorf("short ended at %v, want 2.0", shortEnd)
	}
	if !almostEqual(longEnd, 11.0) {
		t.Errorf("long ended at %v, want 11.0", longEnd)
	}
}

func TestFlowJoiningMidway(t *testing.T) {
	k := NewKernel()
	disk := NewResource("disk", 100)
	var aEnd, bEnd float64
	k.Go("a", func(p *Proc) {
		p.Transfer(1000, disk)
		aEnd = p.Now()
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(5) // a moves 500 alone
		p.Transfer(250, disk)
		bEnd = p.Now()
	})
	k.Run()
	// From t=5 both at 50 B/s. b's 250 B end at t=10; a then has
	// 1000-500-250=250 left at 100 B/s -> t=12.5.
	if !almostEqual(bEnd, 10.0) {
		t.Errorf("b ended at %v, want 10.0", bEnd)
	}
	if !almostEqual(aEnd, 12.5) {
		t.Errorf("a ended at %v, want 12.5", aEnd)
	}
}

func TestMultiResourceBottleneck(t *testing.T) {
	k := NewKernel()
	fast := NewResource("fast", 1000)
	slow := NewResource("slow", 10)
	var end float64
	k.Go("p", func(p *Proc) {
		p.Transfer(100, fast, slow)
		end = p.Now()
	})
	k.Run()
	if !almostEqual(end, 10.0) {
		t.Fatalf("end = %v, want 10.0 (bottleneck on slow)", end)
	}
}

func TestPerFlowCap(t *testing.T) {
	k := NewKernel()
	link := NewResource("link", 1000)
	link.PerFlowCap = 100
	var end float64
	k.Go("p", func(p *Proc) {
		p.Transfer(500, link)
		end = p.Now()
	})
	k.Run()
	if !almostEqual(end, 5.0) {
		t.Fatalf("end = %v, want 5.0 (per-flow cap)", end)
	}
}

func TestLatencyCharged(t *testing.T) {
	k := NewKernel()
	disk := NewResource("disk", 100)
	disk.Latency = 0.25
	var end float64
	k.Go("p", func(p *Proc) {
		p.Transfer(100, disk)
		end = p.Now()
	})
	k.Run()
	if !almostEqual(end, 1.25) {
		t.Fatalf("end = %v, want 1.25 (0.25 latency + 1s transfer)", end)
	}
}

func TestZeroByteTransferCompletes(t *testing.T) {
	k := NewKernel()
	disk := NewResource("disk", 100)
	ran := false
	k.Go("p", func(p *Proc) {
		p.Transfer(0, disk)
		ran = true
		if p.Now() != 0 {
			t.Errorf("zero-byte transfer advanced time to %v", p.Now())
		}
	})
	k.Run()
	if !ran {
		t.Fatal("process never resumed after zero-byte transfer")
	}
}

func TestTransferAllParallelStripes(t *testing.T) {
	k := NewKernel()
	ost1 := NewResource("ost1", 100)
	ost2 := NewResource("ost2", 100)
	var end float64
	k.Go("client", func(p *Proc) {
		p.TransferAll(
			Part{Bytes: 400, Res: []*Resource{ost1}},
			Part{Bytes: 400, Res: []*Resource{ost2}},
		)
		end = p.Now()
	})
	k.Run()
	// Independent OSTs run in parallel: 400 B at 100 B/s each = 4 s, not 8.
	if !almostEqual(end, 4.0) {
		t.Fatalf("end = %v, want 4.0", end)
	}
}

func TestTransferAllEmpty(t *testing.T) {
	k := NewKernel()
	done := false
	k.Go("p", func(p *Proc) {
		p.TransferAll()
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("TransferAll with no parts never returned")
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	wg := k.NewWaitGroup()
	wg.Add(3)
	var waitedAt float64 = -1
	for i := 0; i < 3; i++ {
		d := float64(i + 1)
		k.Go("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	k.Go("waiter", func(p *Proc) {
		p.Wait(wg)
		waitedAt = p.Now()
	})
	k.Run()
	if !almostEqual(waitedAt, 3.0) {
		t.Fatalf("waiter resumed at %v, want 3.0", waitedAt)
	}
}

func TestWaitGroupZeroReturnsImmediately(t *testing.T) {
	k := NewKernel()
	wg := k.NewWaitGroup()
	done := false
	k.Go("p", func(p *Proc) {
		p.Wait(wg)
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("Wait on zero-count group blocked forever")
	}
}

func TestQueueFIFOAndClose(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue()
	var got []int
	k.Go("consumer", func(p *Proc) {
		for {
			v, ok := p.Pop(q)
			if !ok {
				return
			}
			got = append(got, v.(int))
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			p.Sleep(1)
			q.Push(i)
		}
		q.Close()
	})
	k.Run()
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got = %v, want 1..5 in order", got)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not propagate process panic")
		}
	}()
	k := NewKernel()
	k.Go("bad", func(p *Proc) { panic("boom") })
	k.Run()
}

func TestDeadlockDetected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not detect deadlocked process")
		}
	}()
	k := NewKernel()
	q := k.NewQueue()
	k.Go("stuck", func(p *Proc) {
		p.Pop(q) // deadlock: never pushed, never closed
	})
	k.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		k := NewKernel()
		disk := NewResource("disk", 100)
		nic := NewResource("nic", 80)
		var trace []float64
		for i := 0; i < 10; i++ {
			sz := float64(100 + 37*i)
			k.Go("p", func(p *Proc) {
				p.Transfer(sz, disk, nic)
				trace = append(trace, p.Now())
			})
		}
		k.Run()
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: run1[%d]=%v run2[%d]=%v", i, a[i], i, b[i])
		}
	}
}

// TestWorkConservation: on a single always-busy resource the makespan must
// equal total bytes / capacity, regardless of how the load is split across
// flows — the fair-share model must not create or destroy bandwidth.
func TestWorkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		var total float64
		var nonzero int
		for _, s := range sizes {
			total += float64(s)
			if s > 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			return true
		}
		k := NewKernel()
		disk := NewResource("disk", 100)
		var makespan float64
		for _, s := range sizes {
			sz := float64(s)
			if sz == 0 {
				continue
			}
			k.Go("p", func(p *Proc) {
				p.Transfer(sz, disk)
				if p.Now() > makespan {
					makespan = p.Now()
				}
			})
		}
		k.Run()
		return almostEqual(makespan, total/100)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRatesNeverExceedCapacity: at every completion instant the sum of
// rates on a shared resource must not exceed its capacity.
func TestRatesNeverExceedCapacity(t *testing.T) {
	k := NewKernel()
	disk := NewResource("disk", 100)
	check := func() {
		var sum float64
		for _, f := range k.flowHeap {
			crosses := false
			for _, r := range f.res {
				if r == disk {
					crosses = true
				}
			}
			if crosses {
				sum += f.rate
			}
		}
		if sum > 100+1e-6 {
			t.Errorf("aggregate rate %v exceeds capacity 100", sum)
		}
	}
	for i := 0; i < 7; i++ {
		sz := float64(50 * (i + 1))
		st := float64(i) * 0.3
		k.Go("p", func(p *Proc) {
			p.Sleep(st)
			p.Transfer(sz, disk)
			check()
		})
	}
	k.Run()
}

func TestRunTwice(t *testing.T) {
	k := NewKernel()
	var first, second float64
	k.Go("a", func(p *Proc) { p.Sleep(1); first = p.Now() })
	k.Run()
	k.Go("b", func(p *Proc) { p.Sleep(1); second = p.Now() })
	k.Run()
	if !almostEqual(first, 1) || !almostEqual(second, 2) {
		t.Fatalf("first=%v second=%v, want 1 and 2", first, second)
	}
}

func TestTracerRecordsFlows(t *testing.T) {
	k := NewKernel()
	tr := &Tracer{}
	k.SetTracer(tr)
	disk := NewResource("disk", 100)
	nic := NewResource("nic", 1000)
	k.Go("a", func(p *Proc) { p.Transfer(200, disk, nic) })
	k.Go("b", func(p *Proc) { p.Transfer(300, disk) })
	k.Run()
	if got := tr.BytesThrough("disk"); got != 500 {
		t.Fatalf("disk bytes = %v, want 500", got)
	}
	if got := tr.BytesThrough("nic"); got != 200 {
		t.Fatalf("nic bytes = %v, want 200", got)
	}
	busiest := tr.Busiest()
	if len(busiest) != 2 || busiest[0] != "disk" {
		t.Fatalf("busiest = %v", busiest)
	}
	if tr.String() == "" {
		t.Fatal("trace render empty")
	}
	starts, ends := 0, 0
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case "flow-start":
			starts++
		case "flow-end":
			ends++
		}
	}
	if starts != 2 || ends != 2 {
		t.Fatalf("starts=%d ends=%d", starts, ends)
	}
}

func TestTracerBounded(t *testing.T) {
	k := NewKernel()
	tr := &Tracer{MaxEvents: 3}
	k.SetTracer(tr)
	disk := NewResource("disk", 1000)
	k.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Transfer(10, disk)
		}
	})
	k.Run()
	if tr.Len() != 3 {
		t.Fatalf("events = %d, want bounded to 3", tr.Len())
	}
}

func TestNoTracerNoOverhead(t *testing.T) {
	k := NewKernel()
	disk := NewResource("disk", 100)
	k.Go("p", func(p *Proc) { p.Transfer(100, disk) })
	k.Run() // must not panic without a tracer
}
