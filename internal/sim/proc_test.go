package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scidp/internal/obs"
)

// settleGoroutines waits for released process goroutines to finish exiting
// and fails if more than want are left.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		t.Fatalf("%d goroutines after Run, want %d", n, want)
	}
}

// runPanics runs the kernel and returns what Run panicked with ("" if it
// returned).
func runPanics(k *Kernel) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	k.Run()
	return ""
}

// Every exit from Run releases the goroutines of finished processes; only
// a process still blocked mid-body keeps its own.
func TestRunReleasesFinishedProcesses(t *testing.T) {
	spawn := func(k *Kernel, n int) {
		for i := 0; i < n; i++ {
			k.Go("short", func(p *Proc) { p.Sleep(1) })
		}
	}
	t.Run("return", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		k.Go("driver", func(p *Proc) {
			for wave := 0; wave < 3; wave++ {
				spawn(k, 20)
				p.Sleep(2)
			}
		})
		k.Run()
		settleGoroutines(t, base)
		spawn(k, 5) // and again after a Run that released everything
		k.Run()
		settleGoroutines(t, base)
	})
	t.Run("process failure", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		spawn(k, 20)
		k.Go("bad", func(p *Proc) {
			p.Sleep(2)
			panic("boom")
		})
		if msg := runPanics(k); !strings.Contains(msg, `process "bad" panicked: boom`) {
			t.Fatalf("Run panicked with %q", msg)
		}
		settleGoroutines(t, base)
	})
	t.Run("deadlock", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		spawn(k, 20)
		q := k.NewQueue()
		k.Go("stuck", func(p *Proc) { p.Pop(q) })
		if msg := runPanics(k); !strings.Contains(msg, "deadlock") {
			t.Fatalf("Run panicked with %q", msg)
		}
		settleGoroutines(t, base+1) // "stuck" is still mid-body
	})
	t.Run("goexit", func(t *testing.T) {
		// t.Fatal in a process ends its goroutine: the kernel must carry
		// on, and must not hand the dead goroutine a new body.
		base := runtime.NumGoroutine()
		k := NewKernel()
		ran := 0
		k.Go("driver", func(p *Proc) {
			k.Go("fatal", func(*Proc) { runtime.Goexit() })
			p.Sleep(1)
			k.Go("next", func(*Proc) { ran++ })
		})
		k.Run()
		if ran != 1 {
			t.Fatalf("the process started after a Goexit ran %d times", ran)
		}
		settleGoroutines(t, base)
	})
}

func TestRecycledProcStartsClean(t *testing.T) {
	k := NewKernel()
	reg := obs.New()
	k.SetObs(reg)
	var first, second *Proc
	k.Go("driver", func(p *Proc) {
		first = k.Go("first", func(fp *Proc) { fp.SetSpan(reg.StartSpan("s", "test", nil)) })
		p.Sleep(1)
		second = k.GoNamed(func() string { return "second" }, func(sp *Proc) {
			if sp.Span() != nil {
				t.Error("a recycled process inherited its predecessor's span")
			}
			if sp.Name() != "second" {
				t.Errorf("recycled process is named %q", sp.Name())
			}
		})
	})
	k.Run()
	if first != second {
		t.Fatal("the second process did not reuse the first's Proc")
	}
}

// scidpd -http calls Run from whichever handler goroutine holds the
// service lock; -race checks the hand-off and the idle list across them.
func TestRunFromDifferentGoroutinesInTurn(t *testing.T) {
	k := NewKernel()
	var mu sync.Mutex
	var wg sync.WaitGroup
	total := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for turn := 0; turn < 5; turn++ {
				mu.Lock()
				k.Go("driver", func(p *Proc) {
					done := k.NewWaitGroup()
					done.Add(4)
					for i := 0; i < 4; i++ {
						k.Go("worker", func(wp *Proc) {
							wp.Sleep(1)
							total++
							done.Done()
						})
					}
					p.Wait(done)
				})
				k.Run()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if total != 8*5*4 {
		t.Fatalf("ran %d workers, want %d", total, 8*5*4)
	}
}

func TestLazyNameIsFormattedOnlyWhenRead(t *testing.T) {
	k := NewKernel()
	formatted := 0
	name := func() string {
		formatted++
		return fmt.Sprintf("%s/%s/%s-worker", "grep", "map", "node-3")
	}
	k.GoNamed(name, func(p *Proc) { p.Sleep(1) })
	k.Run()
	if formatted != 0 {
		t.Fatalf("the name of a process nobody asked about was formatted %d times", formatted)
	}
	k.GoNamed(name, func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	if msg, want := runPanics(k), `sim: process "grep/map/node-3-worker" panicked: boom`; msg != want {
		t.Fatalf("Run panicked with %q, want %q", msg, want)
	}
}

// The process primitives allocate nothing once the event queue, the
// waiter lists and the kernel's free lists have grown, and neither does
// starting a process on a recycled Proc: a flow, a striped read over two
// latency instants, a fork and a join on either pool cost no allocation
// beyond what the caller brings (every closure here is built once).
func TestProcSteadyStateAllocs(t *testing.T) {
	pool := NewComputePool(2)
	defer pool.Close()
	k := NewKernel()
	disk, nic := NewResource("disk", 1e6), NewResource("nic", 2e6)
	slow, fast := NewResource("slow", 1e6), NewResource("fast", 1e6)
	slow.Latency, fast.Latency = 0.002, 0.001
	parts := []Part{
		{Bytes: 1000, Res: []*Resource{slow, nic}},
		{Bytes: 2000, Res: []*Resource{disk, nic}},
		{Bytes: 1000, Res: []*Resource{fast, nic}},
		{Bytes: 500, Res: []*Resource{slow, disk}},
	}
	got := map[string]float64{}
	k.Go("measured", func(p *Proc) {
		measure := func(name string, fn func()) { got[name] = testing.AllocsPerRun(100, fn) }
		measure("Sleep", func() { p.Sleep(0.5) })

		wg := k.NewWaitGroup()
		done := wg.Done
		measure("Wait/Done", func() {
			wg.Add(1)
			k.After(1, done)
			p.Wait(wg)
		})

		body := func(wp *Proc) { wp.Sleep(1) }
		measure("spawn and exit", func() {
			k.Go("short", body)
			p.Sleep(2)
		})

		measure("Transfer", func() { p.Transfer(1000, slow, disk) })
		measure("StartFlow", func() {
			wg.Add(1)
			k.StartFlow(1000, done, disk, nic)
			p.Wait(wg)
		})
		measure("TransferAll", func() { p.TransferAll(parts...) })

		work := func() {}
		measure("Compute/Await inline", func() { p.Await(p.Compute(work)) })
		k.SetComputePool(pool)
		measure("Compute/Await 2 workers", func() { p.Await(p.Compute(work), p.Compute(work)) })
	})
	k.Run()
	for name, allocs := range got {
		if allocs > 0 {
			t.Errorf("%s: %v allocations per call, want none", name, allocs)
		}
	}
	if len(got) != 8 {
		t.Fatalf("measured %d primitives, want 8", len(got))
	}
}
