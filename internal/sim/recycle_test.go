package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The kernel reuses a drained flow and a joined future for the next
// operation. These tests pin the lifetimes this makes visible: a *Flow is
// live until its onDone returns, a Future until its Await returns, and a
// future nobody awaits is never handed out again.

func TestFlowIsLiveInOnDoneThenReused(t *testing.T) {
	k := NewKernel()
	disk := NewResource("disk", 1000)
	chain := []*Resource{disk}
	var first, second *Flow
	var firstID uint64
	k.After(0, func() {
		first = k.StartFlow(500, func() {
			if first.ID() != firstID || first.total != 500 || len(first.res) != 1 || first.res[0] != disk {
				t.Errorf("inside its onDone the flow reads id %d, %v bytes, chain %v; want id %d, 500 bytes, [disk]",
					first.ID(), first.total, first.res, firstID)
			}
			chain[0] = nil // the flow holds its own copy of the chain
		}, chain...)
		firstID = first.ID()
	})
	k.After(1, func() {
		second = k.StartFlow(250, nil, disk)
		if second.ID() == firstID {
			t.Errorf("the reused flow kept id %d", firstID)
		}
	})
	k.Run()
	if second != first {
		t.Fatal("the StartFlow after a flow drained did not reuse it")
	}
	if k.Now() != 1.25 {
		t.Fatalf("the reused flow finished at %v, want 1.25", k.Now())
	}
}

// awaitPanic runs body as a process on a kernel with pool and returns
// what Run panicked with, failing the test if Run did not return in time.
func awaitPanic(t *testing.T, pool *ComputePool, body func(p *Proc)) string {
	t.Helper()
	k := NewKernel()
	k.SetComputePool(pool)
	k.Go("twice", body)
	msg := make(chan string, 1)
	go func() { msg <- runPanics(k) }()
	select {
	case m := <-msg:
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung")
		return ""
	}
}

func TestAwaitTwicePanics(t *testing.T) {
	pool := NewComputePool(2)
	defer pool.Close()
	for _, cp := range []*ComputePool{nil, pool} {
		cases := map[string]func(p *Proc){
			"one call": func(p *Proc) {
				f := p.Compute(func() {})
				p.Await(f, p.Compute(func() {}), f)
			},
			"across calls": func(p *Proc) {
				f := p.Compute(func() {})
				p.Await(f)
				p.Await(f)
			},
		}
		for name, body := range cases {
			msg := awaitPanic(t, cp, body)
			if !strings.Contains(msg, `process "twice" panicked: sim: Await of a future that was already awaited`) {
				t.Errorf("%s, pool %v: Run panicked with %q", name, cp != nil, msg)
			}
		}
	}
}

// A future that is never awaited stays with its closure: while the
// closure still runs and writes, the kernel keeps handing out other
// futures. Under -race this is also the check that the kernel never
// touches an abandoned future.
func TestAbandonedFutureIsNeverReused(t *testing.T) {
	pool := NewComputePool(4)
	defer pool.Close()
	k := NewKernel()
	k.SetComputePool(pool)
	stop, finished := make(chan struct{}), make(chan struct{})
	writes := 0
	k.Go("forker", func(p *Proc) {
		abandoned := p.Compute(func() {
			defer close(finished)
			for {
				select {
				case <-stop:
					return
				default:
					writes++
				}
			}
		})
		results := make([]int, 3)
		for round := 0; round < 200; round++ {
			futs := make([]*Future, len(results))
			for i := range futs {
				futs[i] = p.Compute(func() { results[i] = round + i })
				if futs[i] == abandoned {
					t.Errorf("round %d: the abandoned future was handed out again", round)
					return
				}
			}
			p.Await(futs...)
			for i, v := range results {
				if v != round+i {
					t.Errorf("round %d: result %d = %d", round, i, v)
					return
				}
			}
		}
	})
	k.Run()
	close(stop)
	<-finished
	if writes == 0 {
		t.Fatal("the abandoned closure never ran")
	}
}

func TestComputeAwaitWorkAfterReraisedPanic(t *testing.T) {
	pool := NewComputePool(2)
	defer pool.Close()
	for _, cp := range []*ComputePool{nil, pool} {
		k := NewKernel()
		k.SetComputePool(cp)
		var msg string
		got := make([]int, 2)
		k.Go("survivor", func(p *Proc) {
			var failed *Future
			func() {
				defer func() { msg = fmt.Sprint(recover()) }()
				failed = p.Compute(func() { panic("chunk exploded") })
				p.Await(failed)
			}()
			futs := []*Future{p.Compute(func() { got[0] = 1 }), p.Compute(func() { got[1] = 2 })}
			if futs[0] != failed && futs[1] != failed {
				t.Error("the future of the re-raised panic was not reused")
			}
			p.Await(futs...)
		})
		k.Run()
		if msg != "data-plane compute panicked: chunk exploded" {
			t.Errorf("pool %v: Await re-raised %q", cp != nil, msg)
		}
		if got[0] != 1 || got[1] != 2 {
			t.Errorf("pool %v: the Compute/Await after the panic wrote %v, want [1 2]", cp != nil, got)
		}
	}
}
