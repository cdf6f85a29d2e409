// Two-plane execution: the data plane.
//
// The kernel is the control plane — a single-threaded discrete-event
// engine that owns virtual time, flow rates, and event ordering. A
// ComputePool is the data plane: a bounded set of real OS worker
// goroutines that execute pure byte-transform closures (sorting a run,
// inflating a chunk, checksumming a block) while the kernel thread is
// parked waiting for them. Offloaded closures take zero virtual time;
// they only shorten the real wall-clock of a simulation run.
//
// Determinism contract: a closure handed to Proc.Compute must be pure
// byte work. It must not call any kernel or Proc method (Sleep,
// Transfer, Charge, ...), draw from a chaos PRNG, write observability
// registries, or touch shared caches — all of those must stay on the
// kernel thread, in event order. Results join back via Proc.Await,
// which schedules a single event at the current instant and blocks the
// kernel — in real time only — until every future has resolved. The
// event schedule is therefore identical for any worker count, so job
// outputs, trace exports, and metrics stay byte-identical whether the
// pool has one worker or sixty-four.
package sim

import (
	"fmt"
	"sync"
)

// ComputePool is a data-plane worker pool. The zero worker count is
// meaningful: NewComputePool(0) — and the nil pool of a kernel nobody
// attached one to — executes every submission inline on the caller's
// thread, which is the determinism reference the pooled modes are tested
// against.
type ComputePool struct {
	workers int

	mu     sync.Mutex
	tasks  chan poolTask
	closed bool
}

// poolTask pairs a closure with its join handle.
type poolTask struct {
	fn  func()
	fut *Future
}

// Future is the join handle for one offloaded closure. It resolves when
// the closure returns or panics; a recovered panic value is re-raised by
// Proc.Await in the awaiting process's context.
type Future struct {
	done     chan struct{}
	panicked any
}

// NewComputePool returns a pool of the given number of OS workers.
// Workers start lazily on first submission. workers <= 0 yields an
// inline pool (submissions run on the submitting thread).
func NewComputePool(workers int) *ComputePool {
	if workers < 0 {
		workers = 0
	}
	return &ComputePool{workers: workers}
}

// submit hands fn to a worker and returns its future. Inline pools run
// fn before returning; the future is already resolved.
func (cp *ComputePool) submit(fn func()) *Future {
	t := poolTask{fn: fn, fut: &Future{done: make(chan struct{})}}
	if cp == nil || cp.workers <= 0 {
		t.run()
		return t.fut
	}
	cp.mu.Lock()
	if cp.closed {
		cp.mu.Unlock()
		panic("sim: submit on closed ComputePool")
	}
	if cp.tasks == nil {
		cp.tasks = make(chan poolTask, 1024)
		for i := 0; i < cp.workers; i++ {
			go cp.work()
		}
	}
	ch := cp.tasks
	cp.mu.Unlock()
	ch <- t
	return t.fut
}

// work drains the task channel until Close.
func (cp *ComputePool) work() {
	for t := range cp.tasks {
		t.run()
	}
}

// run executes the closure, capturing a panic into the future, and
// resolves it. The close of fut.done is the happens-before edge that
// publishes the closure's writes to the kernel thread at join time.
func (t poolTask) run() {
	defer func() {
		t.fut.panicked = recover()
		close(t.fut.done)
	}()
	t.fn()
}

// Close stops the workers once in-flight tasks drain. Submitting after
// Close panics; Close is idempotent. Kernels do not own their pool —
// whoever created it closes it, typically after Kernel.Run returns.
func (cp *ComputePool) Close() {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.closed {
		return
	}
	cp.closed = true
	if cp.tasks != nil {
		close(cp.tasks)
	}
}

// SetComputePool attaches a data plane to the kernel; nil, the state of
// a new kernel, is the inline pool. The event schedule is the same
// either way.
func (k *Kernel) SetComputePool(cp *ComputePool) { k.pool = cp }

// Compute offloads fn to the kernel's data plane and returns its join
// handle, resolved already when the pool is inline. fn must follow the
// package-level determinism contract: pure byte work only, no
// sim/obs/cache access. Call Await before reading anything fn writes.
func (p *Proc) Compute(fn func()) *Future {
	k := p.k
	if k.obs != nil {
		k.obs.Counter("sim/compute_tasks_total").Inc()
	}
	return k.pool.submit(fn)
}

// Await blocks the process until every future has resolved. The wait
// costs zero virtual time: one event is scheduled at the current instant
// whose callback blocks the kernel thread — in real time — on the
// futures, then resumes the process. Because the event is scheduled
// identically for any worker count, virtual timelines and event ordering
// are worker-count invariant. If an awaited closure panicked, Await
// re-panics with its value in process context, so the failure is
// attributed to this process deterministically.
func (p *Proc) Await(futs ...*Future) {
	if len(futs) == 0 {
		return
	}
	k := p.k
	k.schedule(k.now, func() {
		for _, f := range futs {
			<-f.done
		}
		k.resume(p)
	})
	p.pause()
	for _, f := range futs {
		if f.panicked != nil {
			panic(fmt.Sprintf("data-plane compute panicked: %v", f.panicked))
		}
	}
}
