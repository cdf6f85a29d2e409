// Package sim provides a deterministic discrete-event simulation kernel
// used to account virtual time for every experiment in this repository.
//
// The kernel advances a virtual clock over a heap of events. Simulated
// activities run as processes (Proc): ordinary goroutines that hand control
// back and forth with the kernel one at a time, so execution is fully
// deterministic regardless of GOMAXPROCS. Data movement is modeled at flow
// level: a Flow crosses a set of Resources (disks, NICs, switch fabrics)
// and at any instant receives rate min over its resources of
// capacity/activeFlows — a progressive-filling approximation of max-min
// fair sharing that reproduces the contention effects (shared OSTs, shared
// fabric, local-versus-remote reads) the SciDP paper's measurements hinge
// on.
//
// Scale: both hot structures are built for O(100k)-node sweeps. The event
// queue is a by-value 4-ary heap (no per-event allocation: a process
// wake-up is a *Proc in the event, a flow completion is known by its seq,
// only After's callers bring a closure; no container/heap interface
// boxing). Fair-share is
// incremental: each resource caches its current per-flow share and an
// index of the flows crossing it, each flow carries an absolute completion
// deadline in an indexed heap, and a membership change re-rates only the
// flows crossing resources whose share actually changed — O(degree of the
// change), not O(total flows). A flow's progress is settled lazily, only
// at the instants its own rate changes, so an undisturbed flow costs
// nothing while others churn. See DESIGN.md "Scale".
//
// Time is a float64 in seconds. Sizes are float64 bytes.
package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"scidp/internal/obs"
)

// epsBytes is the slack under which a flow's remaining bytes count as zero.
const epsBytes = 1e-6

// event is a scheduled wake-up of proc or, when proc is nil, a callback;
// stored by value in the queue. An event with neither is a flow
// completion event, live only while its seq is Kernel.schedSeq.
type event struct {
	at   float64
	seq  uint64
	proc *Proc
	fn   func()
}

// before orders events by (time, insertion sequence) for determinism.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a 4-ary min-heap of events by value. 4-ary halves the
// tree depth of a binary heap and keeps siblings on one cache line —
// the classic d-ary trade of cheaper sift-downs for one extra compare —
// and storing events by value removes the per-event box and the
// container/heap interface dispatch of the previous implementation.
// The backing array is reused across pushes and pops (pooled storage).
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := *q
	i := len(h)
	h = append(h, e)
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	n := len(h)
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			best := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(h[best]) {
					best = j
				}
			}
			if !h[best].before(last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	*q = h
	return top
}

// FairShareMode selects the kernel's rate-recomputation strategy.
type FairShareMode int

const (
	// FairShareIncremental (the default) re-rates only flows crossing
	// resources whose per-flow share changed — O(degree) per membership
	// change.
	FairShareIncremental FairShareMode = iota
	// FairShareFull recomputes every active resource's share and every
	// flow's rate on every change — the brute-force oracle. It performs
	// the identical arithmetic in the identical order per flow, so its
	// rates, completion times, traces, and exports are byte-identical to
	// the incremental mode's; it exists for tests and benchmarks.
	FairShareFull
)

// Kernel is the simulation engine. Create one with NewKernel, start
// processes with Go, then call Run to execute until no work remains.
// A Kernel must not be shared across real OS threads while running.
type Kernel struct {
	now        float64
	seq        uint64
	events     eventQueue
	eventCount uint64
	mode       FairShareMode

	// flowHeap is the live-flow set, an indexed 4-ary min-heap ordered by
	// (deadline, id); Flow.hpos is the element's position + 1.
	flowHeap []*Flow
	flowSeq  uint64
	// schedSeq is the seq of the one live completion event (0 = none);
	// any other completion event still queued is stale. schedAt is its
	// time, so an unchanged earliest deadline keeps it.
	schedSeq uint64
	schedAt  float64
	// activeRes tracks every resource with >= 1 flow (for RefreshRates
	// and FairShareFull); dirtyRes, touched, started, done and startAts
	// are reusable scratch.
	activeRes []*Resource
	dirtyRes  []*Resource
	touched   []*Flow
	started   []*Flow
	done      []*Flow
	startAts  []float64
	markSeq   uint64

	failure   error // first process panic, re-raised by Run
	liveProcs int
	running   *Proc // the process holding control; nil in event context
	// idle holds processes whose body has returned, goroutine parked on
	// its channel, for the next Go to reuse; Run releases them on return.
	idle   []*Proc
	tracer *Tracer
	obs    *obs.Registry
	pool   *ComputePool // data plane; see compute.go
}

// SetObs attaches (or detaches, with nil) an observability registry.
// The kernel becomes the registry's clock, and every flow started under
// a process span from then on records a child "flow" span.
func (k *Kernel) SetObs(r *obs.Registry) {
	k.obs = r
	r.SetClock(k)
}

// Obs returns the attached registry (nil when detached). The nil value
// is safe to use: all obs handles no-op.
func (k *Kernel) Obs() *obs.Registry { return k.obs }

// SetFairShareMode selects the rate-recomputation strategy. Both modes
// produce byte-identical simulations; FairShareFull is the verification
// oracle, and only the tests that hold the incremental path to it
// (fairshare_prop_test.go, bench/obs_test.go) call this. Set it before
// starting flows.
func (k *Kernel) SetFairShareMode(m FairShareMode) { k.mode = m }

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// EventsProcessed reports how many events the kernel has executed — the
// scale benchmarks' throughput denominator.
func (k *Kernel) EventsProcessed() uint64 { return k.eventCount }

// schedule enqueues fn to run at virtual time at (>= now).
func (k *Kernel) schedule(at float64, fn func()) { k.enqueue(at, nil, fn) }

// wake enqueues a resume of p at virtual time at (>= now): schedule
// without the closure.
func (k *Kernel) wake(at float64, p *Proc) { k.enqueue(at, p, nil) }

func (k *Kernel) enqueue(at float64, p *Proc, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, proc: p, fn: fn})
}

// After schedules fn to run d seconds from now. It is the low-level timer
// primitive; processes should normally use Proc.Sleep.
func (k *Kernel) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	k.schedule(k.now+d, fn)
}

// RefreshRates re-reads every active resource's Capacity and PerFlowCap
// and re-rates the flows crossing those whose fair share changed. Rates
// are normally recomputed only at flow-membership changes, which refresh
// the shares of the resources the flow crosses as a side effect; a caller
// that mutates a resource's Capacity mid-flight (e.g. a fault injector
// degrading an OST) must call this for the change to reach flows already
// in progress. Must be called from kernel context (an event callback or a
// Proc body).
func (k *Kernel) RefreshRates() {
	for _, r := range k.activeRes {
		k.markDirty(r)
	}
	k.rebalance()
}

// Run executes events until the queue drains. It panics with the original
// value if any process panicked. Run may be called again after it returns
// (e.g. after starting more processes), from any goroutine, one at a time.
// However it returns, the goroutines of processes that have finished are
// released; only a process still blocked mid-body keeps its own.
func (k *Kernel) Run() {
	defer k.releaseIdle()
	for len(k.events) > 0 {
		e := k.events.pop()
		if e.at > k.now {
			k.now = e.at
		}
		k.eventCount++
		if e.proc != nil {
			k.resume(e.proc)
		} else if e.fn != nil {
			e.fn()
		} else if e.seq == k.schedSeq {
			k.schedSeq = 0
			k.completeFlows()
		}
		if k.failure != nil {
			panic(k.failure)
		}
	}
	if k.liveProcs > 0 {
		panic(fmt.Sprintf("sim: deadlock — %d process(es) still blocked with no pending events at t=%.6f", k.liveProcs, k.now))
	}
}

// Proc is a simulated process. All Proc methods must be called from within
// the process's own function; they block in virtual time.
//
// A process is one goroutine and one unbuffered channel. Kernel and
// process alternate strictly — whoever holds control sends on the channel
// and then receives on it — so the one channel carries both directions,
// and everything either side wrote before its send is visible to the
// other after the receive. When the body returns the goroutine parks on
// Kernel.idle for the next Go to give it a new name and body; closing
// the channel (Kernel.releaseIdle) ends it.
type Proc struct {
	k      *Kernel
	name   string
	nameFn func() string // formats name on first read; nil once it has
	body   func(p *Proc)
	ctl    chan struct{}
	span   *obs.Span
}

// Span returns the process's current observability span (nil when none
// is set or no registry is attached). Flows started by the process
// become children of this span.
func (p *Proc) Span() *obs.Span { return p.span }

// SetSpan installs s as the process's current span and returns the
// previous one, so callers can nest:
//
//	prev := p.SetSpan(s)
//	defer p.SetSpan(prev)
func (p *Proc) SetSpan(s *obs.Span) *obs.Span {
	prev := p.span
	p.span = s
	return prev
}

// Name returns the name the process was started with.
func (p *Proc) Name() string {
	if p.nameFn != nil {
		p.name, p.nameFn = p.nameFn(), nil
	}
	return p.name
}

// Kernel returns the kernel the process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.k.now }

// Go starts fn as a new simulated process scheduled to begin immediately
// (at the current virtual time, after already-queued events). The *Proc
// is recycled once fn returns: it must not be used after that.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc { return k.spawn(name, nil, fn, true) }

// GoNamed is Go for a caller that starts many processes: name is called
// only if the name is read (Name, a panic report), so a spawn costs no
// formatting.
func (k *Kernel) GoNamed(name func() string, fn func(p *Proc)) *Proc {
	return k.spawn("", name, fn, true)
}

// GoNow is GoNamed from event context: the process runs inside the
// calling event, until it first parks or exits, instead of in a wake
// event of its own — so n processes started in order by one event run as
// GoNamed's n consecutive events would run them. It starts nothing once a
// process has panicked, and panics when called from a process body.
func (k *Kernel) GoNow(name func() string, fn func(p *Proc)) {
	if k.running != nil {
		panic("sim: GoNow called from a process body; only event context (an After callback) may start a process in-event")
	}
	if k.failure == nil {
		k.resume(k.spawn("", name, fn, false))
	}
}

// spawn readies a process for fn, reusing an idle one when it can, and
// queues its wake event unless the caller resumes it itself.
func (k *Kernel) spawn(name string, nameFn func() string, fn func(p *Proc), queue bool) *Proc {
	var p *Proc
	if n := len(k.idle); n > 0 {
		p, k.idle = k.idle[n-1], k.idle[:n-1]
	} else {
		p = &Proc{k: k, ctl: make(chan struct{})}
		go p.loop()
	}
	p.name, p.nameFn, p.body = name, nameFn, fn
	k.liveProcs++
	if queue {
		k.wake(k.now, p)
	}
	return p
}

// loop is the process goroutine: one body per wake-up, until the channel
// is closed.
func (p *Proc) loop() {
	for range p.ctl {
		p.run()
	}
}

// run executes the body and hands control back to the kernel with the
// process on the idle list. A panic is recorded for Run to re-raise. A
// body that ends its goroutine (runtime.Goexit: t.Fatal in a process) has
// nothing left to park, so that process is not recycled.
func (p *Proc) run() {
	k, returned := p.k, false
	defer func() {
		r := recover()
		if r != nil && k.failure == nil {
			k.failure = fmt.Errorf("sim: process %q panicked: %v", p.Name(), r)
		}
		k.liveProcs--
		if returned || r != nil {
			p.nameFn, p.body, p.span = nil, nil, nil
			k.idle = append(k.idle, p)
		}
		p.ctl <- struct{}{}
	}()
	p.body(p)
	returned = true
}

// releaseIdle ends the goroutines of the processes on the idle list.
func (k *Kernel) releaseIdle() {
	for i, p := range k.idle {
		close(p.ctl)
		k.idle[i] = nil
	}
	k.idle = k.idle[:0]
}

// resume hands control to p and waits until p parks or exits. It must only
// be called from event context (the Run loop), never from process context.
func (k *Kernel) resume(p *Proc) {
	k.running = p
	p.ctl <- struct{}{}
	<-p.ctl
	k.running = nil
}

// pause yields control back to the kernel until another event resumes p.
func (p *Proc) pause() {
	p.ctl <- struct{}{}
	<-p.ctl
}

// Sleep blocks the process for d virtual seconds. Negative d sleeps zero.
// Sleep is also how modeled compute cost is charged ("this phase takes
// 0.55 s per image level").
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.k.wake(p.k.now+d, p)
	p.pause()
}

// flowRef is one entry in a resource's flow index: the flow plus the
// position of the resource within the flow's own chain, so removal can
// repair the reverse index in O(1).
type flowRef struct {
	f  *Flow
	ri int32
}

// Resource is a bandwidth-capacity device: a disk, a NIC, a switch fabric,
// an OST. Concurrent flows crossing it share its capacity fairly.
type Resource struct {
	// Name identifies the resource in traces and error messages.
	Name string
	// Capacity is the aggregate bandwidth in bytes per second. It must be
	// positive for any flow that crosses the resource to make progress.
	Capacity float64
	// PerFlowCap, when positive, limits each individual flow's share
	// (e.g. a single TCP stream that cannot saturate a bonded link).
	PerFlowCap float64
	// Latency, when positive, is a fixed per-operation setup delay in
	// seconds charged once per Transfer that crosses the resource.
	Latency float64

	active int
	// share is the cached per-flow fair share at the current membership
	// (Capacity/active, capped by PerFlowCap); flows read it instead of
	// re-dividing.
	share float64
	// flows indexes every flow crossing the resource; order is
	// maintenance order and never observable.
	flows []flowRef
	// aidx is position+1 in Kernel.activeRes (0 = inactive); dirty marks
	// membership in Kernel.dirtyRes.
	aidx  int
	dirty bool
}

// NewResource returns a resource with the given aggregate capacity in
// bytes/second.
func NewResource(name string, capacity float64) *Resource {
	return &Resource{Name: name, Capacity: capacity}
}

// shareNow computes the resource's current per-flow fair share.
func (r *Resource) shareNow() float64 {
	if r.active == 0 {
		return 0
	}
	share := r.Capacity / float64(r.active)
	if r.PerFlowCap > 0 && share > r.PerFlowCap {
		share = r.PerFlowCap
	}
	return share
}

// Flow is an in-flight transfer across a set of resources.
type Flow struct {
	id        uint64
	total     float64
	remaining float64
	rate      float64
	res       []*Resource
	onDone    func()
	waiter    *Proc // resumed on completion (Transfer), after onDone
	span      *obs.Span

	// settledAt is the instant remaining was last materialized; a flow
	// settles only when its own rate changes (or it completes), so an
	// undisturbed flow is never touched while others churn.
	settledAt float64
	// deadline is the absolute completion time at the current rate
	// (+Inf when stalled); it keys the kernel's flow heap.
	deadline float64
	// hpos is position+1 in Kernel.flowHeap (0 = not enqueued).
	hpos int
	// resIdx mirrors res: position of this flow inside each resource's
	// flow index. It is a slice of resIdxBuf when the chain fits (a PFS
	// stripe's chain has at most six resources).
	resIdx    []int32
	resIdxBuf [6]int32
	// mark dedupes membership in Kernel.touched per rebalance.
	mark uint64
}

// settle materializes the flow's progress at the current instant using
// the rate fixed at its previous rate change.
func (k *Kernel) settle(f *Flow) {
	if dt := k.now - f.settledAt; dt > 0 {
		f.remaining -= f.rate * dt
	}
	f.settledAt = k.now
}

// flowLess orders the flow heap by (deadline, id).
func flowLess(a, b *Flow) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.id < b.id
}

// heapFix restores the 4-ary heap invariant around position i.
func (k *Kernel) heapFix(i int) {
	h := k.flowHeap
	f := h[i]
	// Sift up.
	for i > 0 {
		parent := (i - 1) / 4
		if !flowLess(f, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].hpos = i + 1
		i = parent
	}
	// Sift down.
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if flowLess(h[j], h[best]) {
				best = j
			}
		}
		if !flowLess(h[best], f) {
			break
		}
		h[i] = h[best]
		h[i].hpos = i + 1
		i = best
	}
	h[i] = f
	f.hpos = i + 1
}

// heapPush adds f to the flow heap.
func (k *Kernel) heapPush(f *Flow) {
	k.flowHeap = append(k.flowHeap, f)
	k.heapFix(len(k.flowHeap) - 1)
}

// heapRemove takes f out of the flow heap.
func (k *Kernel) heapRemove(f *Flow) {
	i := f.hpos - 1
	f.hpos = 0
	h := k.flowHeap
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].hpos = i + 1
		k.flowHeap = h[:last]
		k.heapFix(i)
	} else {
		k.flowHeap = h[:last]
	}
	h[last] = nil
}

// markDirty queues r for share recomputation in the next rebalance.
func (k *Kernel) markDirty(r *Resource) {
	if !r.dirty {
		r.dirty = true
		k.dirtyRes = append(k.dirtyRes, r)
	}
}

// attach indexes f on each of its resources, bumping their active counts
// and marking them dirty.
func (k *Kernel) attach(f *Flow) {
	if len(f.res) <= len(f.resIdxBuf) {
		f.resIdx = f.resIdxBuf[:len(f.res)]
	} else {
		f.resIdx = make([]int32, len(f.res))
	}
	for i, r := range f.res {
		if r.active == 0 {
			r.aidx = len(k.activeRes) + 1
			k.activeRes = append(k.activeRes, r)
		}
		r.active++
		f.resIdx[i] = int32(len(r.flows))
		r.flows = append(r.flows, flowRef{f: f, ri: int32(i)})
		k.markDirty(r)
	}
}

// detach removes f from each of its resources (swap-remove, repairing the
// moved entry's reverse index), marking them dirty.
func (k *Kernel) detach(f *Flow) {
	for i, r := range f.res {
		pos := f.resIdx[i]
		last := len(r.flows) - 1
		moved := r.flows[last]
		r.flows[pos] = moved
		moved.f.resIdx[moved.ri] = pos
		r.flows[last] = flowRef{}
		r.flows = r.flows[:last]
		r.active--
		if r.active == 0 {
			// Swap-remove from the active-resource list.
			ai := r.aidx - 1
			lastR := len(k.activeRes) - 1
			k.activeRes[ai] = k.activeRes[lastR]
			k.activeRes[ai].aidx = ai + 1
			k.activeRes[lastR] = nil
			k.activeRes = k.activeRes[:lastR]
			r.aidx = 0
			r.share = 0
		}
		k.markDirty(r)
	}
}

// reRate recomputes f's fair-share rate from its resources' cached
// shares; if the rate changed the flow settles and gets a new deadline.
func (k *Kernel) reRate(f *Flow) {
	rate := math.Inf(1)
	for _, r := range f.res {
		if r.share < rate {
			rate = r.share
		}
	}
	if math.IsInf(rate, 1) {
		// Flow crosses no resources: completes instantly.
		rate = math.MaxFloat64
	}
	if rate == f.rate && f.hpos != 0 {
		return
	}
	k.settle(f)
	f.rate = rate
	if f.rate > 0 {
		eta := f.remaining / f.rate
		if eta < 0 {
			eta = 0
		}
		f.deadline = k.now + eta
	} else {
		f.deadline = math.Inf(1)
	}
	if f.hpos == 0 {
		k.heapPush(f)
	} else {
		k.heapFix(f.hpos - 1)
	}
}

// rebalance is the single fair-share recomputation point: it refreshes
// the shares of dirty resources, re-rates the affected flows (plus the
// just-started ones, which must be rated even when no share moved — a
// PerFlowCap can hold a share constant across a membership change), and
// (re)schedules the completion event for the earliest deadline.
// In FairShareFull mode every active resource and every flow is visited
// instead; the per-flow arithmetic is identical, so both modes produce
// byte-identical simulations.
//
// Several flows started at one instant share one rebalance (TransferAll):
// pure starts only lower shares, so each flow ends at the rate, and
// settles with the one dt > 0, that starting them one at a time gives.
func (k *Kernel) rebalance(started ...*Flow) {
	k.markSeq++
	mark := k.markSeq
	touched := k.touched[:0]
	if k.mode == FairShareFull {
		for _, r := range k.activeRes {
			r.share = r.shareNow()
		}
		touched = append(touched, k.flowHeap...)
		for _, f := range started {
			if f.mark != mark && f.hpos == 0 {
				f.mark = mark
				touched = append(touched, f)
			}
		}
	} else {
		for _, r := range k.dirtyRes {
			share := r.shareNow()
			if share == r.share && r.active > 0 {
				continue
			}
			r.share = share
			for _, fr := range r.flows {
				if fr.f.mark != mark {
					fr.f.mark = mark
					touched = append(touched, fr.f)
				}
			}
		}
		for _, f := range started {
			if f.mark != mark {
				f.mark = mark
				touched = append(touched, f)
			}
		}
	}
	for _, r := range k.dirtyRes {
		r.dirty = false
	}
	k.dirtyRes = k.dirtyRes[:0]
	for _, f := range touched {
		k.reRate(f)
	}
	clear(touched)
	k.touched = touched[:0]
	k.scheduleCompletion()
}

// scheduleCompletion arms (or re-arms) the completion event for the
// earliest flow deadline. An unchanged earliest deadline keeps the
// already-pending event; otherwise a fresh event is queued and its seq
// becomes the live one, which leaves the old event stale. The event
// carries no closure: Run recognises it by its seq.
func (k *Kernel) scheduleCompletion() {
	if len(k.flowHeap) == 0 || math.IsInf(k.flowHeap[0].deadline, 1) {
		// Nothing to complete (or all flows stalled on zero-capacity
		// resources): cancel any pending completion.
		k.schedSeq = 0
		return
	}
	at := k.flowHeap[0].deadline
	if k.schedSeq != 0 && at == k.schedAt {
		return
	}
	k.schedAt = at
	k.enqueue(at, nil, nil)
	k.schedSeq = k.seq
}

// completeFlows finishes every flow whose deadline has arrived, fires
// completion callbacks in flow-start order, and rebalances the rest.
func (k *Kernel) completeFlows() {
	done := k.done[:0]
	for len(k.flowHeap) > 0 && k.flowHeap[0].deadline <= k.now {
		f := k.flowHeap[0]
		k.heapRemove(f)
		done = append(done, f)
	}
	slices.SortFunc(done, func(a, b *Flow) int {
		if a.id < b.id {
			return -1
		}
		return 1
	})
	for _, f := range done {
		f.remaining = 0
		f.settledAt = k.now
		k.detach(f)
		k.traceFlowEnd(f)
		f.span.End()
	}
	k.rebalance()
	for _, f := range done {
		k.flowDone(f)
	}
	clear(done)
	k.done = done[:0]
}

// flowDone tells whoever started f that it has drained.
func (k *Kernel) flowDone(f *Flow) {
	if f.onDone != nil {
		f.onDone()
	}
	if f.waiter != nil {
		k.resume(f.waiter)
	}
}

// StartFlow begins moving bytes across the given resources and invokes
// onDone (from event context) when the transfer completes. Zero or
// negative sizes complete immediately (still asynchronously). StartFlow
// does not charge resource Latency; Proc.Transfer does.
func (k *Kernel) StartFlow(bytes float64, onDone func(), res ...*Resource) *Flow {
	return k.startFlow(bytes, onDone, nil, nil, res)
}

// startFlow is StartFlow plus a process to resume on completion and span
// parentage (see openFlow), rated at once.
func (k *Kernel) startFlow(bytes float64, onDone func(), waiter *Proc, parent *obs.Span, res []*Resource) *Flow {
	f, live := k.openFlow(bytes, onDone, waiter, parent, res)
	if live {
		k.rebalance(f)
	}
	return f
}

// openFlow creates a flow and its trace entry and attaches it to its
// resources without rating it: live reports that the caller owes it a
// rebalance. A size at or under epsBytes is not attached; it completes by
// an event at the current instant instead. When a registry is attached
// and parent is set, the flow records a child "flow" span carrying its
// id, size, and resource chain.
func (k *Kernel) openFlow(bytes float64, onDone func(), waiter *Proc, parent *obs.Span, res []*Resource) (*Flow, bool) {
	k.flowSeq++
	f := &Flow{id: k.flowSeq, total: bytes, remaining: bytes, res: res, onDone: onDone, waiter: waiter}
	if k.obs != nil && parent != nil {
		f.span = k.obs.StartSpan("flow", "sim", parent)
		f.span.Arg("flow", f.id)
		f.span.Arg("bytes", bytes)
		f.span.Arg("res", strings.Join(resourceNames(res), "+"))
	}
	k.traceFlowStart(f, "")
	if bytes <= epsBytes {
		k.schedule(k.now, func() {
			k.traceFlowEnd(f)
			f.span.End()
			k.flowDone(f)
		})
		return f, false
	}
	f.settledAt = k.now
	k.attach(f)
	return f, true
}

// latency is the fixed setup delay of a resource chain: the sum of its
// resources' Latency fields.
func latency(res []*Resource) float64 {
	lat := 0.0
	for _, r := range res {
		lat += r.Latency
	}
	return lat
}

// Transfer moves bytes across the given resources, blocking the process in
// virtual time until the flow drains. The sum of the resources' Latency
// fields is charged first as a fixed delay.
func (p *Proc) Transfer(bytes float64, res ...*Resource) {
	if lat := latency(res); lat > 0 {
		p.Sleep(lat)
	}
	p.k.startFlow(bytes, nil, p, p.span, res)
	p.pause()
}

// Part describes one leg of a parallel transfer.
type Part struct {
	// Bytes is the size of this leg.
	Bytes float64
	// Res is the resource chain this leg crosses.
	Res []*Resource
}

// TransferAll starts every part concurrently and blocks until all of them
// complete — the shape of a striped PFS read, where one client pulls
// segments from many OSTs at once. Each part individually charges its
// resources' latency before its flow starts. Parts due at the same
// instant start together and are rated in one rebalance: the parts with
// no latency at once, the others in one kernel event per distinct start
// instant, queued in the order of each instant's first part. Parts and
// their chains must not change until TransferAll returns.
func (p *Proc) TransferAll(parts ...Part) {
	if len(parts) == 0 {
		return
	}
	k := p.k
	remaining := len(parts)
	finish := func() {
		remaining--
		if remaining == 0 {
			k.resume(p)
		}
	}
	parent, t0 := p.span, k.now
	started, ats := k.started[:0], k.startAts[:0]
	for i, pt := range parts {
		lat := latency(pt.Res)
		if lat <= 0 {
			started = k.openPart(started, pt, finish, parent)
		} else if at := t0 + lat; !slices.Contains(ats, at) {
			ats = append(ats, at)
			group := parts[i:]
			k.schedule(at, func() {
				started := k.started[:0]
				for _, pt := range group {
					if lat := latency(pt.Res); lat > 0 && t0+lat == at {
						started = k.openPart(started, pt, finish, parent)
					}
				}
				k.rateStarted(started)
			})
		}
	}
	k.startAts = ats[:0]
	k.rateStarted(started)
	p.pause()
}

// openPart opens pt's flow and appends it to started when it needs rating.
func (k *Kernel) openPart(started []*Flow, pt Part, finish func(), parent *obs.Span) []*Flow {
	if f, live := k.openFlow(pt.Bytes, finish, nil, parent, pt.Res); live {
		started = append(started, f)
	}
	return started
}

// rateStarted rates the flows just opened in one rebalance and hands the
// list back as scratch.
func (k *Kernel) rateStarted(started []*Flow) {
	if len(started) > 0 {
		k.rebalance(started...)
	}
	clear(started)
	k.started = started[:0]
}
