package mapreduce

import (
	"errors"
	"fmt"
	"slices"

	"scidp/internal/cluster"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

// Task is one schedulable unit of a stage. Run does all its work against
// attempt-local state and returns a commit closure that publishes the
// result; with speculation two attempts can run concurrently (in virtual
// time), but exactly one commit ever runs — the first finisher's. A failed
// attempt returns a nil commit. The rest is the bookkeeping of the
// RunStage call whose feed minted the task.
type Task struct {
	// Label names the task in stats and spans.
	Label string
	// Locations are preferred host names (empty = schedule anywhere).
	Locations []string
	// Run executes one attempt.
	Run func(tc *TaskContext) (commit func(), err error)

	index    int     // mint order within the stage: TaskFaults' task number
	attempt  int     // attempts launched so far (retries + backups)
	inflight int     // attempts currently running
	started  float64 // virtual start of the oldest running attempt
	// done marks the task settled — committed, failed for good, or
	// abandoned by a failed stage. Only retire sets it, so the stage's
	// wait group is released exactly once per task.
	done bool
	// speculated marks that a backup attempt was (or is queued to be)
	// launched; at most one backup per task.
	speculated bool
	entry      qnode // the first push's queue entry: minting costs the queue nothing
}

// stage is one wave of tasks on the cluster's worker slots: a windowed
// feed, the locality queue, the attempt policy (retry, speculation,
// preemption) and the span/metric emission. MapReduce runs it twice per
// job, RunStage once per call.
type stage struct {
	j           *Job
	name        string
	feed        func(*sim.Proc) (*Task, error)
	window      int // most tasks minted but unstarted; refilled at half
	startup     float64
	maxAttempts int
	speculative bool
	stats       []TaskStats // committed tasks, in completion order

	q         localityQueue
	minted    int
	exhausted bool    // the feed returned its final task, or the stage failed
	pending   int     // minted tasks not yet settled
	filling   bool    // a refill is in progress (its pull may yield)
	tracked   []*Task // minted tasks the speculator scans
	wg        *sim.WaitGroup
	// durations feeds the speculation threshold even when no registry is
	// attached (taskSeconds is a nil no-op then); nil without speculation.
	durations *obs.Histogram
	startNode *cluster.Node // the slot startWorkers is starting a worker on
	startSlot int
	err       error // the first permanent failure

	span                                     *obs.Span
	attempts, failures, completed, preempted *obs.Counter
	specLaunched, specWins, specLosses       *obs.Counter
	taskSeconds                              *obs.Histogram
}

// RunStage executes the tasks feed mints — (nil, nil) ends the stage — on
// the job's cluster slots from the driver process p, blocking in virtual
// time until every task has committed or one has failed for good, and
// returns that first failure. Scheduling, retries, speculation, leases,
// fault injection and observability follow the Job's settings as they do
// for Run's own map stage; name labels the stage in process names, spans,
// metrics and TaskFaults calls. The feed is pulled lazily, at most
// SplitWindow tasks ahead of the slots. A feed may wait — park its caller
// in virtual time until the next task exists — and a waiting feed holds no
// slot: the driver pulls until the first window is full, and only past
// that does a worker's refill park the worker. Emit belongs to Run's own
// tasks.
func (j *Job) RunStage(p *sim.Proc, name string, feed func(*sim.Proc) (*Task, error)) error {
	if err := j.checkCluster(); err != nil {
		return err
	}
	_, err := j.runStage(p, name, feed, j.SplitWindow, true)
	return err
}

// runStage is RunStage with the two things only Run decides: the window
// (the reduce wave is minted whole; <= 0 = the default 1024) and whether
// the stage may speculate (the reduce wave must not: see Job.Speculation).
func (j *Job) runStage(p *sim.Proc, name string, feed func(*sim.Proc) (*Task, error), window int, speculate bool) ([]TaskStats, error) {
	s := &stage{j: j, name: name, feed: feed, window: window,
		startup: j.TaskStartup, maxAttempts: max(j.MaxAttempts, 1)}
	if s.window <= 0 {
		s.window = 1024
	}
	if s.startup == 0 {
		s.startup = 1.0
	}
	s.speculative = speculate && j.Speculation.Quantile > 0 && s.maxAttempts > 1
	if j.Obs != nil {
		s.span = j.Obs.StartSpan("phase:"+name, "mapreduce", p.Span())
		l := obs.L("phase", name)
		s.attempts = j.Obs.Counter("mr/task_attempts_total", l)
		s.failures = j.Obs.Counter("mr/task_failures_total", l)
		s.completed = j.Obs.Counter("mr/tasks_total", l)
		s.preempted = j.Obs.Counter("mr/tasks_preempted_total", l)
		s.specLaunched = j.Obs.Counter("mr/speculative_launched_total", l)
		s.specWins = j.Obs.Counter("mr/speculative_wins_total", l)
		s.specLosses = j.Obs.Counter("mr/speculative_losses_total", l)
		s.taskSeconds = j.Obs.Histogram("mr/task_seconds", taskSecondsBuckets, l)
	}
	if s.speculative {
		s.durations = obs.NewHistogram(taskSecondsBuckets)
	}
	s.q = newLocalityQueue(j.Cluster, min(s.window, 4))
	k := p.Kernel()
	s.wg = k.NewWaitGroup()
	// The source token keeps the wait group open until the feed drains,
	// when the per-task holds take over.
	s.wg.Add(1)
	k.After(0, func() { s.startWorkers(k) })
	if s.speculative {
		k.GoNamed(func() string { return fmt.Sprintf("%s/%s-speculator", j.Name, name) }, s.speculate)
	}
	// The slots' one start event is queued before the first pull, so a
	// feed that waits finds the workers idling, not unborn; one that does
	// not yield fills the window before any of them has run.
	s.refill(p)
	p.Wait(s.wg)
	s.span.End()
	return s.stats, s.err
}

// refill pulls the feed until the queue holds a full window. The driver
// primes the first window, however long the feed makes it wait; after
// that whichever worker drains the queue below half the window refills it,
// so any metadata cost the source models lands on that worker's timeline.
func (s *stage) refill(rp *sim.Proc) {
	if s.filling || s.exhausted {
		return
	}
	s.filling = true
	for !s.exhausted && s.q.live < s.window {
		t, err := s.feed(rp)
		switch {
		case s.exhausted:
			// The stage failed while the pull was parked: whatever came
			// back is dropped unminted.
		case err != nil:
			s.fail(err)
		case t == nil:
			s.exhausted = true
			s.wg.Done() // release the source token
		default:
			t.index, t.attempt, t.inflight, t.done, t.speculated, t.entry = s.minted, 0, 0, false, false, qnode{}
			s.minted++
			s.pending++
			s.wg.Add(1)
			if s.speculative {
				s.tracked = append(s.tracked, t)
			}
			s.q.push(t, false)
		}
	}
	s.filling = false
}

// startWorkers is the stage's one start event: in node and slot order it
// starts each slot's worker inside the event, but skips a slot that finds
// the stage drained, the test the worker's first step would exit on. See
// DESIGN.md "A slot that cannot run gets no process".
func (s *stage) startWorkers(k *sim.Kernel) {
	body := s.worker
	for _, node := range s.j.Cluster.Nodes {
		var name func() string // built once the node starts a worker
		for slot := range node.Slots {
			if s.drained() {
				continue
			}
			if name == nil {
				node := node // a never-reassigned copy is captured by value: no heap cell per node
				name = func() string { return fmt.Sprintf("%s/%s/%s-worker", s.j.Name, s.name, node.Name) }
			}
			s.startNode, s.startSlot = node, slot
			k.GoNow(name, body)
		}
	}
}

// drained reports that the feed is closed, nothing is queued, and no
// settle can queue a backup: no slot can run anything more.
func (s *stage) drained() bool {
	return s.exhausted && s.q.live == 0 && (!s.speculative || s.pending == 0)
}

// worker is one task slot's process, on the slot startWorkers names as it
// starts it: pick, launch, settle, until the stage is drained.
func (s *stage) worker(wp *sim.Proc) {
	node, slot := s.startNode, s.startSlot
	lease := s.j.Lease
	misses := 0
	for {
		// Refill before picking so the queue never starves while the
		// feed still has tasks.
		if !s.exhausted && s.q.live <= s.window/2 {
			s.refill(wp)
		}
		if lease != nil && s.q.live > 0 && !lease.Available() {
			// Work is queued but the job's slot grant is spent; idle
			// until the scheduler re-grants.
			wp.Sleep(0.25)
			continue
		}
		n := s.pull(node, misses)
		if n == nil {
			if s.q.live == 0 {
				if s.drained() {
					return
				}
				// The feed may refill, or speculation may still queue
				// backups; idle until every task has settled.
				wp.Sleep(0.25)
				continue
			}
			// Delay scheduling: give closer tiers a few beats before
			// widening the search.
			misses++
			wp.Sleep(0.2)
			continue
		}
		misses = 0
		if n.t.done {
			// A queued backup whose task committed before any slot freed
			// up — nothing left to do.
			continue
		}
		a := s.launch(wp, node, slot, n)
		s.settle(&a)
	}
}

// pull picks the next entry for a worker on node that has come up empty
// misses times in a row. The pick radius widens 3 delay beats per tier:
// host-local immediately, rack-local after 3, zone-local after 6, and any
// task at all after the last tier the node's topology offers.
func (s *stage) pull(node *cluster.Node, misses int) *qnode {
	q := &s.q
	stealAt := 0
	for i, tier := range [...]struct {
		index map[string][]*qnode
		key   string
	}{{q.byHost, node.Name}, {q.byRack, node.Rack}, {q.byZone, node.Zone}} {
		if tier.key == "" {
			continue
		}
		if misses >= 3*i {
			if n := q.pickPreferred(tier.index, tier.key); n != nil {
				return n
			}
		}
		stealAt = 3 * (i + 1)
	}
	if misses >= stealAt {
		return q.pickAny()
	}
	return nil
}

// attempt is one try of a task: launch runs it, settle classifies it.
type attempt struct {
	t      *Task
	spec   bool // a speculative backup, or the retry of one
	tc     *TaskContext
	span   *obs.Span
	commit func()
	err    error
}

// launch runs one attempt of n's task on the worker's slot: take a lease
// token, draw the attempt's fault, open its span, pay the container
// startup and run the body.
func (s *stage) launch(wp *sim.Proc, node *cluster.Node, slot int, n *qnode) attempt {
	j, t := s.j, n.t
	var token uint64
	if j.Lease != nil {
		// No yield since the worker's Available check, so the slot is
		// still free.
		token = j.Lease.Acquire()
	}
	t.attempt++
	if t.inflight == 0 {
		t.started = wp.Now()
	}
	t.inflight++
	s.attempts.Inc()
	if n.spec {
		s.specLaunched.Inc()
	}
	slow := 1.0
	var ferr error
	if j.Faults != nil {
		ferr, slow = j.Faults.TaskFault(s.name, t.index, t.attempt)
		slow = max(slow, 1)
	}
	a := attempt{t: t, spec: n.spec}
	if j.Obs != nil {
		a.span = j.Obs.StartSpan("task:"+t.Label, "mapreduce", s.span)
		a.span.SetTrack(fmt.Sprintf("%s/slot-%d", node.Name, slot))
		a.span.Arg("node", node.Name)
		a.span.Arg("attempt", t.attempt)
		if n.spec {
			a.span.Arg("speculative", true)
		}
		if slow > 1 {
			a.span.Arg("slowdown", slow)
		}
		// Startup (container launch) charge, recorded so post-run
		// analysis can split the attempt's wall time into launch vs.
		// useful work.
		a.span.Arg("startup", s.startup*slow)
	}
	a.tc = &TaskContext{job: j, proc: wp, node: node,
		stats: TaskStats{Label: t.Label, Node: node.Name, Start: wp.Now(), Attempt: t.attempt},
		slow:  slow, lease: j.Lease, token: token}
	prev := wp.SetSpan(a.span)
	wp.Sleep(s.startup * slow)
	switch {
	case ferr != nil:
		a.err = ferr
	case j.Lease != nil && j.Lease.Killed(token):
		// Revoked during container launch: nothing ran.
		a.err = ErrPreempted
	default:
		a.commit, a.err = runBody(t, a.tc)
	}
	a.tc.stats.End = wp.Now()
	wp.SetSpan(prev)
	t.inflight--
	if j.Lease != nil {
		j.Lease.Release(token)
	}
	return a
}

// runBody executes one task attempt's body, converting the preemption
// panic (raised by TaskContext.Charge when the attempt's lease token is
// killed mid-compute) into ErrPreempted; every other panic re-raises.
func runBody(t *Task, tc *TaskContext) (commit func(), err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(preemptSignal); ok {
				commit, err = nil, ErrPreempted
				return
			}
			panic(r)
		}
	}()
	return t.Run(tc)
}

// settle is the one place an attempt's outcome is classified:
//
//	preempted         -> retry, without consuming the MaxAttempts budget
//	failed, budget    -> retry
//	failed, no budget -> the stage fails, unless a sibling still runs
//	succeeded         -> commit: the task's first finisher publishes
//
// and anything finishing after its task settled (a speculative loser, a
// moot failure) is dropped.
func (s *stage) settle(a *attempt) {
	t := a.t
	switch {
	case errors.Is(a.err, ErrPreempted):
		s.preempted.Inc()
		a.span.Arg("preempted", true)
		a.span.End()
		if !t.done {
			// Preemption is the scheduler's doing, not the task's: hand
			// the attempt back.
			t.attempt--
			s.retry(a)
		}
	case a.err != nil:
		s.failures.Inc()
		a.span.Arg("failed", true)
		a.span.End()
		switch {
		case t.done:
			// A backup's sibling already committed; this failure is moot.
		case t.attempt < s.maxAttempts:
			s.retry(a)
		case t.inflight > 0:
			// Out of budget, but a sibling attempt is still running and
			// may yet commit.
		default:
			s.retire(t)
			s.fail(a.err)
		}
	case t.done:
		// The other attempt committed first: discard this one's work. The
		// loss was already counted when the winner committed.
		a.span.Arg("discarded", true)
		a.span.End()
	default:
		if a.spec {
			s.specWins.Inc()
		} else if t.speculated {
			// Original finished first; the backup (queued or running) was
			// wasted work.
			s.specLosses.Inc()
		}
		a.span.End()
		s.completed.Inc()
		d := a.tc.stats.Duration()
		s.taskSeconds.Observe(d)
		s.durations.Observe(d)
		a.commit()
		if s.exhausted && len(s.stats) == cap(s.stats) {
			s.stats = slices.Grow(s.stats, s.pending) // every task left to commit is minted
		}
		s.stats = append(s.stats, a.tc.stats)
		s.retire(t)
	}
}

// retry requeues a's task under a's label. Once the stage has failed
// nothing is requeued: the task is abandoned as soon as none of its
// attempts is running.
func (s *stage) retry(a *attempt) {
	switch {
	case s.err == nil:
		s.q.push(a.t, a.spec)
	case a.t.inflight == 0:
		s.retire(a.t)
	}
}

// retire settles t: no further attempt of it will be launched or counted.
func (s *stage) retire(t *Task) {
	t.done = true
	s.pending--
	s.wg.Done()
}

// fail records the stage's first permanent failure and stops the stage:
// the job's answer is known, so the feed is closed and every queued task
// with no attempt running is abandoned. Attempts in flight run out.
func (s *stage) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	if !s.exhausted {
		s.exhausted = true
		s.wg.Done() // release the source token
	}
	for n := s.q.pickAny(); n != nil; n = s.q.pickAny() {
		if !n.t.done && n.t.inflight == 0 {
			s.retire(n.t)
		}
	}
}

// speculate is the stage's monitor process: once enough tasks have
// finished to trust the duration distribution, a task whose single running
// attempt is older than the threshold gets one backup queued. Whichever
// attempt finishes first commits; the loser runs out its slot, discarded.
func (s *stage) speculate(sp *sim.Proc) {
	spec := s.j.Speculation
	interval, mult, minDone := spec.Interval, spec.Multiplier, max(spec.MinCompleted, 1)
	if interval <= 0 {
		interval = 0.5
	}
	if mult <= 0 {
		mult = 1
	}
	for !s.exhausted || s.pending > 0 {
		sp.Sleep(interval)
		if s.err != nil || s.exhausted && s.pending == 0 {
			return
		}
		if int(s.durations.Count()) < minDone {
			continue
		}
		threshold := mult * s.durations.Quantile(spec.Quantile)
		if threshold <= 0 {
			continue
		}
		// Scan the minted tasks, dropping settled ones so the scan set
		// tracks the window rather than the whole job.
		live := s.tracked[:0]
		for _, t := range s.tracked {
			if t.done {
				continue
			}
			live = append(live, t)
			if t.speculated || t.inflight != 1 || t.attempt >= s.maxAttempts || sp.Now()-t.started <= threshold {
				continue
			}
			t.speculated = true
			s.q.push(t, true)
		}
		clear(s.tracked[len(live):])
		s.tracked = live
	}
}
