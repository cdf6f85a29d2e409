// Package mapreduce is a Hadoop-like MapReduce engine running under the
// simulation kernel. It provides the pieces SciDP plugs into: an
// InputFormat abstraction (SciDP's contribution is, concretely, a new
// input format whose splits are dummy blocks resolved against a PFS),
// locality-aware slot scheduling over a cluster, map output partitioning,
// a streaming sort-merge shuffle that charges the cluster fabric (sorted
// per-map runs, k-way merged at the reducer — see shuffle.go, merge.go),
// and reduce aggregation. Scheduling is one stage runner (stage.go,
// queue.go): a job is two stages, and a caller with its own task feed runs
// a wave on it through Job.RunStage, as the in-situ pipeline does.
//
// User map/reduce functions are real Go code operating on real data; they
// charge modeled compute time through TaskContext.Charge / Phase, and all
// I/O they perform through the simulated file systems charges virtual
// time automatically.
//
// The engine runs the map wave to completion before starting reducers
// (no slow-start); the paper's workloads are map-dominated, and the
// within-wave overlap of one task's PFS reads with other tasks' compute —
// the effect SciDP exploits — is fully modeled.
package mapreduce

import (
	"errors"
	"fmt"
	"slices"

	"scidp/internal/cluster"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

// SlotLease gates a job's task slots from the outside: a multi-tenant
// scheduler grants each running job a slot budget and can shrink it
// mid-flight (preemption). The engine consults the lease from worker
// processes on the kernel thread, so implementations need no locking but
// must be deterministic — state may change only from kernel events.
//
// A nil lease (the default) gives the job every cluster slot, and its
// charged compute is never cut into revocation quanta.
type SlotLease interface {
	// Available reports whether the job may start another task attempt
	// right now. Workers finding no slot back off and re-ask.
	Available() bool
	// Acquire takes one slot and returns a token identifying the
	// attempt. The engine calls it only immediately after a true
	// Available, with no yield in between.
	Acquire() uint64
	// Release returns the attempt's slot, whatever the attempt's fate
	// (commit, failure, or preemption).
	Release(token uint64)
	// Killed reports whether the grant shrank out from under this
	// attempt. The engine polls it between compute quanta and abandons
	// the attempt (ErrPreempted) when true.
	Killed(token uint64) bool
}

// ErrPreempted marks a task attempt abandoned because its slot lease was
// revoked mid-run. Preempted attempts requeue without consuming the
// MaxAttempts budget — preemption is the scheduler's doing, not the
// task's.
var ErrPreempted = errors.New("mapreduce: task attempt preempted")

// preemptSignal is the panic payload Charge raises when the attempt's
// lease token is killed mid-compute; runBody recovers it into
// ErrPreempted. Any other panic passes through untouched.
type preemptSignal struct{}

// preemptQuantum is the virtual-time slice between lease-revocation
// checks inside a leased task's Charge, bounding how long a preempted
// attempt keeps holding its slot.
const preemptQuantum = 0.25

// KV is one key/value pair.
type KV struct {
	// K is the key.
	K string
	// V is the value.
	V any
}

// Split is one unit of map input.
type Split struct {
	// Label names the split for stats ("plot_18_00_00.nc/QR#3").
	Label string
	// Payload carries whatever the InputFormat needs to read the split.
	Payload any
	// Length is the advertised byte size (drives scheduling stats only).
	Length int64
	// Locations are preferred host names (empty = no locality, schedule
	// anywhere — the case for SciDP's dummy blocks).
	Locations []string
}

// InputFormat produces splits and reads their records.
type InputFormat interface {
	// Splits enumerates the job's input splits; p charges the metadata
	// operations this requires (NameNode RPCs, PFS stats).
	Splits(p *sim.Proc) ([]*Split, error)
	// ForEach reads one split and invokes fn per record. I/O goes
	// through tc's process so virtual time is charged where the task
	// runs.
	ForEach(tc *TaskContext, s *Split, fn func(key string, value any) error) error
}

// SplitSource yields a job's splits one at a time, so a million-split
// job never materializes its whole split table: the engine pulls splits
// lazily into a bounded scheduling window (Job.SplitWindow) as task
// slots drain it.
type SplitSource interface {
	// Next returns the next split, or (nil, nil) once the source is
	// exhausted. p is the simulated process doing the pull — the job
	// driver for the initial window, then whichever task slot drains
	// the queue below its refill mark — so any metadata cost the source
	// models lands on the puller's virtual timeline.
	Next(p *sim.Proc) (*Split, error)
}

// StreamingInput is an optional InputFormat extension: a format that can
// enumerate splits incrementally implements it and the engine will pull
// from the source instead of calling Splits, keeping split and task
// state O(SplitWindow) instead of O(total splits).
type StreamingInput interface {
	InputFormat
	// SplitSource opens the incremental split stream; p charges
	// whatever up-front metadata the format needs.
	SplitSource(p *sim.Proc) (SplitSource, error)
}

// sliceSplits adapts an eagerly-materialized split slice to SplitSource.
// It owns a private copy of the slice header array: Next releases each
// entry as consumed so huge split tables shed memory as the job drains
// them, and that must not scribble nils into the slice the InputFormat
// returned — formats may hand out a long-lived slice they reuse across
// Run calls.
type sliceSplits struct {
	splits []*Split
	next   int
}

func (ss *sliceSplits) Next(*sim.Proc) (*Split, error) {
	if ss.next >= len(ss.splits) {
		return nil, nil
	}
	s := ss.splits[ss.next]
	ss.splits[ss.next] = nil // release as consumed
	ss.next++
	return s, nil
}

// StaticInput is a fixed split list as an InputFormat: each split is one
// record, its label the key and its payload the value.
type StaticInput []*Split

// Splits returns the list.
func (s StaticInput) Splits(*sim.Proc) ([]*Split, error) { return s, nil }

// ForEach hands the split's payload through.
func (s StaticInput) ForEach(tc *TaskContext, sp *Split, fn func(key string, value any) error) error {
	return fn(sp.Label, sp.Payload)
}

// MapFunc consumes one record and emits intermediate pairs via tc.Emit.
type MapFunc func(tc *TaskContext, key string, value any) error

// ReduceFunc consumes one grouped key and emits final pairs via tc.Emit.
type ReduceFunc func(tc *TaskContext, key string, values []any) error

// Job describes one MapReduce execution.
type Job struct {
	// Name labels the job in process names and errors.
	Name string
	// Cluster is where tasks run: each node runs Node.Slots of them at
	// once (the paper runs 8).
	Cluster *cluster.Cluster
	// Input produces the splits.
	Input InputFormat
	// Map is the map function (required).
	Map MapFunc
	// Reduce is the reduce function; nil runs a map-only job whose map
	// outputs become the job output.
	Reduce ReduceFunc
	// NumReducers is the reduce task count (default 1 when Reduce is
	// set).
	NumReducers int
	// SplitWindow bounds how many splits are materialized as schedulable
	// tasks at once (default 1024). With a StreamingInput the engine
	// pulls more splits only as the window drains, so a million-split
	// job holds O(SplitWindow) task state; with a plain InputFormat the
	// split slice exists anyway and the window only bounds queue depth.
	SplitWindow int
	// TaskStartup is the fixed per-task launch cost in seconds (YARN
	// container + JVM spin-up; default 1.0).
	TaskStartup float64
	// PairBytes sizes an intermediate pair for shuffle accounting
	// (default: len(key) + 16).
	PairBytes func(kv KV) int64
	// Partition routes a key to a reducer (default: FNV hash).
	Partition func(key string, reducers int) int
	// MaxAttempts bounds task attempts — retries after failure and
	// speculative backups both draw from the same budget (default 1 =
	// no retry, no speculation).
	MaxAttempts int
	// Faults, when set, is consulted once per task attempt and can fail
	// the attempt (after its startup cost) or slow its modeled compute.
	// The chaos injector satisfies this; tests can use any stub.
	Faults TaskFaults
	// Speculation enables backup attempts for straggling map tasks.
	// Reduce tasks never speculate: their bodies write job output to the
	// shared file systems directly, so duplicate attempts would not be
	// idempotent. See Speculation for the policy knobs.
	Speculation Speculation
	// Obs, when non-nil, receives the job's spans (job -> phase -> task,
	// with tasks placed on node/slot tracks) and metrics: task counts,
	// attempts and failures, task and phase duration histograms, shuffle
	// bytes. Nil costs one check per site.
	Obs *obs.Registry
	// Lease, when non-nil, externally gates this job's slot usage: a
	// multi-tenant scheduler grants and revokes slots while the job
	// runs. Workers idle when the lease has no free slot, and a running
	// attempt whose token is killed abandons work at the next compute
	// quantum and requeues without consuming its MaxAttempts budget.
	// Nil = the job owns every cluster slot.
	Lease SlotLease
}

// TaskFaults is the engine's single fault-injection point, the one hook
// both the chaos subsystem and tests inject task faults through. It is
// consulted once per task attempt; a non-nil error fails the attempt
// after its startup cost (the container launched, then the task died),
// and a slowdown factor > 1 stretches the attempt's startup and charged
// compute — a straggler. internal/chaos's Injector satisfies this
// structurally (chaos does not import mapreduce), as can any test stub.
type TaskFaults interface {
	TaskFault(phase string, task, attempt int) (err error, slowdown float64)
}

// Speculation is the backup-attempt policy for straggling map tasks,
// modeled on Hadoop speculative execution: once enough tasks have
// finished to estimate the phase's duration distribution, any running
// task older than Multiplier × the Quantile gets one backup attempt on a
// free slot; the first attempt to finish commits, the other's work is
// discarded. All timing lives on the virtual clock, so speculation is
// deterministic like everything else.
type Speculation struct {
	// Quantile of the completed-task duration distribution that anchors
	// the slowness threshold, e.g. 0.75. Zero disables speculation.
	Quantile float64
	// Multiplier scales the quantile into the threshold (default 1).
	Multiplier float64
	// MinCompleted is how many tasks must complete before the
	// distribution is trusted (default 1).
	MinCompleted int
	// Interval is the monitor's scan period in virtual seconds
	// (default 0.5).
	Interval float64
}

// taskSecondsBuckets covers task and phase durations from 1/8 s to ~17
// virtual minutes, doubling per bucket.
var taskSecondsBuckets = obs.ExpBuckets(0.125, 2, 14)

// TaskStats records one task's timing.
type TaskStats struct {
	// Label is the split label (or "reduce-N").
	Label string
	// Node is where the task ran.
	Node string
	// Start and End are virtual times.
	Start, End float64
	// Phases are named sub-phase durations (Read/Convert/Plot in the
	// paper's Figure 7), in the order first charged.
	Phases []Phase
	// Attempt is the attempt number that succeeded (1-based).
	Attempt int
}

// Phase is a named duration within a task.
type Phase struct {
	// Name is the phase label.
	Name string
	// Seconds is the accumulated virtual duration.
	Seconds float64
}

// Duration returns the task's total virtual time.
func (ts *TaskStats) Duration() float64 { return ts.End - ts.Start }

// Result is a completed job's output.
type Result struct {
	// Output holds the final pairs sorted by key then insertion order.
	Output []KV
	// MapStats has one entry per map task in completion order.
	MapStats []TaskStats
	// ReduceStats has one entry per reduce task.
	ReduceStats []TaskStats
	// Start and End are the job's virtual time bounds.
	Start, End float64
	// ShuffleBytes is the total intermediate bytes moved between nodes.
	ShuffleBytes int64
}

// Elapsed returns the job's virtual duration.
func (r *Result) Elapsed() float64 { return r.End - r.Start }

// PhaseMean averages a named phase across map tasks (0 when absent).
func (r *Result) PhaseMean(name string) float64 {
	var sum float64
	var n int
	for i := range r.MapStats {
		for _, ph := range r.MapStats[i].Phases {
			if ph.Name == name {
				sum += ph.Seconds
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TaskContext is handed to map and reduce functions.
type TaskContext struct {
	job   *Job
	proc  *sim.Proc
	node  *cluster.Node
	stats TaskStats
	out   *taskOut // where Emit's pairs go (nil in a RunStage task)
	// slow stretches modeled compute (startup + Charge) for straggler
	// injection; always >= 1.
	slow float64
	// lease/token identify this attempt's slot grant; a nil lease means
	// the job owns the cluster and Charge never checks for revocation.
	lease SlotLease
	token uint64
}

// Proc returns the task's simulated process (for file-system calls).
func (tc *TaskContext) Proc() *sim.Proc { return tc.proc }

// Node returns the machine the task runs on.
func (tc *TaskContext) Node() *cluster.Node { return tc.node }

// Emit produces an intermediate (map) or final (reduce) pair.
func (tc *TaskContext) Emit(key string, value any) { tc.out.emit(KV{K: key, V: value}) }

// Charge blocks the task for d seconds of modeled compute and attributes
// it to the named phase. An injected straggler slowdown stretches the
// sleep (and the attributed duration — the phase histogram should show
// the straggler as slow, or speculation could never spot it).
func (tc *TaskContext) Charge(phase string, d float64) {
	d *= tc.slow
	if tc.lease == nil || d <= 0 {
		tc.proc.Sleep(d)
		tc.addPhase(phase, d)
		return
	}
	// Leased attempts sleep in preemptQuantum slices, checking between
	// slices whether the scheduler killed this attempt's token; a killed
	// attempt books the compute it actually spent, then unwinds via the
	// preemption panic that runBody converts to ErrPreempted.
	var charged float64
	for remaining := d; remaining > 0; remaining -= preemptQuantum {
		q := min(preemptQuantum, remaining)
		tc.proc.Sleep(q)
		charged += q
		if tc.lease.Killed(tc.token) {
			tc.addPhase(phase, charged)
			panic(preemptSignal{})
		}
	}
	tc.addPhase(phase, charged)
}

// Compute runs fn on the kernel's data plane (sim.ComputePool) and
// blocks the task — in real time only, zero virtual time — until it
// returns. Use it around the pure byte work of a map or reduce function
// (parsing, scanning, sorting); model the work's cost separately with
// Charge. fn must not call Charge, Phase, or any simulation API, and
// must not touch state shared with other tasks. Emit is safe inside fn
// because the task itself stays parked until fn returns.
// With an inline pool fn runs on the kernel thread — same schedule, same
// result, serially.
func (tc *TaskContext) Compute(fn func()) {
	tc.proc.Await(tc.proc.Compute(fn))
}

// Phase runs fn and attributes its virtual duration to the named phase —
// use it around I/O so transfer time lands in the right bucket.
func (tc *TaskContext) Phase(name string, fn func()) {
	start := tc.proc.Now()
	fn()
	tc.addPhase(name, tc.proc.Now()-start)
}

func (tc *TaskContext) addPhase(name string, d float64) {
	if tc.job.Obs != nil {
		tc.job.Obs.Histogram("mr/task_phase_seconds", taskSecondsBuckets, obs.L("phase", name)).Observe(d)
	}
	for i := range tc.stats.Phases {
		if tc.stats.Phases[i].Name == name {
			tc.stats.Phases[i].Seconds += d
			return
		}
	}
	if tc.stats.Phases == nil {
		tc.stats.Phases = make([]Phase, 0, 2) // most tasks: a read and its work
	}
	tc.stats.Phases = append(tc.stats.Phases, Phase{Name: name, Seconds: d})
}

// Run executes the job from within an existing simulated process (a
// driver), blocking in virtual time until the job completes: a map stage
// over the input's splits, then — unless the job is map-only — a reduce
// stage over the shuffle the map tasks wrote.
func (j *Job) Run(p *sim.Proc) (*Result, error) {
	if j.Map == nil {
		return nil, fmt.Errorf("mapreduce: job %s has no map function", j.Name)
	}
	if err := j.checkCluster(); err != nil {
		return nil, err
	}
	res := &Result{Start: p.Now()}
	sh := newShuffle(j, res)
	if j.Obs != nil {
		j.Obs.Counter("mr/jobs_total").Inc()
		sh.moved = j.Obs.Counter("mr/shuffle_bytes_total")
		jobSpan := j.Obs.StartSpan("job:"+j.Name, "mapreduce", p.Span())
		jobSpan.SetTrack("driver")
		jobSpan.Arg("job", j.Name)
		if jobSpan != nil {
			prev := p.SetSpan(jobSpan)
			defer func() {
				p.SetSpan(prev)
				jobSpan.End()
			}()
		}
	}
	src, err := j.splitSource(p)
	if err == nil {
		res.MapStats, err = j.runStage(p, "map", sh.mapFeed(src), j.SplitWindow, true)
	}
	if err == nil && sh.reducers > 0 {
		res.ReduceStats, err = j.runStage(p, "reduce", sh.reduceFeed(), sh.reducers, false)
	}
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", j.Name, err)
	}
	res.Output = sh.output()
	sortRun(res.Output)
	res.End = p.Now()
	return res, nil
}

func (j *Job) checkCluster() error {
	if j.Cluster == nil || len(j.Cluster.Nodes) == 0 {
		return fmt.Errorf("mapreduce: job %s has no cluster", j.Name)
	}
	for _, n := range j.Cluster.Nodes {
		if n.Slots > 0 {
			return nil
		}
	}
	return fmt.Errorf("mapreduce: job %s: cluster %s has no task slots", j.Name, j.Cluster.Name)
}

// splitSource opens the job's input. Splits arrive through a SplitSource:
// a StreamingInput is pulled lazily so the engine only ever holds
// O(SplitWindow) of them; any other format materializes once via Splits
// and drains through the same path.
func (j *Job) splitSource(p *sim.Proc) (SplitSource, error) {
	if si, ok := j.Input.(StreamingInput); ok {
		return si.SplitSource(p)
	}
	splits, err := j.Input.Splits(p)
	if err != nil {
		return nil, err
	}
	return &sliceSplits{splits: slices.Clone(splits)}, nil
}
