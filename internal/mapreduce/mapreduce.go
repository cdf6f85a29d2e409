// Package mapreduce is a Hadoop-like MapReduce engine running under the
// simulation kernel. It provides the pieces SciDP plugs into: an
// InputFormat abstraction (SciDP's contribution is, concretely, a new
// input format whose splits are dummy blocks resolved against a PFS),
// locality-aware slot scheduling over a cluster, map output partitioning,
// a streaming sort-merge shuffle that charges the cluster fabric (sorted
// per-map runs, k-way merged at the reducer — see merge.go), and reduce
// aggregation.
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
	"sort"

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
// A nil lease (the default) leaves the engine exactly as before: every
// cluster slot belongs to the job.
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

func newSliceSplits(splits []*Split) *sliceSplits {
	own := make([]*Split, len(splits))
	copy(own, splits)
	return &sliceSplits{splits: own}
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

// MapFunc consumes one record and emits intermediate pairs via tc.Emit.
type MapFunc func(tc *TaskContext, key string, value any) error

// ReduceFunc consumes one grouped key and emits final pairs via tc.Emit.
type ReduceFunc func(tc *TaskContext, key string, values []any) error

// Job describes one MapReduce execution.
type Job struct {
	// Name labels the job in process names and errors.
	Name string
	// Cluster is where tasks run.
	Cluster *cluster.Cluster
	// SlotsPerNode is the concurrent task count per node (the paper runs
	// 8). Zero takes each node's slot capacity.
	SlotsPerNode int
	// Input produces the splits.
	Input InputFormat
	// Map is the map function (required).
	Map MapFunc
	// Reduce is the reduce function; nil runs a map-only job whose map
	// outputs become the job output.
	Reduce ReduceFunc
	// Combine, when set, folds each map task's output per key before the
	// shuffle (a Hadoop combiner) — same signature as Reduce, must be
	// associative and emit pairs of the same shape it consumes.
	Combine ReduceFunc
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
	// bytes, and a registry view of TaskContext.Counter. Nil costs one
	// check per site.
	Obs *obs.Registry
	// Lease, when non-nil, externally gates this job's slot usage: a
	// multi-tenant scheduler grants and revokes slots while the job
	// runs. Workers idle when the lease has no free slot, and a running
	// attempt whose token is killed abandons work at the next compute
	// quantum and requeues without consuming its MaxAttempts budget.
	// Nil = the job owns every cluster slot (the historical behavior).
	Lease SlotLease
}

// TaskFaults is the engine's single fault-injection point, unifying what
// used to be an ad-hoc per-job fail hook with the chaos subsystem. It is
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

func (s Speculation) enabled() bool { return s.Quantile > 0 }

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
	// Counters are the job's accumulated named counters.
	Counters map[string]int64
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
	job      *Job
	proc     *sim.Proc
	node     *cluster.Node
	stats    *TaskStats
	emit     func(KV)
	result   *Result
	counters map[string]int64
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

// Now returns the current virtual time.
func (tc *TaskContext) Now() float64 { return tc.proc.Now() }

// Emit produces an intermediate (map) or final (reduce) pair.
func (tc *TaskContext) Emit(key string, value any) { tc.emit(KV{K: key, V: value}) }

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
// must not touch state shared with other tasks. Emit and Counter are
// safe inside fn because the task itself stays parked until fn returns.
// Without a pool on the kernel, fn runs inline — same result, serially.
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
	tc.stats.Phases = append(tc.stats.Phases, Phase{Name: name, Seconds: d})
}

// Counter adds delta to the named job counter. Increments accumulate
// per-attempt and merge into the job totals only when the attempt
// commits, so failed attempts and discarded speculative losers never
// pollute the counts (Hadoop's failed-attempt-counter semantics). With
// Job.Obs attached the committed increments land in the registry series
// mr/counter_total{job=..., name=...}, so user counters appear in the
// Prometheus dump alongside the engine's own metrics.
func (tc *TaskContext) Counter(name string, delta int64) {
	tc.counters[name] += delta
}

// commitCounters merges a winning attempt's counters into the job's, in
// sorted key order so registry series always register in the same order.
func (tc *TaskContext) commitCounters() {
	if len(tc.counters) == 0 {
		return
	}
	keys := make([]string, 0, len(tc.counters))
	for k := range tc.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tc.result.Counters[k] += tc.counters[k]
		if tc.job.Obs != nil {
			tc.job.Obs.Counter("mr/counter_total", obs.L("job", tc.job.Name), obs.L("name", k)).Add(float64(tc.counters[k]))
		}
	}
}

// task is one schedulable unit. The body does all its work against
// attempt-local state and returns a commit closure that publishes the
// result; with speculation two attempts can run the body concurrently
// (in virtual time), but exactly one commit ever runs — the first
// finisher's. A failed body returns a nil commit.
type task struct {
	index int
	label string
	locs  []string
	body  func(tc *TaskContext) (commit func(), err error)

	attempt  int     // attempts launched so far (retries + backups)
	inflight int     // attempts currently running
	started  float64 // virtual start of the oldest running attempt
	done     bool    // an attempt has committed
	// speculated marks that a backup attempt was (or is queued to be)
	// launched; at most one backup per task.
	speculated bool
	// pendingSpec marks the queued entry as a speculative backup so the
	// worker that pops it can label the attempt.
	pendingSpec bool
}

// runBody executes one task attempt's body, converting the preemption
// panic (raised by TaskContext.Charge when the attempt's lease token is
// killed mid-compute) into ErrPreempted; every other panic re-raises.
func runBody(t *task, tc *TaskContext) (commit func(), err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(preemptSignal); ok {
				commit, err = nil, ErrPreempted
				return
			}
			panic(r)
		}
	}()
	return t.body(tc)
}

// localityQueue hands tasks to workers, preferring node-local splits,
// then (when the cluster has topology) rack-local and zone-local ones.
// Workers that find only remote-preferring tasks back off briefly before
// widening to the next tier and finally stealing (delay scheduling), so
// locality holds whenever nearby slots exist without risking starvation
// when they do not.
//
// Entries are indexed per preferred host, rack, and zone, so every pick
// is O(1) amortized instead of a scan of the whole queue (hot at large
// task counts). Each push wraps the task in a qnode stamped with a FIFO
// sequence number; taking a node marks it consumed in every list that
// references it, and heads are trimmed lazily. Selection order within a
// tier matches the old first-match scan: the live candidate with the
// lowest sequence wins. Drained index keys are deleted and consumed
// entries are compacted out once they outnumber live ones, so a
// long-running windowed phase holds O(window) queue state instead of
// accumulating one entry per task ever pushed.
type localityQueue struct {
	seq    uint64
	live   int
	dead   int                 // consumed qnodes still referenced by lists
	fifo   []*qnode            // every live node, FIFO — pickAny's view
	byHost map[string][]*qnode // nodes preferring each host
	byRack map[string][]*qnode // nodes preferring any host in each rack
	byZone map[string][]*qnode // nodes preferring any host in each zone
	noPref []*qnode            // nodes with no preference, eligible anywhere
	topo   *cluster.Cluster    // nil when the cluster is flat
}

// qnode is one queued task entry. A task requeued after a failure (or
// for a speculative backup) gets a fresh qnode with a fresh sequence.
type qnode struct {
	t     *task
	seq   uint64
	taken bool
}

func newLocalityQueue(cl *cluster.Cluster) *localityQueue {
	q := &localityQueue{byHost: map[string][]*qnode{}}
	if cl != nil && cl.HasTopology() {
		q.topo = cl
		q.byRack = map[string][]*qnode{}
		q.byZone = map[string][]*qnode{}
	}
	return q
}

// qhead trims consumed entries off the list's front and returns the
// trimmed list plus its first live entry (nil when none remain).
func qhead(list []*qnode) ([]*qnode, *qnode) {
	for len(list) > 0 && list[0].taken {
		list = list[1:]
	}
	if len(list) == 0 {
		return list, nil
	}
	return list, list[0]
}

// mapHead trims consumed entries off m[key] and returns its first live
// entry. A drained key is deleted outright: the maps must not retain one
// slowly-growing entry per host, rack, and zone a task ever preferred.
func mapHead(m map[string][]*qnode, key string) *qnode {
	if m == nil {
		return nil
	}
	list, n := qhead(m[key])
	if n == nil {
		delete(m, key)
		return nil
	}
	m[key] = list
	return n
}

// take consumes n everywhere it is indexed and returns its task.
func (q *localityQueue) take(n *qnode) *task {
	n.taken = true
	q.live--
	q.dead++
	if q.dead > 256 && q.dead > 4*q.live {
		q.compact()
	}
	return n.t
}

// compact rewrites every list without its consumed entries. Amortized
// O(1) per take: it runs only once dead entries outnumber live ones 4:1,
// and resets the dead count to zero.
func (q *localityQueue) compact() {
	q.fifo = compactList(q.fifo)
	q.noPref = compactList(q.noPref)
	compactIndex(q.byHost)
	compactIndex(q.byRack)
	compactIndex(q.byZone)
	q.dead = 0
}

func compactList(list []*qnode) []*qnode {
	out := list[:0]
	for _, n := range list {
		if !n.taken {
			out = append(out, n)
		}
	}
	// Nil the tail so consumed nodes are collectable.
	tail := list[len(out):cap(list)]
	for i := range tail {
		tail[i] = nil
	}
	return out
}

func compactIndex(m map[string][]*qnode) {
	for key, list := range m {
		if trimmed := compactList(list); len(trimmed) == 0 {
			delete(m, key)
		} else {
			m[key] = trimmed
		}
	}
}

// pickLocal removes and returns the earliest-queued task that prefers
// nodeName or has no preference at all; nil when every queued task
// prefers another node.
func (q *localityQueue) pickLocal(nodeName string) *task {
	return q.pickPreferred(q.byHost, nodeName)
}

// pickRack is pickLocal one tier up: tasks preferring any host in the
// worker's rack.
func (q *localityQueue) pickRack(rack string) *task {
	return q.pickPreferred(q.byRack, rack)
}

// pickZone is the widest preference tier before an outright steal.
func (q *localityQueue) pickZone(zone string) *task {
	return q.pickPreferred(q.byZone, zone)
}

// pickPreferred races the earliest entry filed under key against the
// no-preference head, so selection stays global-FIFO among eligible
// candidates.
func (q *localityQueue) pickPreferred(m map[string][]*qnode, key string) *task {
	hn := mapHead(m, key)
	var nn *qnode
	q.noPref, nn = qhead(q.noPref)
	switch {
	case hn == nil && nn == nil:
		return nil
	case hn == nil:
		return q.take(nn)
	case nn == nil:
		return q.take(hn)
	case nn.seq < hn.seq:
		return q.take(nn)
	default:
		return q.take(hn)
	}
}

// pickAny removes and returns the head task regardless of preference.
func (q *localityQueue) pickAny() *task {
	var n *qnode
	q.fifo, n = qhead(q.fifo)
	if n == nil {
		return nil
	}
	return q.take(n)
}

func (q *localityQueue) empty() bool { return q.live == 0 }

func (q *localityQueue) push(t *task) {
	q.seq++
	n := &qnode{t: t, seq: q.seq}
	q.fifo = append(q.fifo, n)
	if len(t.locs) == 0 {
		q.noPref = append(q.noPref, n)
	} else {
		for _, h := range t.locs {
			q.byHost[h] = append(q.byHost[h], n)
		}
		if q.topo != nil {
			q.indexTopo(n, t.locs)
		}
	}
	q.live++
}

// indexTopo files n under the rack and zone of each preferred host.
// Within one push the only appends to a given rack/zone list are n
// itself, so a tail check dedups replicas sharing a domain without
// allocating a set.
func (q *localityQueue) indexTopo(n *qnode, locs []string) {
	for _, h := range locs {
		pl := q.topo.Place(h)
		if pl.Rack != "" && !endsWith(q.byRack[pl.Rack], n) {
			q.byRack[pl.Rack] = append(q.byRack[pl.Rack], n)
		}
		if pl.Zone != "" && !endsWith(q.byZone[pl.Zone], n) {
			q.byZone[pl.Zone] = append(q.byZone[pl.Zone], n)
		}
	}
}

func endsWith(list []*qnode, n *qnode) bool {
	return len(list) > 0 && list[len(list)-1] == n
}

// Run executes the job from within an existing simulated process (a
// driver), blocking in virtual time until the job completes.
func (j *Job) Run(p *sim.Proc) (*Result, error) {
	if j.Map == nil {
		return nil, fmt.Errorf("mapreduce: job %s has no map function", j.Name)
	}
	if j.Cluster == nil || len(j.Cluster.Nodes) == 0 {
		return nil, fmt.Errorf("mapreduce: job %s has no cluster", j.Name)
	}
	startup := j.TaskStartup
	if startup == 0 {
		startup = 1.0
	}
	partition := j.Partition
	if partition == nil {
		partition = defaultPartition
	}
	pairBytes := j.PairBytes
	if pairBytes == nil {
		pairBytes = func(kv KV) int64 { return int64(len(kv.K)) + 16 }
	}
	maxAttempts := j.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	reducers := j.NumReducers
	if j.Reduce != nil && reducers <= 0 {
		reducers = 1
	}

	res := &Result{Counters: map[string]int64{}, Start: p.Now()}

	var shuffleBytes *obs.Counter
	if j.Obs != nil {
		j.Obs.Counter("mr/jobs_total").Inc()
		shuffleBytes = j.Obs.Counter("mr/shuffle_bytes_total")
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

	// Splits arrive through a SplitSource: a StreamingInput is pulled
	// lazily so the engine only ever holds O(SplitWindow) of them; any
	// other format materializes once via Splits and drains through the
	// same path.
	var src SplitSource
	if si, ok := j.Input.(StreamingInput); ok {
		s, err := si.SplitSource(p)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %s: %w", j.Name, err)
		}
		src = s
	} else {
		splits, err := j.Input.Splits(p)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %s: %w", j.Name, err)
		}
		src = newSliceSplits(splits)
	}
	window := j.SplitWindow
	if window <= 0 {
		window = 1024
	}

	// Intermediate state: per map task, per reducer sorted run. Each
	// bucket is sorted once — by sortRun at map completion, or by the
	// combiner pass — so reducers can k-way merge instead of re-sorting.
	// The slice grows as the feed mints tasks; map-only jobs skip it.
	type mapOut struct {
		node    *cluster.Node
		buckets [][]KV
		bytes   []int64
	}
	var outs []*mapOut
	var mapOnly []KV

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	// Map tasks are minted on demand from the split source, at most
	// SplitWindow ahead of the slots draining them.
	nextMap := 0
	mapFeed := func(rp *sim.Proc) (*task, error) {
		s, err := src.Next(rp)
		if err != nil || s == nil {
			return nil, err
		}
		i := nextMap
		nextMap++
		if reducers > 0 {
			outs = append(outs, nil)
		}
		return &task{
			index: i,
			label: s.Label,
			locs:  s.Locations,
			body: func(tc *TaskContext) (func(), error) {
				mo := &mapOut{node: tc.node}
				if reducers > 0 {
					mo.buckets = make([][]KV, reducers)
					mo.bytes = make([]int64, reducers)
				}
				var localOnly []KV
				tc.emit = func(kv KV) {
					if reducers > 0 {
						b := partition(kv.K, reducers)
						bkt := mo.buckets[b]
						if bkt == nil {
							bkt = getKVBuf()
						}
						mo.buckets[b] = append(bkt, kv)
						mo.bytes[b] += pairBytes(kv)
					} else {
						localOnly = append(localOnly, kv)
					}
				}
				err := j.Input.ForEach(tc, s, func(key string, value any) error {
					return j.Map(tc, key, value)
				})
				if err != nil {
					return nil, err
				}
				if reducers > 0 {
					if j.Combine != nil {
						if err := combineBuckets(tc, j, mo.buckets, mo.bytes, pairBytes); err != nil {
							return nil, err
						}
					} else {
						// Buckets sort independently on the data plane:
						// fork-join within the task, and across map tasks in
						// flight at the same virtual instant the closures
						// overlap on the pool's workers.
						futs := make([]*sim.Future, 0, len(mo.buckets))
						for b := range mo.buckets {
							if bkt := mo.buckets[b]; len(bkt) > 1 {
								futs = append(futs, tc.proc.Compute(func() { sortRun(bkt) }))
							}
						}
						tc.proc.Await(futs...)
					}
				}
				return func() {
					if reducers > 0 {
						outs[i] = mo
					}
					mapOnly = append(mapOnly, localOnly...)
				}, nil
			},
		}, nil
	}
	j.runPhase(p, "map", mapFeed, window, startup, maxAttempts, &res.MapStats, res, fail)
	if firstErr != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", j.Name, firstErr)
	}

	if reducers == 0 {
		res.Output = mapOnly
		sortKVs(res.Output)
		res.End = p.Now()
		return res, nil
	}

	// Reduce wave: reducer r pulls bucket r from every map task.
	nodes := j.Cluster.Nodes
	finalParts := make([][]KV, reducers)
	reduceTasks := make([]*task, reducers)
	for r := 0; r < reducers; r++ {
		r := r
		home := nodes[r%len(nodes)]
		reduceTasks[r] = &task{
			index: r,
			label: fmt.Sprintf("reduce-%d", r),
			locs:  []string{home.Name},
			body: func(tc *TaskContext) (func(), error) {
				// Shuffle: fetch this reducer's sorted runs, in map-task
				// order (the merge's stability tie-break). ShuffleBytes
				// accrues per attempt, not at commit — a retried reducer
				// really does re-fetch its runs over the fabric.
				var parts []sim.Part
				runs := make([][]KV, 0, len(outs))
				for _, mo := range outs {
					if mo == nil {
						continue
					}
					if len(mo.buckets[r]) > 0 {
						runs = append(runs, mo.buckets[r])
					}
					if mo.node != tc.node && mo.bytes[r] > 0 {
						parts = append(parts, sim.Part{
							Bytes: float64(mo.bytes[r]),
							Res:   j.Cluster.NetPath(mo.node, tc.node),
						})
						res.ShuffleBytes += mo.bytes[r]
						shuffleBytes.Add(float64(mo.bytes[r]))
					}
				}
				// Per-run prefetch: index each run's group boundaries on
				// the data plane while the shuffle's flows drain, joining
				// after the transfer completes.
				spans := make([][]kvSpan, len(runs))
				futs := make([]*sim.Future, len(runs))
				for i := range runs {
					i := i
					futs[i] = tc.proc.Compute(func() { spans[i] = runSpans(runs[i]) })
				}
				tc.Phase("Shuffle", func() { tc.proc.TransferAll(parts...) })
				tc.proc.Await(futs...)
				// Streaming sort-merge: span-level k-way heap merge over
				// the indexed runs, grouped values reaching Reduce through
				// a pooled buffer (valid only for the duration of each
				// call).
				groups := 0
				for _, sp := range spans {
					groups += len(sp)
				}
				local := make([]KV, 0, groups)
				tc.emit = func(kv KV) { local = append(local, kv) }
				vals := getVals()
				defer putVals(vals)
				err := eachGroupSpans(runs, spans, vals, func(key string, vs []any) error {
					return j.Reduce(tc, key, vs)
				})
				for i := range spans {
					putSpanBuf(spans[i])
				}
				if err != nil {
					return nil, err
				}
				return func() { finalParts[r] = local }, nil
			},
		}
	}
	j.runPhase(p, "reduce", sliceFeed(reduceTasks), reducers, startup, maxAttempts, &res.ReduceStats, res, fail)
	if firstErr != nil {
		return nil, fmt.Errorf("mapreduce: job %s: %w", j.Name, firstErr)
	}
	// The reduce wave has consumed every run; recycle their buffers for
	// the next wave or job.
	for _, mo := range outs {
		if mo == nil {
			continue
		}
		for b := range mo.buckets {
			putKVBuf(mo.buckets[b])
			mo.buckets[b] = nil
		}
	}
	res.Output = slices.Concat(finalParts...)
	sortKVs(res.Output)
	res.End = p.Now()
	return res, nil
}

// taskFeed produces a phase's tasks on demand: (nil, nil) once the
// phase's work is fully enumerated. runPhase pulls from it lazily, never
// holding more than the scheduling window of un-run tasks.
type taskFeed func(p *sim.Proc) (*task, error)

// sliceFeed drains a pre-built task slice — the reduce wave's shape is
// known up front.
func sliceFeed(tasks []*task) taskFeed {
	next := 0
	return func(*sim.Proc) (*task, error) {
		if next >= len(tasks) {
			return nil, nil
		}
		t := tasks[next]
		next++
		return t, nil
	}
}

// runPhase executes the feed's tasks on the cluster's worker slots and
// blocks the driver until every task commits or permanently fails. Tasks
// are pulled into the queue in windows: the driver primes the first
// window, then whichever worker drains the queue below half the window
// refills it (charging any source metadata cost to that worker's
// timeline). Failed attempts requeue while the MaxAttempts budget lasts;
// with speculation enabled (map phase only) a monitor process launches
// backup attempts for straggling tasks already minted, and whichever
// attempt finishes first commits — the loser runs out its slot but its
// work is discarded. Workers escalate their pick radius with consecutive
// misses: host-local immediately, rack-local after 3 delay beats,
// zone-local after 6, any task after the last tier the topology offers.
func (j *Job) runPhase(p *sim.Proc, phase string, feed taskFeed, window int, startup float64, maxAttempts int, stats *[]TaskStats, res *Result, fail func(error)) {
	k := p.Kernel()
	if window < 1 {
		window = 1
	}
	var phaseSpan *obs.Span
	var attempts, failures, completed, preempted *obs.Counter
	var specLaunched, specWins, specLosses *obs.Counter
	var taskSeconds *obs.Histogram
	if j.Obs != nil {
		phaseSpan = j.Obs.StartSpan("phase:"+phase, "mapreduce", p.Span())
		l := obs.L("phase", phase)
		attempts = j.Obs.Counter("mr/task_attempts_total", l)
		failures = j.Obs.Counter("mr/task_failures_total", l)
		completed = j.Obs.Counter("mr/tasks_total", l)
		preempted = j.Obs.Counter("mr/tasks_preempted_total", l)
		specLaunched = j.Obs.Counter("mr/speculative_launched_total", l)
		specWins = j.Obs.Counter("mr/speculative_wins_total", l)
		specLosses = j.Obs.Counter("mr/speculative_losses_total", l)
		taskSeconds = j.Obs.Histogram("mr/task_seconds", taskSecondsBuckets, l)
	}
	spec := j.Speculation
	speculative := phase == "map" && spec.enabled() && maxAttempts > 1
	// durations feeds the speculation threshold even when no registry is
	// attached (taskSeconds would be a nil no-op then).
	durations := obs.NewHistogram(taskSecondsBuckets)
	q := newLocalityQueue(j.Cluster)
	var (
		exhausted bool    // the feed returned its final task
		pending   int     // minted tasks not yet committed or failed
		filling   bool    // a refill is in progress (its pull may yield)
		tracked   []*task // minted tasks the speculator scans
	)
	wg := k.NewWaitGroup()
	// The source token keeps the wait group open until the feed drains,
	// when the per-task holds take over.
	wg.Add(1)
	refill := func(rp *sim.Proc) {
		if filling || exhausted {
			return
		}
		filling = true
		for !exhausted && q.live < window {
			t, err := feed(rp)
			if err != nil {
				fail(err)
				t = nil
			}
			if t == nil {
				exhausted = true
				wg.Done() // release the source token
				break
			}
			t.attempt = 0
			t.inflight = 0
			t.done = false
			t.speculated = false
			t.pendingSpec = false
			pending++
			wg.Add(1)
			if speculative {
				tracked = append(tracked, t)
			}
			q.push(t)
		}
		filling = false
	}
	refill(p)
	for _, node := range j.Cluster.Nodes {
		slots := j.SlotsPerNode
		if slots <= 0 {
			if node.Slots != nil {
				slots = node.Slots.Capacity()
			} else {
				slots = 1
			}
		}
		for s := 0; s < slots; s++ {
			node := node
			s := s
			k.Go(fmt.Sprintf("%s/%s/%s-worker", j.Name, phase, node.Name), func(wp *sim.Proc) {
				misses := 0
				// The steal threshold grows with the tiers this node's
				// topology offers: 3 delay beats per tier.
				stealAt := 3
				if node.Rack != "" {
					stealAt = 6
				}
				if node.Zone != "" {
					stealAt = 9
				}
				pull := func() *task {
					if t := q.pickLocal(node.Name); t != nil {
						return t
					}
					if misses >= 3 && node.Rack != "" {
						if t := q.pickRack(node.Rack); t != nil {
							return t
						}
					}
					if misses >= 6 && node.Zone != "" {
						if t := q.pickZone(node.Zone); t != nil {
							return t
						}
					}
					if misses >= stealAt {
						return q.pickAny()
					}
					return nil
				}
				for {
					// Refill before picking so the queue never starves
					// while the feed still has tasks.
					if !exhausted && q.live <= window/2 {
						refill(wp)
					}
					if j.Lease != nil && !q.empty() && !j.Lease.Available() {
						// Work is queued but the job's slot grant is
						// spent; idle until the scheduler re-grants.
						wp.Sleep(0.25)
						continue
					}
					t := pull()
					if t == nil {
						if q.empty() {
							if exhausted && (!speculative || pending == 0) {
								return
							}
							// The feed may refill, or speculation may
							// still queue backups; idle until every task
							// has committed or failed.
							wp.Sleep(0.25)
							continue
						}
						// Delay scheduling: give closer tiers a few beats
						// before widening the search.
						misses++
						wp.Sleep(0.2)
						continue
					}
					misses = 0
					if t.done {
						// A queued backup whose task committed before any
						// slot freed up — nothing left to do.
						continue
					}
					isSpec := t.pendingSpec
					t.pendingSpec = false
					var token uint64
					if j.Lease != nil {
						// No yield since the Available check above, so
						// the slot is still free.
						token = j.Lease.Acquire()
					}
					t.attempt++
					if t.inflight == 0 {
						t.started = wp.Now()
					}
					t.inflight++
					attempts.Inc()
					if isSpec {
						specLaunched.Inc()
					}
					slow := 1.0
					var ferr error
					if j.Faults != nil {
						ferr, slow = j.Faults.TaskFault(phase, t.index, t.attempt)
						if slow < 1 {
							slow = 1
						}
					}
					var taskSpan *obs.Span
					if j.Obs != nil {
						taskSpan = j.Obs.StartSpan("task:"+t.label, "mapreduce", phaseSpan)
						taskSpan.SetTrack(fmt.Sprintf("%s/slot-%d", node.Name, s))
						taskSpan.Arg("node", node.Name)
						taskSpan.Arg("attempt", t.attempt)
						if isSpec {
							taskSpan.Arg("speculative", true)
						}
						if slow > 1 {
							taskSpan.Arg("slowdown", slow)
						}
						// Startup (container launch) charge, recorded so
						// post-run analysis can split the attempt's wall
						// time into launch vs. useful work.
						taskSpan.Arg("startup", startup*slow)
					}
					ts := TaskStats{Label: t.label, Node: node.Name, Start: wp.Now(), Attempt: t.attempt}
					tc := &TaskContext{job: j, proc: wp, node: node, stats: &ts, result: res,
						counters: map[string]int64{}, slow: slow,
						lease: j.Lease, token: token}
					prevSpan := wp.SetSpan(taskSpan)
					wp.Sleep(startup * slow)
					var commit func()
					var err error
					switch {
					case ferr != nil:
						err = ferr
					case j.Lease != nil && j.Lease.Killed(token):
						// Revoked during container launch: nothing ran.
						err = ErrPreempted
					default:
						commit, err = runBody(t, tc)
					}
					ts.End = wp.Now()
					wp.SetSpan(prevSpan)
					t.inflight--
					if j.Lease != nil {
						j.Lease.Release(token)
					}
					if errors.Is(err, ErrPreempted) {
						preempted.Inc()
						taskSpan.Arg("preempted", true)
						taskSpan.End()
						if t.done {
							continue
						}
						// Preemption does not consume the retry budget:
						// hand the attempt back and requeue the task.
						t.attempt--
						q.push(t)
						continue
					}
					if err != nil {
						failures.Inc()
						taskSpan.Arg("failed", true)
						taskSpan.End()
						if t.done {
							// A backup's sibling already committed; this
							// failure is moot.
							continue
						}
						if t.attempt < maxAttempts {
							q.push(t)
							continue
						}
						if t.inflight > 0 {
							// Out of budget, but a sibling attempt is
							// still running and may yet commit.
							continue
						}
						fail(err)
						pending--
						wg.Done()
						continue
					}
					if t.done {
						// The other attempt committed first: discard this
						// one's work. The loss was already counted when
						// the winner committed.
						taskSpan.Arg("discarded", true)
						taskSpan.End()
						continue
					}
					t.done = true
					if isSpec {
						specWins.Inc()
					} else if t.speculated {
						// Original finished first; the backup (queued or
						// running) was wasted work.
						specLosses.Inc()
					}
					taskSpan.End()
					completed.Inc()
					taskSeconds.Observe(ts.End - ts.Start)
					durations.Observe(ts.End - ts.Start)
					tc.commitCounters()
					commit()
					*stats = append(*stats, ts)
					pending--
					wg.Done()
				}
			})
		}
	}
	if speculative {
		interval := spec.Interval
		if interval <= 0 {
			interval = 0.5
		}
		mult := spec.Multiplier
		if mult <= 0 {
			mult = 1
		}
		minDone := spec.MinCompleted
		if minDone <= 0 {
			minDone = 1
		}
		k.Go(fmt.Sprintf("%s/%s-speculator", j.Name, phase), func(sp *sim.Proc) {
			for !exhausted || pending > 0 {
				sp.Sleep(interval)
				if exhausted && pending == 0 {
					return
				}
				if int(durations.Count()) < minDone {
					continue
				}
				threshold := mult * durations.Quantile(spec.Quantile)
				if threshold <= 0 {
					continue
				}
				// Scan the minted tasks, dropping committed ones so the
				// scan set tracks the window rather than the whole job.
				live := tracked[:0]
				for _, t := range tracked {
					if t.done {
						continue
					}
					live = append(live, t)
					if t.speculated || t.inflight != 1 || t.attempt >= maxAttempts {
						continue
					}
					if sp.Now()-t.started <= threshold {
						continue
					}
					t.speculated = true
					t.pendingSpec = true
					q.push(t)
				}
				for i := len(live); i < len(tracked); i++ {
					tracked[i] = nil
				}
				tracked = live
			}
		})
	}
	p.Wait(wg)
	phaseSpan.End()
}

// combineBuckets runs the combiner over one map task's per-reducer
// buckets in place, shrinking what the shuffle must move. Every bucket it
// leaves behind is a sorted run: the combiner consumes groups in key
// order, so its output is normally sorted already and ensureSortedRun is
// a linear scan, not a re-sort.
func combineBuckets(tc *TaskContext, j *Job, buckets [][]KV, bytes []int64, pairBytes func(KV) int64) error {
	savedEmit := tc.emit
	defer func() { tc.emit = savedEmit }()
	// Pre-sort every bucket on the data plane (fork-join). The combine
	// passes themselves stay on the kernel thread: user combiners may
	// Charge virtual time or read shared state.
	futs := make([]*sim.Future, 0, len(buckets))
	for b := range buckets {
		if pairs := buckets[b]; len(pairs) > 1 {
			futs = append(futs, tc.proc.Compute(func() { sortRun(pairs) }))
		}
	}
	tc.proc.Await(futs...)
	vals := getVals()
	defer putVals(vals)
	for b := range buckets {
		pairs := buckets[b]
		if len(pairs) < 2 {
			continue
		}
		combined := getKVBuf()
		var combinedBytes int64
		tc.emit = func(kv KV) {
			combined = append(combined, kv)
			combinedBytes += pairBytes(kv)
		}
		if err := eachGroup([][]KV{pairs}, vals, func(key string, vs []any) error {
			return j.Combine(tc, key, vs)
		}); err != nil {
			return err
		}
		ensureSortedRun(combined)
		buckets[b] = combined
		bytes[b] = combinedBytes
		putKVBuf(pairs)
	}
	return nil
}
