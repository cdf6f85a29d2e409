// Package tenant is the multi-tenant job service layered over the
// simulated SciDP testbed: tenants submit jobs (workload kind, input
// size, priority) into per-tenant queues, an admission controller
// enforces per-tenant quotas (queue depth, running jobs, cluster slot
// share), and a two-level scheduler divides the cluster's task slots
// across tenants by weighted fair share — revoking slots from running
// jobs when the division shifts (preemption, via the MapReduce engine's
// SlotLease hooks and task re-execution machinery) and starting small
// jobs into otherwise idle slots (backfill).
//
// Everything runs on the deterministic virtual-time kernel: arrivals,
// scheduler ticks, task preemptions, and completions are all kernel
// events, so the same arrival trace replays to byte-identical job
// outcomes, outputs, and observability exports at any ComputePool
// worker count, with or without a chaos plan armed.
package tenant

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"scidp/internal/obs"
	"scidp/internal/solutions"
	"scidp/internal/workloads"
)

// JobSpec is what a tenant submits.
type JobSpec struct {
	// Tenant names the submitting tenant; unknown tenants are created
	// on first use with the service's default quota.
	Tenant string `json:"tenant"`
	// Kind selects the workload: "grep", "sort", or "write".
	Kind string `json:"kind"`
	// Size selects the input scale: "small", "medium", or "large".
	Size string `json:"size"`
	// Priority orders jobs within a tenant's queue (higher first;
	// equal priorities keep arrival order).
	Priority int `json:"priority,omitempty"`
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states.
const (
	// StateQueued: admitted, waiting for the scheduler.
	StateQueued JobState = "queued"
	// StateRejected: refused at admission (tenant queue full).
	StateRejected JobState = "rejected"
	// StateRunning: started on the cluster.
	StateRunning JobState = "running"
	// StateDone: completed successfully.
	StateDone JobState = "done"
	// StateFailed: the underlying MapReduce job errored out.
	StateFailed JobState = "failed"
)

// Job is one submitted job's record.
type Job struct {
	// ID is the submission sequence number (1-based).
	ID int `json:"id"`
	// Spec is what was submitted.
	Spec JobSpec `json:"spec"`
	// State is the lifecycle position.
	State JobState `json:"state"`
	// Tasks is the job's slot demand: map tasks plus reducers.
	Tasks int `json:"tasks"`
	// SubmitAt / StartAt / DoneAt are virtual times (zero until set).
	SubmitAt float64 `json:"submit_at"`
	StartAt  float64 `json:"start_at,omitempty"`
	DoneAt   float64 `json:"done_at,omitempty"`
	// Result is the workload's scalar output (match count, checksum).
	Result int64 `json:"result,omitempty"`
	// OutputBytes is what the job wrote to HDFS.
	OutputBytes int64 `json:"output_bytes,omitempty"`
	// Error holds the failure message for StateFailed.
	Error string `json:"error,omitempty"`

	lease *Lease
}

// Latency returns the job's sojourn time (submit to done); zero until
// the job completes.
func (j *Job) Latency() float64 {
	if j.DoneAt == 0 {
		return 0
	}
	return j.DoneAt - j.SubmitAt
}

// Quota bounds one tenant's resource footprint.
type Quota struct {
	// MaxQueued bounds the tenant's admitted-but-not-started jobs;
	// submissions beyond it are rejected (default 32).
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning bounds the tenant's concurrently running jobs
	// (default 2).
	MaxRunning int `json:"max_running,omitempty"`
	// SlotShare caps the tenant's fraction of the cluster's task slots,
	// 0 < share <= 1 (default 1 = no cap).
	SlotShare float64 `json:"slot_share,omitempty"`
	// Weight is the tenant's fair-share weight (default 1).
	Weight float64 `json:"weight,omitempty"`
}

func (q Quota) withDefaults() Quota {
	if q.MaxQueued <= 0 {
		q.MaxQueued = 32
	}
	if q.MaxRunning <= 0 {
		q.MaxRunning = 2
	}
	if q.SlotShare <= 0 || q.SlotShare > 1 {
		q.SlotShare = 1
	}
	if q.Weight <= 0 {
		q.Weight = 1
	}
	return q
}

// slotCap is the tenant's slot ceiling on a cluster of total slots.
func (q Quota) slotCap(total int) int {
	cap := int(q.SlotShare * float64(total))
	if cap < 1 {
		cap = 1
	}
	if cap > total {
		cap = total
	}
	return cap
}

// Tenant is one tenant's live state.
type Tenant struct {
	// Name identifies the tenant.
	Name string
	// Quota is the tenant's admission and share limits.
	Quota Quota

	queue   []*Job // admitted, waiting; priority desc, then arrival
	running []*Job // started, not yet finished; arrival order

	// Counters for summaries (the obs registry mirrors them).
	Submitted, Rejected, Completed, Failed int
	Preemptions, Backfills                 int
	// MaxRunningSeen / MaxGrantedSeen are high-water marks for the
	// within-quota audit: concurrently running jobs, and slots granted
	// across the tenant's jobs at any one tick.
	MaxRunningSeen, MaxGrantedSeen int
}

// The service's fixed shape.
const (
	schedTick     = 0.5 // scheduler period, virtual seconds
	backfillTasks = 3   // largest job demand (tasks) backfill may start into idle slots
	// inputFiles is the shared read-only input pool installed at service
	// start, of inputFileBytes each; job sizes index into it.
	inputFiles     = 12
	inputFileBytes = 256 << 10
	taskStartup    = 0.3 // per-task launch cost, virtual seconds
	reducers       = 2   // reduce tasks of a shuffling kind
)

// Config sizes the service.
type Config struct {
	// MaxConcurrent bounds globally running jobs, keeping each one's
	// slot grant meaningful; it is clamped to the cluster's total slot
	// count so every running job can hold at least one slot
	// (default 4).
	MaxConcurrent int
	// FIFO switches the scheduler to the strict arrival-order baseline:
	// no fair share, no backfill, no preemption — jobs start head-of-
	// line and hold their full demand until done. The reference the
	// tenant-replay benchmark's speedup_vs_baseline divides by, and
	// scidpd's -fifo.
	FIFO bool
	// DefaultQuota applies to tenants created on first submission.
	DefaultQuota Quota
	// ScanPerMB is the modeled map CPU per MB scanned (default 2.0).
	ScanPerMB float64
}

func (c Config) withDefaults(totalSlots int) Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxConcurrent > totalSlots {
		c.MaxConcurrent = totalSlots
	}
	c.DefaultQuota = c.DefaultQuota.withDefaults()
	if c.ScanPerMB <= 0 {
		c.ScanPerMB = 2.0
	}
	return c
}

// Service is the job service: admission, queues, scheduler, and the
// catalog runner. All methods must be called from kernel context (an
// event callback or a simulated process); the HTTP server bridges real
// goroutines onto the kernel before touching it.
type Service struct {
	env *solutions.Env
	cfg Config
	obs *obs.Registry
	be  *workloads.HDFSBackend

	inputs     []string // shared read-only input files
	totalSlots int

	tenants map[string]*Tenant
	names   []string // sorted tenant names
	jobs    []*Job   // all submissions, by ID
	fifo    []*Job   // queued jobs in global arrival order
	running []*Job   // running jobs in start order

	completions []int // job IDs in completion order
	tickArmed   bool
}

// New builds the service over an existing testbed env and installs the
// shared input pool. The env's registry (when attached) receives the
// service's metrics; its chaos injector and MaxAttempts apply to every
// job.
func New(env *solutions.Env, cfg Config) *Service {
	if env.Closed() {
		panic("tenant: New on closed Env")
	}
	totalSlots := len(env.BD.Nodes) * env.Cfg.SlotsPerNode
	s := &Service{
		env:        env,
		cfg:        cfg.withDefaults(totalSlots),
		obs:        env.Obs,
		be:         &workloads.HDFSBackend{FS: env.HDFS, Tier: env.Tier},
		totalSlots: totalSlots,
		tenants:    map[string]*Tenant{},
	}
	s.installInputs()
	return s
}

// TotalSlots returns the cluster's schedulable slot count.
func (s *Service) TotalSlots() int { return s.totalSlots }

// SetQuota installs (or replaces) a tenant's quota, creating the tenant
// if needed.
func (s *Service) SetQuota(name string, q Quota) {
	s.tenant(name).Quota = q.withDefaults()
}

func (s *Service) tenant(name string) *Tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	t := &Tenant{Name: name, Quota: s.cfg.DefaultQuota}
	s.tenants[name] = t
	s.names = append(s.names, name)
	sort.Strings(s.names)
	return t
}

// Submit admits one job. Admission rejects (rather than queues) when
// the tenant's queue is at MaxQueued; the returned job is then already
// in StateRejected. Must run in kernel context.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	tasks, err := s.demand(spec)
	if err != nil {
		return nil, err
	}
	t := s.tenant(spec.Tenant)
	j := &Job{
		ID:       len(s.jobs) + 1,
		Spec:     spec,
		Tasks:    tasks,
		SubmitAt: s.env.K.Now(),
	}
	s.jobs = append(s.jobs, j)
	t.Submitted++
	s.counter("tenant/jobs_submitted_total", spec.Tenant).Inc()
	if len(t.queue) >= t.Quota.MaxQueued {
		j.State = StateRejected
		t.Rejected++
		s.counter("tenant/jobs_rejected_total", spec.Tenant).Inc()
		return j, nil
	}
	j.State = StateQueued
	s.enqueue(t, j)
	s.fifo = append(s.fifo, j)
	s.armTick()
	return j, nil
}

// enqueue inserts j into the tenant queue: priority descending, arrival
// order within a priority.
func (s *Service) enqueue(t *Tenant, j *Job) {
	at := len(t.queue)
	for at > 0 && t.queue[at-1].Spec.Priority < j.Spec.Priority {
		at--
	}
	t.queue = append(t.queue, nil)
	copy(t.queue[at+1:], t.queue[at:])
	t.queue[at] = j
}

// Job returns a submission by ID (nil when unknown).
func (s *Service) Job(id int) *Job {
	if id < 1 || id > len(s.jobs) {
		return nil
	}
	return s.jobs[id-1]
}

// Jobs returns every submission in ID order (the live slice: callers
// outside kernel context must not hold it across kernel runs).
func (s *Service) Jobs() []*Job { return s.jobs }

// TenantNames returns the sorted tenant names.
func (s *Service) TenantNames() []string { return s.names }

// TenantState returns one tenant's live record (nil when unknown).
func (s *Service) TenantState(name string) *Tenant { return s.tenants[name] }

// QueueDepth returns a tenant's waiting-job count.
func (t *Tenant) QueueDepth() int { return len(t.queue) }

// RunningJobs returns a tenant's running-job count.
func (t *Tenant) RunningJobs() int { return len(t.running) }

// Digest hashes every job's full outcome record plus the completion
// order — the determinism contract's "byte-identical schedule and
// outputs" in one string.
func (s *Service) Digest() string {
	h := sha256.New()
	for _, j := range s.jobs {
		fmt.Fprintf(h, "job %d %s %s %s p%d %s tasks=%d submit=%.9f start=%.9f done=%.9f result=%d out=%d err=%q\n",
			j.ID, j.Spec.Tenant, j.Spec.Kind, j.Spec.Size, j.Spec.Priority,
			j.State, j.Tasks, j.SubmitAt, j.StartAt, j.DoneAt, j.Result, j.OutputBytes, j.Error)
	}
	fmt.Fprintf(h, "completions %v\n", s.completions)
	for _, name := range s.names {
		t := s.tenants[name]
		fmt.Fprintf(h, "tenant %s sub=%d rej=%d done=%d fail=%d preempt=%d backfill=%d maxrun=%d maxslots=%d\n",
			name, t.Submitted, t.Rejected, t.Completed, t.Failed,
			t.Preemptions, t.Backfills, t.MaxRunningSeen, t.MaxGrantedSeen)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WithinQuota audits the run: every tenant's high-water marks must be
// inside its quota. The FIFO baseline grants each job its full demand
// regardless of slot shares (that is the point of the baseline), so the
// slot-cap check applies only to the fair-share scheduler.
func (s *Service) WithinQuota() bool {
	for _, name := range s.names {
		t := s.tenants[name]
		if t.MaxRunningSeen > t.Quota.MaxRunning {
			return false
		}
		if !s.cfg.FIFO && t.MaxGrantedSeen > t.Quota.slotCap(s.totalSlots) {
			return false
		}
	}
	return true
}

func (s *Service) counter(name, tenant string) *obs.Counter {
	return s.obs.Counter(name, obs.L("tenant", tenant))
}

// latencyBuckets spans job sojourn times from 1 s to ~9 virtual hours.
var latencyBuckets = obs.ExpBuckets(1, 2, 16)
