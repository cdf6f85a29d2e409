package tenant

import (
	"fmt"

	"scidp/internal/obs"
	"scidp/internal/sim"
)

// armTick schedules the next scheduler pass unless one is already
// pending. The tick re-arms itself while queued or running jobs exist
// and lapses otherwise, so a drained service leaves the kernel's event
// queue empty and Kernel.Run returns.
func (s *Service) armTick() {
	if s.tickArmed {
		return
	}
	s.tickArmed = true
	s.env.K.After(schedTick, s.tickFn)
}

// tick is one scheduler pass, run as a kernel event: start queued jobs
// the quotas allow, backfill small jobs into idle slots, then re-divide
// the cluster's slots across what runs (revoking from shrunk grants —
// preemption) and publish the gauges.
func (s *Service) tick() {
	s.tickArmed = false
	s.startJobs()
	s.allocate()
	s.publish()
	if len(s.fifo) > 0 || len(s.running) > 0 {
		s.armTick()
	}
}

// startJobs promotes queued jobs to running. Fair-share mode
// round-robins over tenants (sorted names) taking each queue's head
// while the tenant is under MaxRunning and the service under
// MaxConcurrent, then backfills: when concurrency is capped but the
// running set's total demand leaves cluster slots idle, small jobs
// (demand <= backfillTasks) may start beyond MaxConcurrent. FIFO mode
// is the strict baseline: global arrival order, head-of-line — a
// blocked head blocks everyone behind it.
func (s *Service) startJobs() {
	if s.cfg.FIFO {
		for len(s.fifo) > 0 && len(s.running) < s.cfg.MaxConcurrent {
			j := s.fifo[0]
			t := s.tenants[j.Spec.Tenant]
			if len(t.running) >= t.Quota.MaxRunning {
				return // head-of-line blocking, by design
			}
			s.start(t, j, false)
		}
		return
	}
	for progress := true; progress; {
		progress = false
		for _, name := range s.names {
			if len(s.running) >= s.cfg.MaxConcurrent {
				break
			}
			t := s.tenants[name]
			if len(t.queue) == 0 || len(t.running) >= t.Quota.MaxRunning {
				continue
			}
			s.start(t, t.queue[0], false)
			progress = true
		}
	}
	idle := s.totalSlots
	for _, j := range s.running {
		idle -= j.Tasks
	}
	for idle > 0 {
		started := false
		for _, name := range s.names {
			t := s.tenants[name]
			if len(t.running) >= t.Quota.MaxRunning {
				continue
			}
			for _, j := range t.queue {
				if j.Tasks > backfillTasks || j.Tasks > idle {
					continue
				}
				s.start(t, j, true)
				idle -= j.Tasks
				started = true
				break
			}
			if started {
				break
			}
		}
		if !started {
			return
		}
	}
}

// start promotes one queued job: removes it from both queues, attaches
// a fresh lease (granted by the allocation pass that follows within the
// same tick), and spawns the driver process that runs the catalog job.
// The lease's token slab has room for every slot the job can be granted.
func (s *Service) start(t *Tenant, j *Job, backfill bool) {
	s.dequeue(t, j)
	j.State = StateRunning
	j.StartAt = s.env.K.Now()
	j.lease = &Lease{held: make([]token, 0, j.Tasks)}
	t.running = append(t.running, j)
	s.running = append(s.running, j)
	if len(t.running) > t.MaxRunningSeen {
		t.MaxRunningSeen = len(t.running)
	}
	if backfill {
		t.Backfills++
		s.counter("tenant/backfill_starts_total", t.Name).Inc()
	}
	s.env.K.GoNamed(func() string { return fmt.Sprintf("scidpd/job-%04d", j.ID) }, func(p *sim.Proc) {
		err := s.runJob(p, j)
		s.finish(j, err)
	})
}

func (s *Service) dequeue(t *Tenant, j *Job) {
	for i, q := range t.queue {
		if q == j {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			break
		}
	}
	for i, q := range s.fifo {
		if q == j {
			s.fifo = append(s.fifo[:i], s.fifo[i+1:]...)
			break
		}
	}
}

// finish records a driver's outcome; it runs in the driver's process
// context just before the process exits.
func (s *Service) finish(j *Job, err error) {
	t := s.tenants[j.Spec.Tenant]
	j.DoneAt = s.env.K.Now()
	if err != nil {
		j.State = StateFailed
		j.Error = err.Error()
		t.Failed++
		s.counter("tenant/jobs_failed_total", t.Name).Inc()
	} else {
		j.State = StateDone
		t.Completed++
		s.counter("tenant/jobs_completed_total", t.Name).Inc()
		s.obs.Histogram("tenant/job_latency_seconds", latencyBuckets,
			obs.L("tenant", t.Name)).Observe(j.Latency())
	}
	s.completions = append(s.completions, j.ID)
	for i, r := range t.running {
		if r == j {
			t.running = append(t.running[:i], t.running[i+1:]...)
			break
		}
	}
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
}

// allocate divides the cluster's slots across the running jobs.
//
// FIFO mode grants full demand in arrival order until the slots run
// out. Fair-share mode is two-level: every running job is first
// guaranteed one slot (MaxConcurrent is clamped to the slot count, so
// this always fits), then the remaining slots go to tenants one at a
// time by highest weight/(granted+1) — the D'Hondt rule, deterministic
// with ties broken by tenant name — skipping tenants already at their
// demand or SlotShare cap; within a tenant, slots fill jobs in start
// order up to each job's demand. Shrunk grants revoke their newest
// task attempts, which the engine requeues (preemption).
func (s *Service) allocate() {
	if s.cfg.FIFO {
		left := s.totalSlots
		for _, j := range s.running {
			j.grant = min(j.Tasks, left)
			left -= j.grant
		}
	} else {
		shares := s.shares[:0]
		left := s.totalSlots
		for _, name := range s.names {
			t := s.tenants[name]
			if len(t.running) == 0 {
				continue
			}
			sh := share{t: t, jobs: t.running, cap: t.Quota.slotCap(s.totalSlots)}
			for _, j := range sh.jobs {
				sh.demand += j.Tasks
				// The one-slot floor keeps every admitted job moving,
				// inside the tenant's cap.
				if left > 0 && sh.granted < sh.cap {
					sh.granted++
					left--
				}
			}
			shares = append(shares, sh)
		}
		s.shares = shares
		for left > 0 {
			var best *share
			var bestKey float64
			for i := range shares {
				sh := &shares[i]
				if sh.granted >= sh.demand || sh.granted >= sh.cap {
					continue
				}
				key := sh.t.Quota.Weight / float64(sh.granted+1)
				if best == nil || key > bestKey {
					best, bestKey = sh, key
				}
			}
			if best == nil {
				break
			}
			best.granted++
			left--
		}
		// Second level: a tenant's slots fill its jobs in start order —
		// one slot each first (the floor), then up to each demand.
		for _, sh := range shares {
			left := sh.granted
			floor := min(len(sh.jobs), left)
			left -= floor // reserve one slot per floored job
			for i, j := range sh.jobs {
				g := 0
				if i < floor {
					g = 1
				}
				extra := min(j.Tasks-g, left)
				j.grant = g + extra
				left -= extra
			}
		}
	}
	for _, j := range s.running {
		t := s.tenants[j.Spec.Tenant]
		kills := j.lease.setGranted(j.grant)
		if kills > 0 {
			t.Preemptions += kills
			s.counter("tenant/preemptions_total", t.Name).Add(float64(kills))
		}
	}
	// Per-tenant granted totals, for gauges and the quota audit.
	for _, name := range s.names {
		t := s.tenants[name]
		total := 0
		for _, j := range t.running {
			total += j.lease.Granted()
		}
		if total > t.MaxGrantedSeen {
			t.MaxGrantedSeen = total
		}
		s.obs.Gauge("tenant/slots_granted", obs.L("tenant", name)).Set(float64(total))
	}
}

// share is one tenant's first-level fair-share state during allocate.
type share struct {
	t       *Tenant
	jobs    []*Job
	granted int
	cap     int
	demand  int
}

// publish refreshes the queue-depth and running-job gauges.
func (s *Service) publish() {
	for _, name := range s.names {
		t := s.tenants[name]
		s.obs.Gauge("tenant/queue_depth", obs.L("tenant", name)).Set(float64(len(t.queue)))
		s.obs.Gauge("tenant/running_jobs", obs.L("tenant", name)).Set(float64(len(t.running)))
	}
}
