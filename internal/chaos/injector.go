package chaos

import (
	"math/rand"

	"scidp/internal/fault"
	"scidp/internal/hdfs"
	"scidp/internal/obs"
	"scidp/internal/pfs"
	"scidp/internal/sim"
)

// Injector owns one plan's execution: it schedules the state-flipping
// rules as kernel events, installs the probabilistic read-fault hooks on
// the file systems, and serves as the MapReduce engine's TaskFaults
// source (satisfied structurally — chaos does not import mapreduce).
// A nil *Injector is inert: every method no-ops.
type Injector struct {
	plan *Plan
	rng  *rand.Rand

	k    *sim.Kernel
	pfs  *pfs.FS
	hdfs *hdfs.FS
	obs  *obs.Registry
}

// New builds an injector for the plan (nil plan ⇒ nil injector).
func New(plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// count bumps the injected-fault counter for one fault kind.
func (inj *Injector) count(kind string) {
	inj.obs.Counter("chaos/faults_injected_total", obs.L("kind", kind)).Inc()
}

// span opens a chaos-track span marking one rule's window; the caller
// ends it when the window closes.
func (inj *Injector) span(r Rule) *obs.Span {
	if inj.obs == nil {
		return nil
	}
	sp := inj.obs.StartSpan("chaos:"+r.Kind, "chaos", nil)
	sp.SetTrack("chaos")
	sp.Arg("target", r.Target)
	if r.Factor > 0 {
		sp.Arg("factor", r.Factor)
	}
	if r.Rate > 0 {
		sp.Arg("rate", r.Rate)
	}
	return sp
}

// Arm wires the injector into one simulation: scheduled rules become
// kernel-clock events flipping fault state on the given file systems,
// and the read-fault hooks are installed. Call once per run, before
// Kernel.Run, from setup context (time 0). Either file system may be nil
// when the workload does not use it.
func (inj *Injector) Arm(k *sim.Kernel, pfsFS *pfs.FS, hdfsFS *hdfs.FS, r *obs.Registry) {
	if inj == nil {
		return
	}
	inj.k = k
	inj.pfs = pfsFS
	inj.hdfs = hdfsFS
	inj.obs = r
	if pfsFS != nil {
		pfsFS.SetReadFault(func(path string, off, n int64) fault.Outcome {
			return inj.readOutcome()
		})
	}
	if hdfsFS != nil {
		hdfsFS.SetReadFault(func(blockID, bytes int64) fault.Outcome {
			return inj.readOutcome()
		})
	}
	for i := range inj.plan.Rules {
		rule := inj.plan.Rules[i]
		if rule.scheduled() {
			inj.armScheduled(rule)
		} else {
			inj.armWindow(rule)
		}
	}
}

// armScheduled schedules one state-flipping rule: apply at At, revert at
// Until (never, when Until is 0), with a chaos-track span covering the
// window.
func (inj *Injector) armScheduled(r Rule) {
	var sp *obs.Span
	inj.k.After(r.At-inj.k.Now(), func() {
		sp = inj.span(r)
		inj.apply(r, true)
		inj.count(r.Kind)
		if r.Until == 0 {
			// Permanent fault: close the marker span now so exports
			// don't carry it as open forever.
			sp.End()
		}
	})
	if r.Until > 0 {
		inj.k.After(r.Until-inj.k.Now(), func() {
			inj.apply(r, false)
			sp.End()
		})
	}
}

// apply flips one scheduled rule's component state on (or back off).
func (inj *Injector) apply(r Rule, on bool) {
	switch r.Kind {
	case KindOSTDegrade:
		factor := r.Factor
		if !on {
			factor = 1
		}
		if inj.pfs != nil {
			inj.pfs.SetOSTSlowdown(r.Target, factor)
		}
	case KindOSTOutage:
		if inj.pfs != nil {
			inj.pfs.SetOSTDown(r.Target, on)
		}
	case KindDNCrash:
		if inj.hdfs != nil {
			inj.hdfs.SetDataNodeDown(r.Target, on)
		}
	case KindMDSLatency:
		factor := r.Factor
		if !on {
			factor = 1
		}
		if inj.pfs != nil {
			inj.pfs.SetMDSLatencyFactor(factor)
		}
	case KindNNLatency:
		factor := r.Factor
		if !on {
			factor = 1
		}
		if inj.hdfs != nil {
			inj.hdfs.SetNNLatencyFactor(factor)
		}
	}
}

// armWindow marks a probabilistic rule's window with a chaos-track span;
// the rule itself is evaluated lazily by readOutcome / TaskFault.
func (inj *Injector) armWindow(r Rule) {
	var sp *obs.Span
	inj.k.After(r.At-inj.k.Now(), func() {
		sp = inj.span(r)
		if r.Until == 0 {
			sp.End()
		}
	})
	if r.Until > 0 {
		inj.k.After(r.Until-inj.k.Now(), func() { sp.End() })
	}
}

// readOutcome is the shared read-fault hook: inside any active
// flaky-reads window, each read fails with probability Rate; of the
// failures, a Corrupt fraction deliver damaged bytes instead of an
// error. PRNG draws happen only inside active windows, in kernel event
// order, so they are deterministic.
func (inj *Injector) readOutcome() fault.Outcome {
	if inj == nil {
		return fault.OK
	}
	now := inj.k.Now()
	for i := range inj.plan.Rules {
		r := &inj.plan.Rules[i]
		if r.Kind != KindFlakyReads || !r.activeAt(now) {
			continue
		}
		if inj.rng.Float64() >= r.Rate {
			continue
		}
		inj.count(KindFlakyReads)
		if r.Corrupt > 0 && inj.rng.Float64() < r.Corrupt {
			return fault.Corrupt
		}
		return fault.Fail
	}
	return fault.OK
}

// TaskFault implements the MapReduce engine's TaskFaults interface
// (structurally): inside active windows, task-fail rules crash the
// attempt with probability Rate and straggler rules stretch its modeled
// compute by Factor with probability Rate.
func (inj *Injector) TaskFault(phase string, task, attempt int) (error, float64) {
	slow := 1.0
	if inj == nil {
		return nil, slow
	}
	now := inj.k.Now()
	var err error
	for i := range inj.plan.Rules {
		r := &inj.plan.Rules[i]
		if !r.activeAt(now) {
			continue
		}
		switch r.Kind {
		case KindTaskFail:
			if err == nil && inj.rng.Float64() < r.Rate {
				inj.count(KindTaskFail)
				err = fault.Transient("task-fail",
					"chaos: injected failure on %s task %d attempt %d", phase, task, attempt)
			}
		case KindStraggler:
			if inj.rng.Float64() < r.Rate {
				inj.count(KindStraggler)
				slow *= r.Factor
			}
		}
	}
	return err, slow
}
