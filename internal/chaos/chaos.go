// Package chaos is the deterministic fault-injection subsystem: it
// compiles a declarative, seeded Plan into events on the sim kernel's
// virtual clock that flip fault state on the storage and compute layers
// (pfs OSTs, hdfs DataNodes, MapReduce task slots), exercising the
// stack's recovery machinery — HDFS replica failover, the PFS Reader's
// retry-with-backoff and read-around, task re-execution, and speculative
// execution.
//
// Everything is deterministic: scheduled faults fire at plan-specified
// virtual times, and probabilistic faults (flaky reads, stragglers, task
// failures) draw from a single PRNG seeded by the plan, consumed in
// kernel event order. Same seed + same plan ⇒ byte-identical job output
// and byte-identical observability exports, so resilience is a
// regression-testable property rather than a flaky one.
//
// The dependency order matters: chaos imports pfs/hdfs/sim to flip their
// state, while those layers import only internal/fault for the error
// contract. The MapReduce engine never sees this package — its
// mapreduce.TaskFaults interface is satisfied structurally by *Injector.
package chaos

import (
	"encoding/json"
	"fmt"
)

// Rule kinds. Scheduled kinds flip component state over a [At, Until)
// window; probabilistic kinds arm a window inside which each read or
// task attempt draws against Rate.
const (
	// KindOSTDegrade multiplies one OST's service time by Factor — a
	// Lustre target limping on a failing disk or busy controller.
	KindOSTDegrade = "ost-degrade"
	// KindOSTOutage takes one OST offline: striped reads lose the
	// stripes it holds and must read around them.
	KindOSTOutage = "ost-outage"
	// KindDNCrash kills one DataNode: its replicas go dark and reads
	// fail over to survivors; writes place around it.
	KindDNCrash = "dn-crash"
	// KindMDSLatency multiplies PFS metadata-op latency by Factor.
	KindMDSLatency = "mds-latency"
	// KindNNLatency multiplies NameNode RPC latency by Factor.
	KindNNLatency = "nn-latency"
	// KindFlakyReads makes each read inside the window fail with
	// probability Rate; of those, a Corrupt fraction deliver damaged
	// bytes (caught by checksums) instead of an I/O error.
	KindFlakyReads = "flaky-reads"
	// KindStraggler slows each task attempt inside the window by Factor
	// with probability Rate — the paper testbed's wandering slow node.
	KindStraggler = "straggler"
	// KindTaskFail crashes each task attempt inside the window with
	// probability Rate (after its startup cost).
	KindTaskFail = "task-fail"
)

// Rule is one declarative fault. Which fields matter depends on Kind;
// Validate enforces the combinations.
type Rule struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// At is when the fault begins, in virtual seconds.
	At float64 `json:"at"`
	// Until is when it ends; 0 means it never lifts.
	Until float64 `json:"until,omitempty"`
	// Target indexes the component (OST number, DataNode index) for the
	// scheduled kinds.
	Target int `json:"target,omitempty"`
	// Factor is the slowdown multiple for ost-degrade, mds-latency,
	// nn-latency and straggler (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Rate is the per-event probability in [0, 1] for the probabilistic
	// kinds.
	Rate float64 `json:"rate,omitempty"`
	// Corrupt is the fraction of flaky-read hits that corrupt bytes
	// rather than erroring, in [0, 1].
	Corrupt float64 `json:"corrupt,omitempty"`
}

// activeAt reports whether the rule's window covers virtual time t.
func (r *Rule) activeAt(t float64) bool {
	return t >= r.At && (r.Until == 0 || t < r.Until)
}

// scheduled reports whether the rule flips component state on the clock
// (as opposed to arming a probabilistic window).
func (r *Rule) scheduled() bool {
	switch r.Kind {
	case KindOSTDegrade, KindOSTOutage, KindDNCrash, KindMDSLatency, KindNNLatency:
		return true
	}
	return false
}

// Plan is a complete fault schedule: a PRNG seed plus rules. The zero
// plan injects nothing.
type Plan struct {
	// Seed seeds the injector's PRNG for the probabilistic rules.
	Seed int64 `json:"seed"`
	// Rules are the faults, applied independently.
	Rules []Rule `json:"rules"`
}

// ParsePlan decodes and validates a JSON plan (the scidpctl analyze
// -chaos format).
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("chaos: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks every rule's fields against its kind.
func (p *Plan) Validate() error {
	for i := range p.Rules {
		r := &p.Rules[i]
		bad := func(format string, args ...any) error {
			return fmt.Errorf("chaos: rule %d (%s): %s", i, r.Kind, fmt.Sprintf(format, args...))
		}
		if r.At < 0 {
			return bad("negative start time %g", r.At)
		}
		if r.Until != 0 && r.Until <= r.At {
			return bad("window ends at %g, before it starts at %g", r.Until, r.At)
		}
		if r.Target < 0 {
			return bad("negative target %d", r.Target)
		}
		switch r.Kind {
		case KindOSTDegrade, KindMDSLatency, KindNNLatency:
			if r.Factor <= 1 {
				return bad("needs a slowdown factor > 1, got %g", r.Factor)
			}
		case KindOSTOutage, KindDNCrash:
			// Window and target only.
		case KindFlakyReads:
			if r.Rate <= 0 || r.Rate > 1 {
				return bad("rate must be in (0, 1], got %g", r.Rate)
			}
			if r.Corrupt < 0 || r.Corrupt > 1 {
				return bad("corrupt fraction must be in [0, 1], got %g", r.Corrupt)
			}
		case KindStraggler:
			if r.Rate <= 0 || r.Rate > 1 {
				return bad("rate must be in (0, 1], got %g", r.Rate)
			}
			if r.Factor <= 1 {
				return bad("needs a slowdown factor > 1, got %g", r.Factor)
			}
		case KindTaskFail:
			if r.Rate <= 0 || r.Rate > 1 {
				return bad("rate must be in (0, 1], got %g", r.Rate)
			}
		default:
			return bad("unknown kind")
		}
	}
	return nil
}

// CheckTargets holds every targeted rule to the testbed it is to run on,
// which Validate cannot see: an OST rule's target to its osts OSTs, a
// dn-crash's to its dataNodes DataNodes. Run it before the plan is armed:
// a target past the end would index out of range in a kernel callback.
func (p *Plan) CheckTargets(osts, dataNodes int) error {
	for i := 0; p != nil && i < len(p.Rules); i++ {
		r, n, what := p.Rules[i], osts, "OSTs"
		if r.Kind == KindDNCrash {
			n, what = dataNodes, "DataNodes"
		}
		if (r.Kind == KindDNCrash || r.Kind == KindOSTDegrade || r.Kind == KindOSTOutage) && r.Target >= n {
			return fmt.Errorf("chaos: rule %d (%s): target %d outside the testbed's %d %s", i, r.Kind, r.Target, n, what)
		}
	}
	return nil
}
