package sim

import (
	"math/rand"
	"testing"
)

// The incremental fair-share scheduler's contract is exact equivalence
// with the brute-force oracle: FairShareFull recomputes every share and
// every rate on every membership change, while the incremental path only
// touches flows crossing resources whose share moved — and both must
// produce bitwise-identical rates, completion times, completion order,
// and kernel traces under arbitrary churn.

// churnPlan is one randomized workload script, generated once per seed
// and replayed against both scheduler modes.
type churnPlan struct {
	resources []churnResource
	starts    []churnStart
	refreshes []churnRefresh
}

type churnResource struct {
	capacity   float64
	perFlowCap float64
}

type churnStart struct {
	at    float64
	bytes float64
	res   []int // indexes into resources
}

type churnRefresh struct {
	at     float64
	res    int
	newCap float64
}

// newChurnPlan draws a random plan: a pool of resources (some per-flow
// capped, one zero-capacity to exercise stalls), a few hundred staggered
// flow starts over disjoint-to-overlapping resource subsets, and
// mid-flight capacity changes applied through RefreshRates.
func newChurnPlan(seed int64) *churnPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := &churnPlan{}
	nRes := 8 + rng.Intn(16)
	for i := 0; i < nRes; i++ {
		r := churnResource{capacity: 10 + 1000*rng.Float64()}
		if rng.Float64() < 0.2 {
			r.perFlowCap = r.capacity * (0.1 + 0.5*rng.Float64())
		}
		if i == nRes-1 && rng.Float64() < 0.5 {
			r.capacity = 0 // stall candidate
		}
		plan.resources = append(plan.resources, r)
	}
	nFlows := 100 + rng.Intn(200)
	for i := 0; i < nFlows; i++ {
		st := churnStart{
			at:    rng.Float64() * 50,
			bytes: rng.Float64() * 5000,
		}
		deg := 1 + rng.Intn(3)
		seen := map[int]bool{}
		for len(st.res) < deg {
			ri := rng.Intn(nRes)
			if !seen[ri] {
				seen[ri] = true
				st.res = append(st.res, ri)
			}
		}
		if rng.Float64() < 0.02 {
			st.res = nil // resource-free flow: completes instantly
		}
		plan.starts = append(plan.starts, st)
	}
	nRefresh := 10 + rng.Intn(20)
	for i := 0; i < nRefresh; i++ {
		plan.refreshes = append(plan.refreshes, churnRefresh{
			at:     rng.Float64() * 60,
			res:    rng.Intn(nRes),
			newCap: 1000 * rng.Float64(),
		})
	}
	return plan
}

// churnRecord is one observation: a flow completion (kind 0) with the
// rate it finished at, or a rate snapshot of every live flow taken at a
// RefreshRates instant (kind 1).
type churnRecord struct {
	kind int
	id   uint64
	at   float64
	rate float64
}

// runChurn replays the plan on a fresh kernel in the given mode and
// returns the observation log plus the full kernel trace.
func runChurn(plan *churnPlan, mode FairShareMode) ([]churnRecord, []TraceEvent) {
	k := NewKernel()
	k.SetFairShareMode(mode)
	tr := &Tracer{}
	k.SetTracer(tr)
	res := make([]*Resource, len(plan.resources))
	for i, rc := range plan.resources {
		res[i] = NewResource("r", rc.capacity)
		res[i].PerFlowCap = rc.perFlowCap
	}
	var log []churnRecord
	for _, st := range plan.starts {
		st := st
		k.After(st.at, func() {
			chain := make([]*Resource, len(st.res))
			for i, ri := range st.res {
				chain[i] = res[ri]
			}
			var f *Flow
			f = k.StartFlow(st.bytes, func() {
				log = append(log, churnRecord{kind: 0, id: f.ID(), at: k.Now(), rate: f.rate})
			}, chain...)
		})
	}
	for _, rf := range plan.refreshes {
		rf := rf
		k.After(rf.at, func() {
			res[rf.res].Capacity = rf.newCap
			k.RefreshRates()
			// Snapshot every live flow's rate, in id order.
			flows := append([]*Flow(nil), k.flowHeap...)
			for _, f := range flows {
				log = append(log, churnRecord{kind: 1, id: f.id, at: k.Now(), rate: f.rate})
			}
		})
	}
	k.Run()
	return log, tr.Events()
}

// sortSnapshot orders the kind-1 snapshot entries taken at one instant by
// flow id so heap-order differences between modes cannot leak into the
// comparison (completion records are already in deterministic order).
func normalizeLog(log []churnRecord) []churnRecord {
	out := append([]churnRecord(nil), log...)
	for i := 0; i < len(out); {
		if out[i].kind != 1 {
			i++
			continue
		}
		j := i
		for j < len(out) && out[j].kind == 1 && out[j].at == out[i].at {
			j++
		}
		seg := out[i:j]
		for a := 1; a < len(seg); a++ {
			for b := a; b > 0 && seg[b].id < seg[b-1].id; b-- {
				seg[b], seg[b-1] = seg[b-1], seg[b]
			}
		}
		i = j
	}
	return out
}

// TestIncrementalMatchesFullRecomputeOracle replays seeded random churn
// — staggered starts, natural completions, and RefreshRates with
// capacity changes — under both scheduler modes and requires the
// completion times, completion order, observed rates, and the entire
// kernel trace to match exactly (float64 ==, no tolerance).
func TestIncrementalMatchesFullRecomputeOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		plan := newChurnPlan(seed)
		incLog, incTrace := runChurn(plan, FairShareIncremental)
		fullLog, fullTrace := runChurn(plan, FairShareFull)
		incLog, fullLog = normalizeLog(incLog), normalizeLog(fullLog)
		if len(incLog) != len(fullLog) {
			t.Fatalf("seed %d: log lengths differ: incremental %d vs full %d", seed, len(incLog), len(fullLog))
		}
		for i := range incLog {
			a, b := incLog[i], fullLog[i]
			if a != b {
				t.Fatalf("seed %d: log[%d] differs:\n  incremental %+v\n  full        %+v", seed, i, a, b)
			}
		}
		if len(incTrace) != len(fullTrace) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(incTrace), len(fullTrace))
		}
		for i := range incTrace {
			a, b := incTrace[i], fullTrace[i]
			if a.At != b.At || a.Kind != b.Kind || a.Bytes != b.Bytes || a.Flow != b.Flow {
				t.Fatalf("seed %d: trace[%d] differs:\n  incremental %+v\n  full        %+v", seed, i, a, b)
			}
		}
	}
}

// TestIncrementalDeterministic replays the same plan twice in the default
// mode and requires identical logs — the scheduler refactor must not
// introduce map-iteration or heap-order nondeterminism.
func TestIncrementalDeterministic(t *testing.T) {
	plan := newChurnPlan(99)
	log1, _ := runChurn(plan, FairShareIncremental)
	log2, _ := runChurn(plan, FairShareIncremental)
	if len(log1) != len(log2) {
		t.Fatalf("log lengths differ across identical runs: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("log[%d] differs across identical runs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
}

// ID returns the kernel-unique flow id, matching TraceEvent.Flow.
func (f *Flow) ID() uint64 { return f.id }
