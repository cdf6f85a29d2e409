package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TransferAll starts the parts due at one instant together and rates them
// in one rebalance. Its contract is that this is invisible: every flow id,
// start and completion instant, byte count and completion order equals
// what starting each part on its own gives — StartFlow per part, the
// parts with latency from same-instant After events, the rest inline.

// stripePlan is one randomized striped-read script, replayed through
// TransferAll and through the one-flow-per-start schedule.
type stripePlan struct {
	fabric    churnResource
	disks     []stripeRes
	nics      []stripeRes
	readers   [][]stripeRead // per reader, its reads in order
	refreshes []churnRefresh // res indexes disks
}

type stripeRes struct {
	churnResource
	latency float64
}

type stripeRead struct {
	gap   float64 // sleep before the read
	parts []stripePart
}

type stripePart struct {
	disk   int
	bytes  float64
	fabric bool // cross the shared fabric (else disk straight to NIC)
}

// newStripePlan draws readers on their own NICs reading parts from a pool
// of disks over a shared fabric. Some NICs and disks are per-flow capped
// far under their capacity, so a start can leave every share on its chain
// where it was (the started flow must be rated anyway). Latencies come
// from a short list, zero included, so a read's parts fall into groups
// with equal latency sums, groups with distinct ones, and parts that
// start inline; some parts carry zero bytes, and a few RefreshRates
// capacity changes land mid-flight.
func newStripePlan(seed int64) *stripePlan {
	rng := rand.New(rand.NewSource(seed))
	lats := []float64{0, 0.004, 0.004, 0.004, 0.01}
	plan := &stripePlan{fabric: churnResource{capacity: 500 + 2000*rng.Float64()}}
	for i := 4 + rng.Intn(12); i > 0; i-- {
		d := stripeRes{
			churnResource: churnResource{capacity: 50 + 200*rng.Float64()},
			latency:       lats[rng.Intn(len(lats))],
		}
		if rng.Float64() < 0.3 {
			d.perFlowCap = d.capacity * (0.02 + 0.2*rng.Float64())
		}
		plan.disks = append(plan.disks, d)
	}
	nReaders := 2 + rng.Intn(10)
	for i := 0; i < nReaders; i++ {
		nic := stripeRes{churnResource: churnResource{capacity: 100 + 900*rng.Float64()}}
		if rng.Float64() < 0.3 {
			nic.perFlowCap = nic.capacity * (0.05 + 0.3*rng.Float64())
		}
		if rng.Float64() < 0.5 {
			nic.latency = 0.0002
		}
		plan.nics = append(plan.nics, nic)
		var reads []stripeRead
		for j := 1 + rng.Intn(6); j > 0; j-- {
			rd := stripeRead{gap: rng.Float64() * 3}
			for n := 1 + rng.Intn(8); n > 0; n-- {
				pt := stripePart{disk: rng.Intn(len(plan.disks)), bytes: 1 + 400*rng.Float64(), fabric: rng.Float64() < 0.8}
				if rng.Float64() < 0.1 {
					pt.bytes = 0
				}
				rd.parts = append(rd.parts, pt)
			}
			reads = append(reads, rd)
		}
		plan.readers = append(plan.readers, reads)
	}
	for i := 2 + rng.Intn(4); i > 0; i-- {
		plan.refreshes = append(plan.refreshes, churnRefresh{
			at: rng.Float64() * 10, res: rng.Intn(len(plan.disks)), newCap: 20 + 300*rng.Float64(),
		})
	}
	return plan
}

// stripeRun is what one replay observes: the whole kernel trace, the
// instant each reader finished each read, and the kernel's event count.
type stripeRun struct {
	trace  []TraceEvent
	ends   [][]float64
	events uint64
}

// runStripes replays the plan on a fresh kernel in the given mode, each
// reader's reads through TransferAll (batched) or through StartFlow per
// part (the one-flow-per-start schedule).
func runStripes(plan *stripePlan, mode FairShareMode, batched bool) stripeRun {
	k := NewKernel()
	k.SetFairShareMode(mode)
	tr := &Tracer{}
	k.SetTracer(tr)
	newRes := func(name string, s stripeRes) *Resource {
		r := NewResource(name, s.capacity)
		r.PerFlowCap, r.Latency = s.perFlowCap, s.latency
		return r
	}
	fabric := newRes("fabric", stripeRes{churnResource: plan.fabric})
	disks := make([]*Resource, len(plan.disks))
	for i, d := range plan.disks {
		disks[i] = newRes(fmt.Sprintf("disk-%d", i), d)
	}
	run := stripeRun{ends: make([][]float64, len(plan.readers))}
	for i, reads := range plan.readers {
		nic := newRes(fmt.Sprintf("nic-%d", i), plan.nics[i])
		parts := make([][]Part, len(reads))
		for j, rd := range reads {
			for _, pt := range rd.parts {
				chain := []*Resource{disks[pt.disk], nic}
				if pt.fabric {
					chain = []*Resource{disks[pt.disk], fabric, nic}
				}
				parts[j] = append(parts[j], Part{Bytes: pt.bytes, Res: chain})
			}
		}
		if batched {
			k.Go("reader", func(p *Proc) {
				for j, rd := range reads {
					p.Sleep(rd.gap)
					p.TransferAll(parts[j]...)
					run.ends[i] = append(run.ends[i], p.Now())
				}
			})
			continue
		}
		// The same reader as a chain of callbacks: it starts at its spawn
		// instant, sleeps, starts every part as its own flow, and moves
		// on once the last part's onDone has fired.
		var read func(j int)
		read = func(j int) {
			if j == len(reads) {
				return
			}
			k.After(reads[j].gap, func() {
				left := len(parts[j])
				done := func() {
					if left--; left == 0 {
						run.ends[i] = append(run.ends[i], k.Now())
						read(j + 1)
					}
				}
				for _, pt := range parts[j] {
					lat := 0.0
					for _, r := range pt.Res {
						lat += r.Latency
					}
					if lat > 0 {
						k.After(lat, func() { k.StartFlow(pt.Bytes, done, pt.Res...) })
					} else {
						k.StartFlow(pt.Bytes, done, pt.Res...)
					}
				}
			})
		}
		k.After(0, func() { read(0) })
	}
	for _, rf := range plan.refreshes {
		k.After(rf.at, func() {
			disks[rf.res].Capacity = rf.newCap
			k.RefreshRates()
		})
	}
	k.Run()
	run.trace, run.events = tr.Events(), k.EventsProcessed()
	return run
}

// TestTransferAllMatchesPerFlowStarts replays seeded striped-read plans
// through TransferAll and through per-part StartFlow, in both fair-share
// modes, and requires the same trace (every flow's id, bytes, chain and
// start and completion instants, in the same order: float64 ==, no
// tolerance) and the same read-completion instants, in fewer kernel
// events. Rating only the last flow of a batch — a started flow whose
// chain's shares did not move then never gets a rate — fails it.
func TestTransferAllMatchesPerFlowStarts(t *testing.T) {
	var batchedEvents, perFlowEvents uint64
	for seed := int64(1); seed <= 40; seed++ {
		plan := newStripePlan(seed)
		for _, mode := range []FairShareMode{FairShareIncremental, FairShareFull} {
			want := runStripes(plan, mode, false)
			got := runStripes(plan, mode, true)
			if len(got.trace) != len(want.trace) {
				t.Fatalf("seed %d mode %d: trace lengths differ: TransferAll %d vs per-flow %d", seed, mode, len(got.trace), len(want.trace))
			}
			for i, a := range got.trace {
				b := want.trace[i]
				if a.At != b.At || a.Kind != b.Kind || a.Bytes != b.Bytes || a.Flow != b.Flow || !slices.Equal(a.Resources, b.Resources) {
					t.Fatalf("seed %d mode %d: trace[%d] differs:\n  TransferAll %+v\n  per-flow    %+v", seed, mode, i, a, b)
				}
			}
			for r := range want.ends {
				if len(got.ends[r]) != len(want.ends[r]) {
					t.Fatalf("seed %d mode %d: reader %d finished %d reads, want %d", seed, mode, r, len(got.ends[r]), len(want.ends[r]))
				}
				for j, at := range want.ends[r] {
					if got.ends[r][j] != at {
						t.Fatalf("seed %d mode %d: reader %d read %d ended at %v, want %v", seed, mode, r, j, got.ends[r][j], at)
					}
				}
			}
			if got.events > want.events {
				t.Errorf("seed %d mode %d: TransferAll took %d events, per-flow starts %d", seed, mode, got.events, want.events)
			}
			batchedEvents += got.events
			perFlowEvents += want.events
		}
	}
	if batchedEvents >= perFlowEvents {
		t.Errorf("TransferAll took %d events in all, per-flow starts %d: no start was batched", batchedEvents, perFlowEvents)
	}
}
