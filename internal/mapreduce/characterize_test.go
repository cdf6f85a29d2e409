package mapreduce

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scidp/internal/obs"
	"scidp/internal/sim"
)

// pinnedStream is the characterisation job's input: a StreamingInput whose
// pulls cost virtual time (so a refill parks mid-window and the filling
// guard matters) and whose splits mix a hot-spotted host, replicated
// locations, single locations and no preference.
type pinnedStream struct {
	total, next int
}

func (in *pinnedStream) Splits(*sim.Proc) ([]*Split, error) {
	return nil, errors.New("Splits called on a StreamingInput")
}

func (in *pinnedStream) SplitSource(*sim.Proc) (SplitSource, error) { return in, nil }

func (in *pinnedStream) Next(p *sim.Proc) (*Split, error) {
	if in.next >= in.total {
		return nil, nil
	}
	i := in.next
	in.next++
	p.Sleep(0.01)
	s := &Split{Label: fmt.Sprintf("c%02d", i), Payload: fmt.Sprintf("w%d w%d x", i%5, i%3)}
	switch i % 8 {
	case 0, 2, 4, 6: // hot spot: more work than bd-0 has slots, so every tier fires
		s.Locations = []string{"bd-0"}
	case 1, 5:
		s.Locations = []string{fmt.Sprintf("bd-%d", i%8), fmt.Sprintf("bd-%d", (i+3)%8)}
	case 3:
		s.Locations = []string{fmt.Sprintf("bd-%d", i%8)}
	}
	return s, nil
}

func (in *pinnedStream) ForEach(tc *TaskContext, s *Split, fn func(key string, value any) error) error {
	tc.Charge("Read", 1.0)
	return fn(s.Label, s.Payload)
}

// scriptedLease grants a fixed slot budget and revokes chosen acquisitions
// a fixed delay after they are taken: kills[n] = d schedules a kernel
// event d seconds after the n-th Acquire that kills that token.
type scriptedLease struct {
	*stubLease
	k        *sim.Kernel
	kills    map[uint64]float64
	acquired uint64
}

func (l *scriptedLease) Acquire() uint64 {
	tok := l.stubLease.Acquire()
	l.acquired++
	if d, ok := l.kills[l.acquired]; ok {
		l.k.After(d, func() { l.killed[tok] = true })
	}
	return tok
}

// characterisationDigest is the one cross-commit pin — every other
// determinism test compares two runs of the same binary. It was recorded
// on the commit before the stage runner existed (f2fbedd, runPhase) and
// re-recorded once, in PR 24, when the stage's first refill moved behind
// the worker spawn so that a feed may wait: pinnedStream's 0.01 s pulls
// now meet workers on their first idle beat, which starts every attempt
// 0.17 s later — same tasks, nodes, attempt numbers and outcomes, events
// 822 -> 831 (the attempt-by-attempt table is section "PR 24" of
// `git show 16df844:EXPERIMENTS.md`). It moved once more when
// Result.Counters went: the pre-image lost its one "map[]" line and
// nothing else (both pre-images are in section "PR 26" of
// `git show d4e8b1e:EXPERIMENTS.md`).
// And once when the engine's combiner went and the map function took over
// its fold: output, task stats and trace are the same; six single-pair
// buckets no longer fork a sort, so events 831 -> 825 and
// sim_compute_tasks_total 117 -> 111. And once when TransferAll came to
// start the parts due at one instant together with one rebalance: the
// per-part start events and the superseded completion events go, so
// events 825 -> 762, and with the event count hashed as 0 the old and the
// new digest are both bda38a0a…c6bfb. And once when a stage came to start
// its slots' workers in one event and to skip a slot that finds the stage
// drained: the per-slot start events go, so events 762 -> 748 and nothing
// else moves.
const characterisationDigest = "4e3f1d1ebd35b117889739f83874dc3ba29da96a54c49ab574535d389d25ad40"

// characterisationEventless is the same digest with the event count hashed
// as 0: outputs, task stats, virtual time, trace and metrics. A change that
// means only to save kernel events moves characterisationDigest alone; this
// one moves only with what the run does.
const characterisationEventless = "bda38a0a7a2d4b3a45a3136b22cbfc2f375b643a8cffb1660ca55b88d46c6bfb"

// TestCharacterisation drives every branch of the stage loop in one job —
// racked and zoned cluster with located splits (host, rack, zone, steal),
// a streaming source whose window is refilled by workers, a retry, a
// speculative win and a speculative loss, a lease that is sometimes
// spent, one revocation during container launch and one mid-Charge, a
// map-side fold, a reduce retry, spans and metrics — and pins everything
// observable about the run.
func TestCharacterisation(t *testing.T) {
	for _, workers := range []int{-1, 1, 4} {
		sum, eventless, got := characterisationRun(t, workers)
		if eventless != characterisationEventless {
			t.Errorf("workers=%d: the run itself moved: digest with events hashed as 0 %s, want %s\n%s",
				workers, eventless, characterisationEventless, got)
		}
		if sum != characterisationDigest {
			t.Errorf("workers=%d: full digest %s, want %s\n%s", workers, sum, characterisationDigest, got)
		}
	}
}

func characterisationRun(t *testing.T, workers int) (digest, eventless, summary string) {
	t.Helper()
	pool := sim.NewComputePool(workers) // -1 = inline
	defer pool.Close()
	k := sim.NewKernel()
	k.SetComputePool(pool)
	reg := obs.New()
	reg.SetProcess("characterisation")
	k.SetObs(reg)
	lease := &scriptedLease{stubLease: newStubLease(6), k: k,
		kills: map[uint64]float64{7: 0.05, 12: 0.45}}
	in := &pinnedStream{total: 40}
	job := wordCountJob(k, in, 8, 1, 2)
	job.Name = "characterise"
	job.Cluster = topoCluster(k, 8, 1, 2, 2)
	job.SplitWindow = 8
	job.MaxAttempts = 3
	job.Obs = reg
	job.Lease = lease
	job.Speculation = Speculation{Quantile: 0.5, Multiplier: 1.2, MinCompleted: 3, Interval: 0.25}
	job.Map = func(tc *TaskContext, key string, value any) error {
		// A split is one record, so folding its words here shrinks the
		// task's output per key before the shuffle, as a combiner would.
		words := strings.Fields(value.(string))
		counts := map[string]int{}
		for _, w := range words {
			counts[w]++
		}
		for _, w := range words {
			if n := counts[w]; n > 0 {
				tc.Emit(w, n)
				counts[w] = 0
			}
		}
		return nil
	}
	job.Faults = stubFaults(func(phase string, task, attempt int) (error, float64) {
		switch {
		case phase == "map" && task == 3 && attempt == 1:
			return fmt.Errorf("injected map failure"), 1
		case phase == "map" && task == 14 && attempt == 1:
			return nil, 40 // hard straggler: its backup wins
		case phase == "map" && task == 22 && attempt == 1:
			return nil, 2.6 // mild straggler pinned to the hot spot: commits while its backup is still queued
		case phase == "map" && task == 31 && attempt == 1:
			return nil, 2.6 // mild straggler, no preference: its backup launches and is discarded
		case phase == "reduce" && task == 1 && attempt == 1:
			return fmt.Errorf("injected reduce failure"), 1
		}
		return nil, 1
	})
	res := runJob(t, k, job)

	var tb, pb bytes.Buffer
	if err := reg.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	hash := func(events uint64) string {
		h := sha256.New()
		fmt.Fprintf(h, "%s\n%+v\n%+v\n%d %v\n", kvString(res.Output), res.MapStats, res.ReduceStats,
			events, k.Now())
		h.Write(tb.Bytes())
		h.Write(pb.Bytes())
		return fmt.Sprintf("%x", h.Sum(nil))
	}

	// The scenario's coverage, printed beside a mismatch: whoever has to
	// re-record the constant can see whether every branch still fires.
	count := func(name string) float64 { return reg.Counter(name, obs.L("phase", "map")).Value() }
	var b strings.Builder
	fmt.Fprintf(&b, "map attempts=%v failures=%v preempted=%v spec launched=%v wins=%v losses=%v; reduce failures=%v",
		count("mr/task_attempts_total"), count("mr/task_failures_total"), count("mr/tasks_preempted_total"),
		count("mr/speculative_launched_total"), count("mr/speculative_wins_total"), count("mr/speculative_losses_total"),
		reg.Counter("mr/task_failures_total", obs.L("phase", "reduce")).Value())
	hot := map[string]int{}
	for _, ts := range res.MapStats {
		var i int
		fmt.Sscanf(ts.Label, "c%d", &i)
		if i%2 == 0 {
			hot[ts.Node]++
		}
	}
	for _, sp := range reg.Spans() {
		var flags []string
		for _, a := range sp.Args {
			switch a.Key {
			case "speculative", "preempted", "failed", "discarded", "slowdown":
				flags = append(flags, a.Key)
			}
		}
		if len(flags) > 0 {
			fmt.Fprintf(&b, "\n  %s @%.2f-%.2f on %s: %s", sp.Name, sp.Start, sp.End, sp.Track, strings.Join(flags, ","))
		}
	}
	fmt.Fprintf(&b, "; hot-spot splits ran on %v; max lease use %d; events %d; end %.3f",
		hot, lease.maxUsed, k.EventsProcessed(), k.Now())
	return hash(k.EventsProcessed()), hash(0), b.String()
}

// TestStageSettlesUnderRandomFaults sweeps random mixes of failures,
// stragglers, revocations, retry budgets and windows through the
// characterisation job. The kernel panics on a negative wait group and on
// a driver left blocked forever, so every run that returns proves each
// minted task was retired exactly once — on success and, with the feed
// stopped and the queue dropped, on failure.
func TestStageSettlesUnderRandomFaults(t *testing.T) {
	failed := 0
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		lease := &scriptedLease{stubLease: newStubLease(3 + rng.Intn(6)), k: k, kills: map[uint64]float64{}}
		for i := rng.Intn(6); i > 0; i-- {
			lease.kills[uint64(1+rng.Intn(60))] = 0.02 + rng.Float64()
		}
		in := &pinnedStream{total: 30}
		job := wordCountJob(k, in, 8, 1, 2)
		job.Cluster = topoCluster(k, 8, 1, 2, 2)
		job.SplitWindow = 1 + rng.Intn(12)
		job.MaxAttempts = 1 + rng.Intn(3)
		job.Lease = lease
		job.Speculation = Speculation{Quantile: 0.5, Multiplier: 1.2, MinCompleted: 2, Interval: 0.25}
		pFail, pSlow := rng.Float64()*0.15, rng.Float64()*0.2
		draws := map[[2]int]float64{}
		job.Faults = stubFaults(func(phase string, task, attempt int) (error, float64) {
			key := [2]int{task, attempt}
			if phase == "reduce" {
				key[0] += 1000
			}
			if _, ok := draws[key]; !ok { // a preempted attempt redraws its number
				draws[key] = rng.Float64()
			}
			switch d := draws[key]; {
			case d < pFail:
				return fmt.Errorf("injected failure %s/%d/%d", phase, task, attempt), 1
			case d < pFail+pSlow:
				return nil, 2 + 20*d
			}
			return nil, 1
		})
		var res *Result
		var err error
		k.Go("driver", func(p *sim.Proc) { res, err = job.Run(p) })
		k.Run()
		if lease.used != 0 {
			t.Fatalf("seed %d: %d lease tokens still held after the kernel drained", seed, lease.used)
		}
		if err != nil {
			failed++
			if !strings.Contains(err.Error(), "injected failure") {
				t.Fatalf("seed %d: err = %v", seed, err)
			}
			continue
		}
		words := 0
		for _, kv := range res.Output {
			words += kv.V.(int)
		}
		if words != 3*in.total || len(res.MapStats) != in.total {
			t.Fatalf("seed %d: %d words from %d committed maps, want %d from %d", seed, words, len(res.MapStats), 3*in.total, in.total)
		}
	}
	t.Logf("%d of 150 runs ended in a permanent failure", failed)
	if failed == 0 || failed == 150 {
		t.Fatalf("%d of 150 runs failed: the sweep must cover both outcomes", failed)
	}
}
