package tenant

import (
	"encoding/json"
	"fmt"
	"testing"

	"scidp/internal/chaos"
	"scidp/internal/core"
	"scidp/internal/ioengine"
	"scidp/internal/obs"
	"scidp/internal/solutions"
)

// mtChaosPlan is a recovery-exercising plan sized to the unit trace's
// ~60 s horizon: a DataNode crash, stragglers, and task failures.
func mtChaosPlan() *chaos.Plan {
	return &chaos.Plan{Seed: 7, Rules: []chaos.Rule{
		{Kind: chaos.KindDNCrash, At: 6.0, Target: 1},
		{Kind: chaos.KindStraggler, At: 1.0, Until: 40.0, Rate: 0.2, Factor: 4},
		{Kind: chaos.KindTaskFail, At: 2.0, Until: 40.0, Rate: 0.1},
	}}
}

// replayOnce builds a fresh env+service at the given worker count
// (optionally with the chaos plan) and replays the unit trace, returning
// the service digest, the summary JSON, and the export digest.
func replayOnce(t *testing.T, workers int, withChaos bool) (string, string, string) {
	t.Helper()
	reg := obs.New()
	reg.SetProcess("scidpd") // fixed: worker count must not appear in exports
	cfg := solutions.EnvConfig{
		Nodes: 4, SlotsPerNode: 2, ByteScale: 1,
		Obs: reg, Workers: workers,
	}
	if withChaos {
		cfg.Chaos = mtChaosPlan()
		cfg.Replication = 2
		cfg.MaxAttempts = 3
		cfg.ReadRetry = core.RetryPolicy{MaxRetries: 3, Backoff: 0.2}
	}
	env := solutions.NewEnv(cfg)
	defer env.Close()
	svc := New(env, Config{})
	sum, err := Replay(svc, smallTrace())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed == 0 {
		t.Fatalf("nothing completed (workers=%d chaos=%v)", workers, withChaos)
	}
	if withChaos && sum.Completed+sum.Failed+sum.Rejected != sum.Jobs {
		t.Fatalf("jobs unaccounted for: %+v", sum)
	}
	sumJSON, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	exports, err := reg.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return svc.Digest(), string(sumJSON), exports
}

// TestReplayDeterministicAcrossWorkers is the subsystem's determinism
// contract: the same arrival trace must produce byte-identical job
// completion order, outcomes, summaries, and trace/metrics exports at
// any ComputePool size — inline (-1), 1, and 4 workers — with and
// without a chaos plan. (Workers=0 detaches the data plane entirely,
// which is a different event-schedule shape: Await join events are
// never scheduled. The byte-identity contract, here as in the parallel
// bench, is across pooled counts.)
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	for _, withChaos := range []bool{false, true} {
		name := "clean"
		if withChaos {
			name = "chaos"
		}
		t.Run(name, func(t *testing.T) {
			refDigest, refSum, refExport := replayOnce(t, -1, withChaos)
			for _, workers := range []int{1, 4} {
				d, s, e := replayOnce(t, workers, withChaos)
				if d != refDigest {
					t.Errorf("workers=%d: completion digest diverged", workers)
				}
				if s != refSum {
					t.Errorf("workers=%d: summary diverged:\n  ref: %s\n  got: %s", workers, refSum, s)
				}
				if e != refExport {
					t.Errorf("workers=%d: export digest diverged", workers)
				}
			}
		})
	}
}

// TestReplaySameSeedRepeat replays the identical configuration twice:
// byte-identical everything, the smoke test's two-run contract.
func TestReplaySameSeedRepeat(t *testing.T) {
	d1, s1, e1 := replayOnce(t, 2, true)
	d2, s2, e2 := replayOnce(t, 2, true)
	if d1 != d2 || s1 != s2 || e1 != e2 {
		t.Errorf("same-seed repeat diverged: digest %v summary %v export %v",
			d1 == d2, s1 == s2, e1 == e2)
	}
}

// TestPreemptionDeterminism replays the preemption-heavy trace from
// TestPreemptionOnArrival across worker counts: revocation points ride
// on Charge quanta, which live entirely in virtual time.
func TestPreemptionDeterminism(t *testing.T) {
	run := func(workers int) (string, int) {
		reg := obs.New()
		reg.SetProcess("scidpd")
		env := solutions.NewEnv(solutions.EnvConfig{
			Nodes: 4, SlotsPerNode: 2, ByteScale: 1, Obs: reg, Workers: workers,
		})
		defer env.Close()
		svc := New(env, Config{ScanPerMB: 40})
		tr := &Trace{
			Quotas: map[string]Quota{
				"hog":   {MaxRunning: 1, Weight: 1},
				"burst": {MaxRunning: 4, Weight: 4},
			},
			Arrivals: []Arrival{
				{At: 0.1, Spec: JobSpec{Tenant: "hog", Kind: "grep", Size: "large"}},
				{At: 4.0, Spec: JobSpec{Tenant: "burst", Kind: "grep", Size: "small"}},
				{At: 4.1, Spec: JobSpec{Tenant: "burst", Kind: "grep", Size: "small"}},
				{At: 4.2, Spec: JobSpec{Tenant: "burst", Kind: "sort", Size: "small"}},
			},
		}
		sum, err := Replay(svc, tr)
		if err != nil {
			t.Fatal(err)
		}
		exports, err := reg.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return svc.Digest() + "|" + exports, sum.Preemptions
	}
	ref, preempts := run(-1)
	if preempts == 0 {
		t.Fatal("trace triggered no preemptions")
	}
	for _, workers := range []int{1, 4} {
		if got, _ := run(workers); got != ref {
			t.Errorf("workers=%d: preemption run diverged", workers)
		}
	}
}

// TestReplayTierDeterminism is the service × cache-tier contract: with
// the cooperative tier attached, the replay is byte-identical (summary,
// completion digest, exports) at workers 1 and 4, the tier serves hits
// on the shared input catalog, and every job ends in the same state
// with the same result and output volume as with the tier off — the
// tier may move completion times, never what a job computes.
func TestReplayTierDeterminism(t *testing.T) {
	run := func(workers int, tier ioengine.TierConfig) (summary, outcomes string, stats ioengine.TierStats) {
		reg := obs.New()
		reg.SetProcess("scidpd")
		env := solutions.NewEnv(solutions.EnvConfig{
			Nodes: 4, SlotsPerNode: 2, ByteScale: 1,
			Obs: reg, Workers: workers, CacheTier: tier,
		})
		defer env.Close()
		svc := New(env, Config{})
		sum, err := Replay(svc, smallTrace())
		if err != nil {
			t.Fatal(err)
		}
		if sum.ExportDigest, err = reg.Digest(); err != nil {
			t.Fatal(err)
		}
		sumJSON, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range svc.Jobs() {
			outcomes += fmt.Sprintf("%d %s result=%d out=%d\n", j.ID, j.State, j.Result, j.OutputBytes)
		}
		return string(sumJSON), outcomes, env.Tier.Stats()
	}
	tier := ioengine.TierConfig{NodeBytes: 2 << 20, Policy: ioengine.PolicyCost}
	sum1, out1, stats := run(1, tier)
	sum4, out4, _ := run(4, tier)
	if sum1 != sum4 || out1 != out4 {
		t.Errorf("tiered replay differs between workers=1 and workers=4:\n  w1: %s\n  w4: %s", sum1, sum4)
	}
	if stats.HitRate() <= 0 {
		t.Errorf("tier served no hits on the shared catalog: %+v", stats)
	}
	if _, outOff, _ := run(1, ioengine.TierConfig{}); out1 != outOff {
		t.Errorf("job outcomes differ from the tier-off replay:\n  on:\n%s  off:\n%s", out1, outOff)
	}
}
