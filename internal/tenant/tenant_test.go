package tenant

import (
	"strings"
	"testing"

	"scidp/internal/obs"
	"scidp/internal/solutions"
)

func testEnv(t *testing.T, workers int, reg *obs.Registry) *solutions.Env {
	t.Helper()
	env := solutions.NewEnv(solutions.EnvConfig{
		Nodes: 4, SlotsPerNode: 2, ByteScale: 1,
		Obs: reg, Workers: workers,
	})
	t.Cleanup(env.Close)
	return env
}

// smallTrace mixes three tenants over ~30 virtual seconds: a batch
// tenant submitting large jobs and an interactive tenant streaming
// small ones.
func smallTrace() *Trace {
	tr := &Trace{
		Name: "unit-small",
		Quotas: map[string]Quota{
			"batch": {MaxRunning: 2, Weight: 1},
			"inter": {MaxRunning: 2, Weight: 2},
		},
	}
	add := func(at float64, tenant, kind, size string) {
		tr.Arrivals = append(tr.Arrivals, Arrival{At: at,
			Spec: JobSpec{Tenant: tenant, Kind: kind, Size: size}})
	}
	add(0.1, "batch", "sort", "large")
	add(0.2, "batch", "grep", "large")
	add(1.0, "inter", "grep", "small")
	add(2.0, "inter", "grep", "small")
	add(3.0, "inter", "write", "small")
	add(5.0, "batch", "write", "medium")
	add(6.0, "inter", "grep", "small")
	add(8.0, "inter", "sort", "small")
	return tr
}

func TestReplayCompletesAll(t *testing.T) {
	reg := obs.New()
	reg.SetProcess("scidpd")
	env := testEnv(t, 0, reg)
	svc := New(env, Config{})
	sum, err := Replay(svc, smallTrace())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 8 || sum.Completed != 8 {
		t.Fatalf("jobs=%d completed=%d rejected=%d failed=%d, want all 8 done",
			sum.Jobs, sum.Completed, sum.Rejected, sum.Failed)
	}
	if !sum.WithinQuota {
		t.Error("run exceeded a tenant quota")
	}
	if sum.MakespanSeconds <= 0 || sum.P99Seconds < sum.P50Seconds {
		t.Errorf("bad summary: makespan=%.2f p50=%.2f p99=%.2f",
			sum.MakespanSeconds, sum.P50Seconds, sum.P99Seconds)
	}
	if !svc.Quiesced() {
		t.Error("service not quiesced after replay")
	}
	// Every completed job left output in its own namespace.
	for _, j := range svc.Jobs() {
		if j.Spec.Kind == "grep" && j.Result == 0 {
			t.Errorf("job %d: grep counted nothing", j.ID)
		}
		if !strings.HasPrefix(svc.outDir(j), "/tenant/"+j.Spec.Tenant+"/") {
			t.Errorf("job %d: bad namespace %s", j.ID, svc.outDir(j))
		}
	}
}

func TestAdmissionRejectsOverflow(t *testing.T) {
	env := testEnv(t, 0, nil)
	svc := New(env, Config{DefaultQuota: Quota{MaxQueued: 2, MaxRunning: 1}})
	tr := &Trace{Name: "flood"}
	for i := 0; i < 8; i++ {
		tr.Arrivals = append(tr.Arrivals, Arrival{At: 0.1,
			Spec: JobSpec{Tenant: "t0", Kind: "grep", Size: "large"}})
	}
	sum, err := Replay(svc, tr)
	if err != nil {
		t.Fatal(err)
	}
	// One running + two queued admitted at most in the first burst; the
	// rest must be rejected at admission, not silently queued.
	if sum.Rejected == 0 {
		t.Fatalf("no rejections: %+v", sum)
	}
	if sum.Completed+sum.Rejected != sum.Jobs {
		t.Errorf("jobs=%d completed=%d rejected=%d failed=%d",
			sum.Jobs, sum.Completed, sum.Rejected, sum.Failed)
	}
	if !sum.WithinQuota {
		t.Error("run exceeded a tenant quota")
	}
}

func TestUnknownSpecRejected(t *testing.T) {
	env := testEnv(t, 0, nil)
	svc := New(env, Config{})
	var err error
	env.K.After(0, func() {
		_, err = svc.Submit(JobSpec{Tenant: "t", Kind: "mine-bitcoin", Size: "small"})
	})
	env.K.Run()
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	env.K.After(0, func() {
		_, err = svc.Submit(JobSpec{Tenant: "t", Kind: "grep", Size: "galactic"})
	})
	env.K.Run()
	if err == nil {
		t.Fatal("unknown size accepted")
	}
}

// TestPreemptionOnArrival starts a slot-hogging batch job alone, then
// lands a burst of interactive jobs: the fair-share re-division must
// revoke slots from the hog (preemptions counted) and every job must
// still finish correctly.
func TestPreemptionOnArrival(t *testing.T) {
	reg := obs.New()
	reg.SetProcess("scidpd")
	env := testEnv(t, 0, reg)
	svc := New(env, Config{ScanPerMB: 40})
	tr := &Trace{
		Name: "preempt",
		Quotas: map[string]Quota{
			"hog":   {MaxRunning: 1, Weight: 1},
			"burst": {MaxRunning: 4, Weight: 4},
		},
	}
	tr.Arrivals = append(tr.Arrivals,
		Arrival{At: 0.1, Spec: JobSpec{Tenant: "hog", Kind: "grep", Size: "large"}},
		// Arrive once the hog holds the whole cluster.
		Arrival{At: 4.0, Spec: JobSpec{Tenant: "burst", Kind: "grep", Size: "small"}},
		Arrival{At: 4.1, Spec: JobSpec{Tenant: "burst", Kind: "grep", Size: "small"}},
		Arrival{At: 4.2, Spec: JobSpec{Tenant: "burst", Kind: "grep", Size: "small"}},
	)
	sum, err := Replay(svc, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 4 {
		t.Fatalf("completed=%d of %d (failed=%d)", sum.Completed, sum.Jobs, sum.Failed)
	}
	if sum.Preemptions == 0 {
		t.Error("burst arrival preempted nothing")
	}
	if got := reg.Counter("mr/tasks_preempted_total", obs.L("phase", "map")).Value(); got == 0 {
		t.Error("engine preemption counter still zero")
	}
	if !sum.WithinQuota {
		t.Error("run exceeded a tenant quota")
	}
}

// TestBackfillStartsSmallJobs floods with one huge-queue tenant and a
// small-job tenant under a FIFO-blocking arrival order; fair-share +
// backfill must start small jobs into idle slots.
func TestBackfillStartsSmallJobs(t *testing.T) {
	env := testEnv(t, 0, nil)
	svc := New(env, Config{MaxConcurrent: 2})
	tr := &Trace{
		Name: "backfill",
		Quotas: map[string]Quota{
			"big":   {MaxRunning: 2},
			"small": {MaxRunning: 4},
		},
	}
	// Two mediums occupy both MaxConcurrent seats with demand 5+5=10 >
	// 8 slots? No: use small cluster demand — two grep mediums demand
	// 2*(4+1)=10, over 8 slots, no idle. Use write/small hogs instead:
	// two sort/small demand 2*(2+2)=8 = slots, so add small grep jobs
	// whose demand 3 can only start via... keep it direct: two
	// grep/small running (demand 6), 2 idle slots, backfill demand-3
	// jobs won't fit but demand-2 write/small will.
	tr.Arrivals = append(tr.Arrivals,
		Arrival{At: 0.1, Spec: JobSpec{Tenant: "big", Kind: "grep", Size: "small"}},
		Arrival{At: 0.1, Spec: JobSpec{Tenant: "big", Kind: "grep", Size: "small"}},
		Arrival{At: 0.2, Spec: JobSpec{Tenant: "small", Kind: "write", Size: "small"}},
		Arrival{At: 0.2, Spec: JobSpec{Tenant: "small", Kind: "write", Size: "small"}},
	)
	sum, err := Replay(svc, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 4 {
		t.Fatalf("completed=%d of %d (failed=%d)", sum.Completed, sum.Jobs, sum.Failed)
	}
	if sum.Backfills == 0 {
		t.Error("no backfill starts despite idle slots and queued small jobs")
	}
	// The FIFO baseline must start zero backfills by construction.
	env2 := testEnv(t, 0, nil)
	svc2 := New(env2, Config{MaxConcurrent: 2, FIFO: true})
	sum2, err := Replay(svc2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Backfills != 0 {
		t.Errorf("FIFO mode backfilled %d jobs", sum2.Backfills)
	}
	if sum2.Completed != 4 {
		t.Fatalf("fifo completed=%d of %d", sum2.Completed, sum2.Jobs)
	}
}

// Quiesced reports whether no queued or running jobs remain.
func (s *Service) Quiesced() bool {
	return len(s.fifo) == 0 && len(s.running) == 0 && !s.tickArmed
}
