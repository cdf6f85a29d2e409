package mapreduce

import (
	"fmt"
	"strings"
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/obs"
	"scidp/internal/sim"
)

// memInput is an in-memory InputFormat: each split is a list of lines, and
// reading charges a configurable virtual cost per split.
type memInput struct {
	splits   []*Split
	readCost float64
	splitErr error
	readErr  error
}

func (m *memInput) Splits(p *sim.Proc) ([]*Split, error) {
	if m.splitErr != nil {
		return nil, m.splitErr
	}
	return m.splits, nil
}

func (m *memInput) ForEach(tc *TaskContext, s *Split, fn func(key string, value any) error) error {
	if m.readErr != nil {
		return m.readErr
	}
	if m.readCost > 0 {
		tc.Charge("Read", m.readCost)
	}
	for i, line := range s.Payload.([]string) {
		if err := fn(fmt.Sprintf("%s:%d", s.Label, i), line); err != nil {
			return err
		}
	}
	return nil
}

func linesInput(readCost float64, groups ...[]string) *memInput {
	in := &memInput{readCost: readCost}
	for i, g := range groups {
		in.splits = append(in.splits, &Split{Label: fmt.Sprintf("s%d", i), Payload: g, Length: int64(len(g))})
	}
	return in
}

func testCluster(k *sim.Kernel, nodes, slots int) *cluster.Cluster {
	return cluster.New(k, "bd", cluster.Config{
		Nodes: nodes, SlotsPerNode: slots,
		DiskBW: 1e6, NICBW: 1e6, FabricBW: 1e6,
	})
}

// runJob drives a job from a driver proc and returns its result.
func runJob(t *testing.T, k *sim.Kernel, job *Job) *Result {
	t.Helper()
	var res *Result
	var err error
	k.Go("driver", func(p *sim.Proc) {
		res, err = job.Run(p)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func wordCountJob(k *sim.Kernel, in InputFormat, nodes, slots, reducers int) *Job {
	return &Job{
		Name:        "wordcount",
		Cluster:     testCluster(k, nodes, slots),
		Input:       in,
		TaskStartup: 0.1,
		NumReducers: reducers,
		Map: func(tc *TaskContext, key string, value any) error {
			for _, w := range strings.Fields(value.(string)) {
				tc.Emit(w, 1)
			}
			return nil
		},
		Reduce: func(tc *TaskContext, key string, values []any) error {
			sum := 0
			for _, v := range values {
				sum += v.(int)
			}
			tc.Emit(key, sum)
			return nil
		},
	}
}

func TestWordCount(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0,
		[]string{"a b a", "c"},
		[]string{"b b", "a c c"},
	)
	res := runJob(t, k, wordCountJob(k, in, 2, 2, 2))
	want := map[string]int{"a": 3, "b": 3, "c": 3}
	if len(res.Output) != 3 {
		t.Fatalf("output = %+v", res.Output)
	}
	for _, kv := range res.Output {
		if kv.V.(int) != want[kv.K] {
			t.Errorf("%s = %v, want %d", kv.K, kv.V, want[kv.K])
		}
	}
	if res.Elapsed() <= 0 {
		t.Error("elapsed must be positive")
	}
}

func TestMapOnlyJob(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"x"}, []string{"y"})
	job := wordCountJob(k, in, 2, 1, 0)
	job.Reduce = nil
	job.NumReducers = 0
	res := runJob(t, k, job)
	if len(res.Output) != 2 {
		t.Fatalf("map-only output = %+v", res.Output)
	}
	if len(res.ReduceStats) != 0 {
		t.Fatal("map-only job should have no reduce tasks")
	}
}

func TestOutputSortedByKey(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"z y x w v"})
	res := runJob(t, k, wordCountJob(k, in, 2, 1, 3))
	for i := 1; i < len(res.Output); i++ {
		if res.Output[i-1].K > res.Output[i].K {
			t.Fatalf("output not sorted: %+v", res.Output)
		}
	}
}

func TestSlotsBoundConcurrency(t *testing.T) {
	// 4 splits, 1 node, 1 slot, each read costs 1 s: the map wave must
	// serialize (>= 4 s). With 4 slots it parallelizes (~1 s + startup).
	elapsed := func(slots int) float64 {
		k := sim.NewKernel()
		in := linesInput(1.0, []string{"a"}, []string{"a"}, []string{"a"}, []string{"a"})
		job := wordCountJob(k, in, 1, slots, 1)
		res := runJob(t, k, job)
		return res.Elapsed()
	}
	serial, parallel := elapsed(1), elapsed(4)
	if serial < 4.0 {
		t.Fatalf("serial wave took %v, want >= 4", serial)
	}
	if parallel > serial/2 {
		t.Fatalf("parallel wave %v should be well under serial %v", parallel, serial)
	}
}

func TestLocalityPreferred(t *testing.T) {
	k := sim.NewKernel()
	in := &memInput{}
	// Two splits pinned to bd-1; with enough slots everywhere, both must
	// run on bd-1.
	for i := 0; i < 2; i++ {
		in.splits = append(in.splits, &Split{
			Label: fmt.Sprintf("pinned-%d", i), Payload: []string{"a"},
			Locations: []string{"bd-1"},
		})
	}
	job := wordCountJob(k, in, 3, 2, 1)
	res := runJob(t, k, job)
	for _, ts := range res.MapStats {
		if ts.Node != "bd-1" {
			t.Fatalf("task %s ran on %s, want bd-1", ts.Label, ts.Node)
		}
	}
}

func TestTaskStartupCharged(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"a"})
	job := wordCountJob(k, in, 1, 1, 0)
	job.Reduce = nil
	job.TaskStartup = 2.5
	res := runJob(t, k, job)
	if res.Elapsed() < 2.5 {
		t.Fatalf("elapsed %v < startup 2.5", res.Elapsed())
	}
}

func TestPhasesRecorded(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0.5, []string{"a"}, []string{"b"})
	job := wordCountJob(k, in, 2, 1, 1)
	job.Map = func(tc *TaskContext, key string, value any) error {
		tc.Charge("Plot", 0.25)
		tc.Emit(value.(string), 1)
		return nil
	}
	res := runJob(t, k, job)
	if got := res.PhaseMean("Read"); got != 0.5 {
		t.Fatalf("Read mean = %v, want 0.5", got)
	}
	if got := res.PhaseMean("Plot"); got != 0.25 {
		t.Fatalf("Plot mean = %v, want 0.25", got)
	}
	if got := res.PhaseMean("Nope"); got != 0 {
		t.Fatalf("missing phase mean = %v", got)
	}
}

func TestShuffleBytesAccounted(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"a b"}, []string{"c d"})
	job := wordCountJob(k, in, 2, 1, 1)
	res := runJob(t, k, job)
	// Two map tasks on two nodes, one reducer: at least one map output
	// must cross the network.
	if res.ShuffleBytes <= 0 {
		t.Fatal("expected nonzero shuffle bytes")
	}
}

// stubFaults adapts a func to the TaskFaults interface — tests stand in
// for the chaos injector the same way it plugs in: structurally.
type stubFaults func(phase string, task, attempt int) (error, float64)

func (f stubFaults) TaskFault(phase string, task, attempt int) (error, float64) {
	return f(phase, task, attempt)
}

func TestRetrySucceeds(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"a"}, []string{"b"})
	job := wordCountJob(k, in, 2, 1, 1)
	job.MaxAttempts = 3
	job.Faults = stubFaults(func(phase string, task, attempt int) (error, float64) {
		if phase == "map" && task == 0 && attempt < 3 {
			return fmt.Errorf("injected failure on task %d attempt %d", task, attempt), 1
		}
		return nil, 1
	})
	res := runJob(t, k, job)
	if len(res.Output) != 2 {
		t.Fatalf("output = %+v", res.Output)
	}
	for _, ts := range res.MapStats {
		if ts.Label == "s0" && ts.Attempt != 3 {
			t.Fatalf("task s0 succeeded on attempt %d, want 3", ts.Attempt)
		}
	}
}

// TestCommittedOutputCountsOnce pins the pattern RunTeraSort and the
// tenant sort kind rely on: a reduce attempt that dies part-way has
// already run Reduce for its earlier keys, so a counter captured by the
// closure counts them twice, while the committed res.Output counts every
// record exactly once.
func TestCommittedOutputCountsOnce(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"a b a", "c"}, []string{"b b", "a c c"})
	job := wordCountJob(k, in, 2, 2, 1)
	job.MaxAttempts = 2
	captured, failed := 0, false
	job.Reduce = func(tc *TaskContext, key string, values []any) error {
		if key == "c" && !failed {
			failed = true
			return fmt.Errorf("injected failure after two groups")
		}
		captured += len(values)
		tc.Emit(key, len(values))
		return nil
	}
	res := runJob(t, k, job)
	committed := 0
	for _, kv := range res.Output {
		committed += kv.V.(int)
	}
	if committed != 9 {
		t.Errorf("res.Output counts %d records, want 9", committed)
	}
	if !failed || captured <= 9 {
		t.Errorf("closure counter = %d after a retried attempt (failed=%v), want > 9: the retry did not re-run Reduce", captured, failed)
	}
	if res.ReduceStats[0].Attempt != 2 {
		t.Errorf("reduce committed on attempt %d, want 2", res.ReduceStats[0].Attempt)
	}
}

func TestPermanentFailureSurfacesError(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"a"})
	job := wordCountJob(k, in, 1, 1, 1)
	job.MaxAttempts = 2
	job.Faults = stubFaults(func(phase string, task, attempt int) (error, float64) {
		return fmt.Errorf("injected failure"), 1
	})
	var err error
	k.Go("driver", func(p *sim.Proc) {
		_, err = job.Run(p)
	})
	k.Run()
	if err == nil {
		t.Fatal("permanently failing task should fail the job")
	}
}

func TestSplitErrorPropagates(t *testing.T) {
	k := sim.NewKernel()
	in := &memInput{splitErr: fmt.Errorf("no such input path")}
	job := wordCountJob(k, in, 1, 1, 1)
	var err error
	k.Go("driver", func(p *sim.Proc) {
		_, err = job.Run(p)
	})
	k.Run()
	if err == nil || !strings.Contains(err.Error(), "no such input path") {
		t.Fatalf("err = %v", err)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"a"})
	job := wordCountJob(k, in, 1, 1, 1)
	job.Map = func(tc *TaskContext, key string, value any) error {
		return fmt.Errorf("map exploded")
	}
	var err error
	k.Go("driver", func(p *sim.Proc) {
		_, err = job.Run(p)
	})
	k.Run()
	if err == nil || !strings.Contains(err.Error(), "map exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"a"})
	job := wordCountJob(k, in, 1, 1, 1)
	job.Reduce = func(tc *TaskContext, key string, values []any) error {
		return fmt.Errorf("reduce exploded")
	}
	var err error
	k.Go("driver", func(p *sim.Proc) {
		_, err = job.Run(p)
	})
	k.Run()
	if err == nil || !strings.Contains(err.Error(), "reduce exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestCustomPartitioner(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(0, []string{"a b c d"})
	job := wordCountJob(k, in, 2, 1, 2)
	job.Partition = func(key string, reducers int) int {
		if key < "c" {
			return 0
		}
		return 1
	}
	res := runJob(t, k, job)
	if len(res.Output) != 4 {
		t.Fatalf("output = %+v", res.Output)
	}
	if len(res.ReduceStats) != 2 {
		t.Fatalf("reduce tasks = %d", len(res.ReduceStats))
	}
}

func TestJobValidation(t *testing.T) {
	k := sim.NewKernel()
	var err error
	k.Go("driver", func(p *sim.Proc) {
		job := &Job{Name: "bad", Cluster: testCluster(k, 1, 1), Input: linesInput(0)}
		_, err = job.Run(p)
	})
	k.Run()
	if err == nil {
		t.Fatal("job without Map should fail")
	}
}

func TestSlotlessClusterIsAnError(t *testing.T) {
	k := sim.NewKernel()
	job := wordCountJob(k, linesInput(0, []string{"a"}), 2, 0, 1)
	var runErr, stageErr error
	k.Go("driver", func(p *sim.Proc) {
		_, runErr = job.Run(p)
		stageErr = job.RunStage(p, "wave", func(*sim.Proc) (*Task, error) { return nil, nil })
	})
	k.Run()
	for _, err := range []error{runErr, stageErr} {
		if err == nil || !strings.Contains(err.Error(), "no task slots") {
			t.Fatalf("err = %v, want the cluster's missing slots named", err)
		}
	}
}

// TestWaitingFeedHoldsNoSlot: a feed that delivers a task every ten
// virtual seconds, on a cluster with one slot. Each task must start within
// an idle beat of its delivery and finish before the next one exists: the
// wait is the driver's, the slot is free for the task the wait produced.
func TestWaitingFeedHoldsNoSlot(t *testing.T) {
	k := sim.NewKernel()
	job := &Job{Name: "trickle", Cluster: testCluster(k, 1, 1), TaskStartup: 0.5}
	const tasks = 4
	var starts, ends []float64
	delivered := 0
	var err error
	k.Go("driver", func(p *sim.Proc) {
		err = job.RunStage(p, "wave", func(fp *sim.Proc) (*Task, error) {
			if delivered == tasks {
				return nil, nil
			}
			delivered++
			fp.Sleep(10)
			return &Task{Label: fmt.Sprintf("t%d", delivered), Run: func(tc *TaskContext) (func(), error) {
				starts = append(starts, tc.Proc().Now())
				tc.Charge("Work", 3)
				return func() { ends = append(ends, tc.Proc().Now()) }, nil
			}}, nil
		})
	})
	k.Run()
	if err != nil || len(ends) != tasks {
		t.Fatalf("err = %v, %d of %d tasks committed", err, len(ends), tasks)
	}
	for i := range starts {
		landed := 10 * float64(i+1)
		if starts[i] < landed || starts[i] > landed+0.25+0.5 || ends[i] >= landed+10 {
			t.Errorf("task %d delivered at %v ran %v-%v", i+1, landed, starts[i], ends[i])
		}
	}
}

// TestWorkerPanicNamesItsSlot: a task body's panic reaches Run under its
// worker's name, <job>/<stage>/<node>-worker, whichever slots the stage's
// start event skipped. The task prefers bd-2, so bd-2's first worker
// takes it at its first step while the other nodes' workers wait out
// their delay beats.
func TestWorkerPanicNamesItsSlot(t *testing.T) {
	k := sim.NewKernel()
	job := &Job{Name: "boom", Cluster: testCluster(k, 3, 2)}
	k.Go("driver", func(p *sim.Proc) {
		fed := false
		job.RunStage(p, "wave", func(*sim.Proc) (*Task, error) {
			if fed {
				return nil, nil
			}
			fed = true
			return &Task{Label: "bad", Locations: []string{"bd-2"}, Run: func(*TaskContext) (func(), error) {
				panic("task body failed")
			}}, nil
		})
	})
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		k.Run()
	}()
	if want := `sim: process "boom/wave/bd-2-worker" panicked: task body failed`; msg != want {
		t.Fatalf("Run panicked with %q, want %q", msg, want)
	}
}

func TestSequentialJobsComposeInOneDriver(t *testing.T) {
	// A driver can run job B after job A completes (the SciHadoop
	// copy-then-process pipeline shape).
	k := sim.NewKernel()
	cl := testCluster(k, 2, 2)
	mk := func(name string) *Job {
		j := wordCountJob(k, linesInput(0.5, []string{"a"}, []string{"b"}), 2, 2, 1)
		j.Name = name
		j.Cluster = cl
		return j
	}
	var t1, t2 float64
	k.Go("driver", func(p *sim.Proc) {
		r1, err := mk("first").Run(p)
		if err != nil {
			t.Error(err)
			return
		}
		t1 = r1.End
		r2, err := mk("second").Run(p)
		if err != nil {
			t.Error(err)
			return
		}
		t2 = r2.Start
	})
	k.Run()
	if t2 < t1 {
		t.Fatalf("second job started at %v before first ended at %v", t2, t1)
	}
}

func TestDeterministicScheduling(t *testing.T) {
	trace := func() string {
		k := sim.NewKernel()
		in := linesInput(0.3,
			[]string{"a"}, []string{"b"}, []string{"c"}, []string{"d"},
			[]string{"e"}, []string{"f"}, []string{"g"}, []string{"h"},
		)
		res := runJob(t, k, wordCountJob(k, in, 3, 2, 2))
		var sb strings.Builder
		for _, ts := range res.MapStats {
			fmt.Fprintf(&sb, "%s@%s:%.3f;", ts.Label, ts.Node, ts.End)
		}
		return sb.String()
	}
	if a, b := trace(), trace(); a != b {
		t.Fatalf("nondeterministic scheduling:\n%s\n%s", a, b)
	}
}

func TestSpeculativeBackupWins(t *testing.T) {
	// One straggling first-attempt map task (50x slowdown) on a cluster
	// with spare wave-2 slots: the speculator must launch a backup, the
	// backup must commit first, and the straggler's late finish must be
	// discarded without double-counting its output.
	k := sim.NewKernel()
	in := linesInput(1.0,
		[]string{"a a"}, []string{"a"}, []string{"a"}, []string{"a"},
		[]string{"a"}, []string{"a"}, []string{"a"}, []string{"a"},
	)
	reg := obs.New()
	job := wordCountJob(k, in, 2, 2, 1)
	job.Obs = reg
	job.MaxAttempts = 2
	job.Speculation = Speculation{Quantile: 0.5, Multiplier: 1.5, MinCompleted: 3, Interval: 0.1}
	job.Faults = stubFaults(func(phase string, task, attempt int) (error, float64) {
		if phase == "map" && task == 0 && attempt == 1 {
			return nil, 50
		}
		return nil, 1
	})
	res := runJob(t, k, job)
	if len(res.Output) != 1 || res.Output[0].V.(int) != 9 {
		t.Fatalf("output = %+v, want a=9 exactly once", res.Output)
	}
	wins := reg.Counter("mr/speculative_wins_total", obs.L("phase", "map")).Value()
	launched := reg.Counter("mr/speculative_launched_total", obs.L("phase", "map")).Value()
	if launched == 0 || wins == 0 {
		t.Fatalf("speculation launched=%v wins=%v, want both nonzero", launched, wins)
	}
}

func TestSpeculativeBackupLoses(t *testing.T) {
	// A mild straggler crosses the speculation threshold but still beats
	// its backup (which pays full startup + read again): the original
	// commits, the backup is discarded, and the loss is counted once.
	k := sim.NewKernel()
	in := linesInput(1.0,
		[]string{"a"}, []string{"a"}, []string{"a"}, []string{"a"},
		[]string{"a"}, []string{"a"}, []string{"a"}, []string{"a"},
	)
	reg := obs.New()
	job := wordCountJob(k, in, 2, 2, 1)
	job.Obs = reg
	job.MaxAttempts = 2
	job.Speculation = Speculation{Quantile: 0.5, Multiplier: 1.2, MinCompleted: 3, Interval: 0.1}
	job.Faults = stubFaults(func(phase string, task, attempt int) (error, float64) {
		if phase == "map" && task == 0 && attempt == 1 {
			return nil, 2.6
		}
		return nil, 1
	})
	res := runJob(t, k, job)
	if len(res.Output) != 1 || res.Output[0].V.(int) != 8 {
		t.Fatalf("output = %+v, want a=8 exactly once", res.Output)
	}
	wins := reg.Counter("mr/speculative_wins_total", obs.L("phase", "map")).Value()
	losses := reg.Counter("mr/speculative_losses_total", obs.L("phase", "map")).Value()
	if wins != 0 || losses != 1 {
		t.Fatalf("speculation wins=%v losses=%v, want 0 and 1", wins, losses)
	}
}

// TestInputFormatReusableAcrossRuns guards the split-source adapter's
// copy semantics: an InputFormat that hands out the same long-lived
// []*Split on every Splits call (the TeraSort wall benchmark does, and
// any format caching its split table would) must survive repeated Run
// calls. A destructive drain that nils entries in the returned slice
// makes the second job see zero splits and silently reduce nothing.
func TestInputFormatReusableAcrossRuns(t *testing.T) {
	in := linesInput(0,
		[]string{"a b a", "c"},
		[]string{"b b", "a c c"},
	)
	for run := 0; run < 2; run++ {
		k := sim.NewKernel()
		res := runJob(t, k, wordCountJob(k, in, 2, 2, 2))
		if len(res.Output) != 3 {
			t.Fatalf("run %d: output = %+v, want 3 groups", run, res.Output)
		}
	}
	for i, s := range in.splits {
		if s == nil {
			t.Fatalf("engine nilled caller's split %d", i)
		}
	}
}

// TestRequeuedBackupKeepsItsLabel: a speculative backup that fails once and
// is requeued is still the backup lineage — its retry's span says so, and
// when that retry commits first the task is a speculative win, not a loss.
func TestRequeuedBackupKeepsItsLabel(t *testing.T) {
	k := sim.NewKernel()
	in := linesInput(1.0,
		[]string{"a"}, []string{"a"}, []string{"a"}, []string{"a"}, []string{"a"}, []string{"a"},
	)
	reg := obs.New()
	reg.SetClock(k)
	job := wordCountJob(k, in, 2, 2, 1)
	job.Obs = reg
	job.MaxAttempts = 3
	job.Speculation = Speculation{Quantile: 0.5, Multiplier: 1.5, MinCompleted: 3, Interval: 0.1}
	job.Faults = stubFaults(func(phase string, task, attempt int) (error, float64) {
		switch {
		case phase == "map" && task == 5 && attempt == 1:
			return nil, 40 // the original straggles
		case phase == "map" && task == 5 && attempt == 2:
			return fmt.Errorf("backup's first try dies"), 1
		}
		return nil, 1
	})
	res := runJob(t, k, job)
	if len(res.Output) != 1 || res.Output[0].V.(int) != 6 {
		t.Fatalf("output = %+v, want a=6 exactly once", res.Output)
	}
	count := func(name string) float64 { return reg.Counter(name, obs.L("phase", "map")).Value() }
	launched, wins, losses := count("mr/speculative_launched_total"), count("mr/speculative_wins_total"), count("mr/speculative_losses_total")
	if launched != 2 || wins != 1 || losses != 0 {
		t.Fatalf("launched=%v wins=%v losses=%v, want 2, 1, 0", launched, wins, losses)
	}
	for _, sp := range reg.Spans() {
		if a, _ := sp.ArgFloat("attempt"); sp.Name == "task:s5" && a == 3 && !sp.ArgBool("speculative") {
			t.Fatalf("the backup's retry (attempt 3) lost its speculative label: %+v", sp.Args)
		}
	}
}
