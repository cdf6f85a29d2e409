package analyze

import (
	"bytes"
	"strings"
	"testing"

	"scidp/internal/obs"
)

type clock struct{ t float64 }

func (c *clock) Now() float64 { return c.t }

// builder wires a registry + clock for hand-built span trees.
type builder struct {
	r   *obs.Registry
	clk *clock
}

func newBuilder() *builder {
	b := &builder{r: obs.New(), clk: &clock{}}
	b.r.SetClock(b.clk)
	b.r.SetProcess("test")
	return b
}

func (b *builder) at(t float64) *builder { b.clk.t = t; return b }

func (b *builder) span(name, cat string, parent *obs.Span, start, end float64, args ...any) *obs.Span {
	b.clk.t = start
	s := b.r.StartSpan(name, cat, parent)
	for i := 0; i+1 < len(args); i += 2 {
		s.Arg(args[i].(string), args[i+1])
	}
	b.clk.t = end
	s.End()
	return s
}

func TestAnalyzeNilAndEmpty(t *testing.T) {
	if rep := Analyze(nil); len(rep.Jobs) != 0 || len(rep.Resources) != 0 {
		t.Fatalf("nil registry: %+v", rep)
	}
	rep := Analyze(obs.New())
	if len(rep.Jobs) != 0 {
		t.Fatalf("empty registry: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no jobs recorded") {
		t.Fatalf("empty text report: %q", buf.String())
	}
}

func TestAnalyzeEmptyJob(t *testing.T) {
	b := newBuilder()
	b.span("job:empty", "mapreduce", nil, 0, 5, "job", "empty")
	rep := Analyze(b.r)
	if len(rep.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(rep.Jobs))
	}
	j := rep.Jobs[0]
	if j.Name != "empty" || j.Seconds != 5 || len(j.Phases) != 0 {
		t.Fatalf("job = %+v", j)
	}
	// The whole job is its own critical path, bucketed "other".
	if len(j.CriticalPath.Segments) != 1 || j.CriticalPath.Buckets.Other != 5 {
		t.Fatalf("critical path = %+v", j.CriticalPath)
	}
}

// TestAnalyzeSingleTask covers one job/phase/task chain with a reader
// and a flow:
//
//	job:j     0........10
//	phase:map 0........10
//	task:m-0    1......9    startup 0.5
//	  core      2...5       (reader)
//	    pfs     2..4
//	      flow  2.5-3.5
func TestAnalyzeSingleTask(t *testing.T) {
	b := newBuilder()
	b.at(0)
	job := b.r.StartSpan("job:j", "mapreduce", nil)
	phase := b.r.StartSpan("phase:map", "mapreduce", job)
	b.at(1)
	task := b.r.StartSpan("task:m-0", "mapreduce", phase)
	task.Arg("node", "node-0")
	task.Arg("attempt", 1)
	task.Arg("startup", 0.5)
	core := func() *obs.Span { b.clk.t = 2; return b.r.StartSpan("PFSReader.ReadFlat", "core", task) }()
	pfs := func() *obs.Span { b.clk.t = 2; return b.r.StartSpan("pfs.ReadAt", "pfs", core) }()
	b.span("flow", "sim", pfs, 2.5, 3.5, "res", "pfs/ost-0+pfs/fabric", "bytes", 1024)
	b.at(4)
	pfs.End()
	b.at(5)
	core.End()
	b.at(9)
	task.End()
	b.at(10)
	phase.End()
	job.End()

	rep := Analyze(b.r)
	if len(rep.Jobs) != 1 || len(rep.Jobs[0].Phases) != 1 {
		t.Fatalf("shape: %+v", rep)
	}
	ph := rep.Jobs[0].Phases[0]
	if ph.Tasks != 1 || ph.Attempts != 1 || ph.Failed != 0 {
		t.Fatalf("phase counts: %+v", ph)
	}
	// Wall 8s = wait 1 (phase start→launch) is sched-side, plus inside
	// the attempt: startup 0.5 sched, io 3 (core span 2..5), compute
	// 8−0.5−3 = 4.5.
	wantSched := 1 + 0.5
	if ph.Buckets.Sched != wantSched || ph.Buckets.IO != 3 || ph.Buckets.Compute != 4.5 {
		t.Fatalf("buckets: %+v", ph.Buckets)
	}
	if ph.TaskSeconds.Count != 1 || ph.TaskSeconds.P50 != 8 || ph.TaskSeconds.Max != 8 {
		t.Fatalf("percentiles: %+v", ph.TaskSeconds)
	}
	// Bottleneck: both resources carry the same 1s flow; tie breaks by
	// name ("pfs/fabric" < "pfs/ost-0").
	if ph.Bottleneck != "pfs/fabric" || ph.BottleneckBusy != 1 {
		t.Fatalf("bottleneck: %q %v", ph.Bottleneck, ph.BottleneckBusy)
	}

	// Critical path tiles [0,10] exactly, chronologically.
	cp := rep.Jobs[0].CriticalPath
	var sum float64
	last := 0.0
	for _, s := range cp.Segments {
		if s.Start != last {
			t.Fatalf("path gap at %v: %+v", last, cp.Segments)
		}
		last = s.End
		sum += s.Seconds
	}
	if last != 10 || sum != 10 {
		t.Fatalf("path covers [0,%v], sum %v, want [0,10]", last, sum)
	}
	// Expect: phase-self 0→1 (sched), task sched 1→1.5 (startup),
	// task compute 1.5→2, core 2→2 (none: pfs covers), pfs 2→2.5,
	// flow 2.5→3.5, pfs 3.5→4, core 4→5, task 5→9, phase/job tail 9→10.
	if cp.Buckets.IO != 3 {
		t.Fatalf("path io = %v, want 3 (core+pfs+flow chain)", cp.Buckets.IO)
	}
	if cp.Buckets.Sched != 1+0.5+1 { // phase lead-in + startup + phase tail
		t.Fatalf("path sched = %v", cp.Buckets.Sched)
	}
	// No sim/resource_* counters were exported: the resource table reads
	// only those, so the flow span that names the bottleneck above adds
	// no row.
	if len(rep.Resources) != 0 {
		t.Fatalf("resources without counters: %+v", rep.Resources)
	}
}

func TestAnalyzeFaultRetryChain(t *testing.T) {
	b := newBuilder()
	b.at(0)
	job := b.r.StartSpan("job:j", "mapreduce", nil)
	phase := b.r.StartSpan("phase:map", "mapreduce", job)
	// Attempt 1 fails after 3s; attempt 2 starts at 4 and succeeds at 7.
	b.span("task:m-0", "mapreduce", phase, 0, 3,
		"node", "node-0", "attempt", 1, "startup", 0.5, "failed", true)
	b.span("task:m-0", "mapreduce", phase, 4, 7,
		"node", "node-1", "attempt", 2, "startup", 0.5)
	b.at(7)
	phase.End()
	job.End()

	ph := Analyze(b.r).Jobs[0].Phases[0]
	if ph.Tasks != 1 || ph.Attempts != 2 || ph.Failed != 1 {
		t.Fatalf("counts: %+v", ph)
	}
	// Failed attempt: wall 3 + wait 0 → recovery. Retry: wait 1
	// (4 − prev end 3) + startup 0.5 → sched; compute 2.5.
	if ph.Buckets.Recovery != 3 {
		t.Fatalf("recovery = %v, want 3", ph.Buckets.Recovery)
	}
	if ph.Buckets.Sched != 1.5 || ph.Buckets.Compute != 2.5 {
		t.Fatalf("buckets: %+v", ph.Buckets)
	}
	// Only the successful attempt counts toward percentiles.
	if ph.TaskSeconds.Count != 1 || ph.TaskSeconds.Max != 3 {
		t.Fatalf("percentiles: %+v", ph.TaskSeconds)
	}
	// The failed attempt's residence on the critical path is recovery.
	cp := Analyze(b.r).Jobs[0].CriticalPath
	if cp.Buckets.Recovery == 0 {
		t.Fatalf("critical path shows no recovery: %+v", cp)
	}
}

func TestAnalyzeSpeculationWinnerLoser(t *testing.T) {
	b := newBuilder()
	b.at(0)
	job := b.r.StartSpan("job:j", "mapreduce", nil)
	phase := b.r.StartSpan("phase:map", "mapreduce", job)
	// Original runs 0→10 but loses; backup launched at 5 wins at 8.
	b.span("task:m-0", "mapreduce", phase, 0, 10,
		"node", "node-0", "attempt", 1, "startup", 0.5, "discarded", true)
	b.span("task:m-0", "mapreduce", phase, 5, 8,
		"node", "node-1", "attempt", 2, "startup", 0.5, "speculative", true)
	b.at(10)
	phase.End()
	job.End()

	ph := Analyze(b.r).Jobs[0].Phases[0]
	if ph.Discarded != 1 || ph.Attempts != 2 || ph.Tasks != 1 {
		t.Fatalf("counts: %+v", ph)
	}
	// Loser: 10s wall → recovery. Winner (speculative): no wait charge,
	// startup 0.5 sched, compute 2.5.
	if ph.Buckets.Recovery != 10 || ph.Buckets.Sched != 0.5 || ph.Buckets.Compute != 2.5 {
		t.Fatalf("buckets: %+v", ph.Buckets)
	}
	if ph.TaskSeconds.Count != 1 || ph.TaskSeconds.Max != 3 {
		t.Fatalf("percentiles: %+v", ph.TaskSeconds)
	}
}

func TestAnalyzeStragglerDetection(t *testing.T) {
	b := newBuilder()
	b.at(0)
	job := b.r.StartSpan("job:j", "mapreduce", nil)
	phase := b.r.StartSpan("phase:map", "mapreduce", job)
	ends := []float64{1, 1.1, 1.2, 1.05, 1.15, 9}
	for i, e := range ends {
		b.span("task:m-"+string(rune('0'+i)), "mapreduce", phase, 0, e,
			"node", "node-0", "attempt", 1)
	}
	b.at(9)
	phase.End()
	job.End()

	ph := Analyze(b.r).Jobs[0].Phases[0]
	if len(ph.Stragglers) != 1 {
		t.Fatalf("stragglers: %+v", ph.Stragglers)
	}
	s := ph.Stragglers[0]
	if s.Task != "m-5" || s.Seconds != 9 {
		t.Fatalf("straggler: %+v", s)
	}
	if s.XMedian < 8 || s.XMedian > 9 {
		t.Fatalf("xmedian = %v", s.XMedian)
	}
	if ph.TaskSeconds.P50 != 1.1 || ph.TaskSeconds.P99 != 9 {
		t.Fatalf("percentiles: %+v", ph.TaskSeconds)
	}
}

func TestAnalyzeShuffleBucketsForReducers(t *testing.T) {
	b := newBuilder()
	b.at(0)
	job := b.r.StartSpan("job:j", "mapreduce", nil)
	phase := b.r.StartSpan("phase:reduce", "mapreduce", job)
	b.at(0)
	task := b.r.StartSpan("task:reduce-0", "mapreduce", phase)
	task.Arg("node", "node-0")
	task.Arg("attempt", 1)
	// Two overlapping shuffle fetches 1..3 and 2..4: union 3s, not 4.
	b.span("flow", "sim", task, 1, 3, "res", "net/nic-0", "bytes", 100)
	b.span("flow", "sim", task, 2, 4, "res", "net/nic-1", "bytes", 100)
	b.at(6)
	task.End()
	phase.End()
	job.End()

	ph := Analyze(b.r).Jobs[0].Phases[0]
	if ph.Buckets.Shuffle != 3 {
		t.Fatalf("shuffle = %v, want 3 (interval union)", ph.Buckets.Shuffle)
	}
	if ph.Buckets.Compute != 3 {
		t.Fatalf("compute = %v, want 3", ph.Buckets.Compute)
	}
	// On the critical path the reducer's flows classify as shuffle.
	cp := Analyze(b.r).Jobs[0].CriticalPath
	if cp.Buckets.Shuffle == 0 {
		t.Fatalf("path shuffle missing: %+v", cp.Buckets)
	}
}

func TestAnalyzeUsesSimCountersWhenPresent(t *testing.T) {
	b := newBuilder()
	job := b.span("job:j", "mapreduce", nil, 0, 1, "job", "j")
	// A flow span over a resource with no counters adds no row.
	b.span("flow", "sim", job, 0, 1, "res", "pfs/ost-0+pfs/fabric", "bytes", 1024)
	b.r.Counter("sim/resource_busy_seconds", obs.L("res", "pfs/ost-0")).Add(7)
	b.r.Counter("sim/resource_bytes_total", obs.L("res", "pfs/ost-0")).Add(4096)
	b.r.Counter("sim/resource_flows_total", obs.L("res", "pfs/ost-0")).Add(3)
	b.r.Gauge("sim/resource_peak_flows", obs.L("res", "pfs/ost-0")).Set(2)
	g := b.r.Gauge("pfs/ost_queue_depth", obs.L("ost", "ost-0"))
	b.at(0.5)
	g.Set(5)
	b.at(0.6)
	g.Set(0)

	rep := Analyze(b.r)
	if len(rep.Resources) != 1 {
		t.Fatalf("resources: %+v", rep.Resources)
	}
	u := rep.Resources[0]
	if u.Name != "pfs/ost-0" || u.BusySeconds != 7 || u.Bytes != 4096 || u.Flows != 3 || u.PeakFlows != 2 {
		t.Fatalf("use: %+v", u)
	}
	if u.QueueDepthMax != 5 {
		t.Fatalf("queue depth = %v, want 5 (gauge timeline peak)", u.QueueDepthMax)
	}
}

// buildFullTree assembles a two-phase job with retry, speculation, and
// nested I/O — the determinism workload.
func buildFullTree() *obs.Registry {
	b := newBuilder()
	b.at(0)
	job := b.r.StartSpan("job:full", "mapreduce", nil)
	mp := b.r.StartSpan("phase:map", "mapreduce", job)
	for i := 0; i < 4; i++ {
		b.at(float64(i))
		task := b.r.StartSpan("task:m-"+string(rune('0'+i)), "mapreduce", mp)
		task.Arg("node", "node-0")
		task.Arg("attempt", 1)
		task.Arg("startup", 0.25)
		core := b.r.StartSpan("PFSReader.ReadFlat", "core", task)
		b.span("flow", "sim", core, float64(i)+0.5, float64(i)+1, "res", "pfs/ost-0", "bytes", 512)
		b.at(float64(i) + 1.5)
		core.End()
		b.at(float64(i) + 2)
		task.End()
	}
	b.at(6)
	mp.End()
	rp := b.r.StartSpan("phase:reduce", "mapreduce", job)
	b.at(6)
	task := b.r.StartSpan("task:reduce-0", "mapreduce", rp)
	task.Arg("node", "node-1")
	task.Arg("attempt", 1)
	task.Arg("startup", 0.25)
	b.span("flow", "sim", task, 6.5, 7.5, "res", "net/nic-1", "bytes", 2048)
	b.at(9)
	task.End()
	b.at(10)
	rp.End()
	job.End()
	// What sim.Tracer.ExportResourceMetrics makes of the five flows.
	for _, u := range []ResourceUse{
		{Name: "pfs/ost-0", BusySeconds: 2, Bytes: 2048, Flows: 4, PeakFlows: 1},
		{Name: "net/nic-1", BusySeconds: 1, Bytes: 2048, Flows: 1, PeakFlows: 1},
	} {
		res := obs.L("res", u.Name)
		b.r.Counter("sim/resource_busy_seconds", res).Add(u.BusySeconds)
		b.r.Counter("sim/resource_bytes_total", res).Add(u.Bytes)
		b.r.Counter("sim/resource_flows_total", res).Add(u.Flows)
		b.r.Gauge("sim/resource_peak_flows", res).Set(u.PeakFlows)
	}
	return b.r
}

func TestAnalyzeDeterminism(t *testing.T) {
	r1, r2 := buildFullTree(), buildFullTree()
	j1, err := Analyze(r1).JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Analyze(r2).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("JSON reports differ:\n%s\n----\n%s", j1, j2)
	}
	var t1, t2 bytes.Buffer
	if err := Analyze(r1).WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := Analyze(r2).WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("text reports differ between identical registries")
	}
}

func TestAnalyzeTextReportContents(t *testing.T) {
	var buf bytes.Buffer
	if err := Analyze(buildFullTree()).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"job full",
		"phase map",
		"phase reduce",
		"task seconds: n=4",
		"critical path:",
		"dominant critical-path spans:",
		"resources by busy time:",
		"pfs/ost-0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestCriticalPathTilesJob(t *testing.T) {
	rep := Analyze(buildFullTree())
	cp := rep.Jobs[0].CriticalPath
	last := rep.Jobs[0].Start
	for _, s := range cp.Segments {
		if s.Start != last {
			t.Fatalf("gap/overlap at %v in %+v", last, cp.Segments)
		}
		if s.Seconds != s.End-s.Start {
			t.Fatalf("segment seconds mismatch: %+v", s)
		}
		last = s.End
	}
	if last != rep.Jobs[0].End {
		t.Fatalf("path ends at %v, job ends at %v", last, rep.Jobs[0].End)
	}
	if got := cp.Buckets.Total(); got != rep.Jobs[0].Seconds {
		t.Fatalf("path buckets total %v != job seconds %v", got, rep.Jobs[0].Seconds)
	}
}

func TestUnionSeconds(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want float64
	}{
		{nil, 0},
		{[]interval{{0, 1}}, 1},
		{[]interval{{0, 2}, {1, 3}}, 3},
		{[]interval{{0, 1}, {2, 3}}, 2},
		{[]interval{{0, 10}, {1, 2}, {3, 4}}, 10},
	}
	for _, c := range cases {
		if got := unionSeconds(c.ivs); got != c.want {
			t.Fatalf("union(%v) = %v, want %v", c.ivs, got, c.want)
		}
	}
}
