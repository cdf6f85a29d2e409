package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestChromeTraceUnfinishedSpan(t *testing.T) {
	clk := &fakeClock{}
	r := New()
	r.SetClock(clk)
	r.SetProcess("runA")
	done := r.StartSpan("done", "mr", nil)
	clk.t = 1
	done.End()
	clk.t = 2
	r.StartSpan("stuck", "mr", nil) // never ended
	clk.t = 5

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range top.TraceEvents {
		if ev["ph"] != "X" || ev["name"] != "stuck" {
			continue
		}
		found = true
		// Synthetic end at the export clock: started at t=2, exported at
		// t=5 ⇒ 3 s = 3e6 µs.
		if dur := ev["dur"].(float64); dur != 3e6 {
			t.Fatalf("unfinished span dur = %v µs, want 3e6", dur)
		}
		args := ev["args"].(map[string]any)
		if v, ok := args["unfinished"].(bool); !ok || !v {
			t.Fatalf("unfinished span missing \"unfinished\":true arg: %v", args)
		}
	}
	if !found {
		t.Fatal("open span was skipped by the chrome exporter")
	}
	// Closed spans must not carry the flag.
	for _, ev := range top.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "done" {
			if _, ok := ev["args"].(map[string]any)["unfinished"]; ok {
				t.Fatal("closed span wrongly flagged unfinished")
			}
		}
	}
}

func TestChromeTraceUnfinishedSpanClockBehindStart(t *testing.T) {
	// A clock that rewound (or a nil clock reading 0) must not produce a
	// negative duration: the synthetic end clamps to the span start.
	clk := &fakeClock{t: 7}
	r := New()
	r.SetClock(clk)
	r.StartSpan("stuck", "mr", nil)
	clk.t = 0
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	for _, ev := range top.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "stuck" {
			if dur := ev["dur"].(float64); dur != 0 {
				t.Fatalf("dur = %v, want 0 (clamped)", dur)
			}
			return
		}
	}
	t.Fatal("span missing from trace")
}

func TestHealthMetricsExported(t *testing.T) {
	r := New()
	r.SetMaxSpans(1)
	r.StartSpan("keep", "x", nil)
	r.StartSpan("lost-1", "x", nil)
	r.StartSpan("lost-2", "x", nil)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"obs_spans_dropped_total 2",
		"obs_spans_live 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

func TestSpansView(t *testing.T) {
	clk := &fakeClock{}
	r := New()
	r.SetClock(clk)
	r.SetProcess("runA")
	job := r.StartSpan("job", "mr", nil)
	job.SetTrack("driver")
	clk.t = 1
	task := r.StartSpan("task", "mr", job)
	task.Arg("node", "node-0")
	task.Arg("attempt", 1)
	task.Arg("speculative", true)
	clk.t = 3
	task.End()
	open := r.StartSpan("open", "mr", job)
	_ = open

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	j, tk, op := spans[0], spans[1], spans[2]
	if j.Name != "job" || j.Parent != 0 || j.Track != "driver" || j.Process != "runA" {
		t.Fatalf("job view = %+v", j)
	}
	if tk.Parent != j.ID || tk.Start != 1 || tk.End != 3 || tk.Open {
		t.Fatalf("task view = %+v", tk)
	}
	if tk.Seconds() != 2 {
		t.Fatalf("task seconds = %v, want 2", tk.Seconds())
	}
	if got := tk.ArgString("node"); got != "node-0" {
		t.Fatalf("ArgString(node) = %q", got)
	}
	if v, ok := tk.ArgFloat("attempt"); !ok || v != 1 {
		t.Fatalf("ArgFloat(attempt) = %v, %v", v, ok)
	}
	if !tk.ArgBool("speculative") {
		t.Fatal("ArgBool(speculative) = false, want true")
	}
	if _, ok := tk.Arg("absent"); ok {
		t.Fatal("Arg(absent) should report ok=false")
	}
	if !op.Open || op.Seconds() != 0 {
		t.Fatalf("open view = %+v", op)
	}

	var nilReg *Registry
	if nilReg.Spans() != nil {
		t.Fatal("nil registry must return nil spans")
	}
}

func TestSnapshotView(t *testing.T) {
	clk := &fakeClock{}
	r := New()
	r.SetClock(clk)
	r.Counter("a/bytes_total", L("res", "ost-0")).Add(64)
	g := r.Gauge("a/depth", L("res", "ost-0"))
	clk.t = 1
	g.Set(4)
	h := r.Histogram("a/lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	r.AddCollector(func() { r.Gauge("a/collected").Set(9) })

	snap := r.Snapshot()
	byKey := map[string]SeriesInfo{}
	for _, s := range snap {
		byKey[s.Name+"|"+s.Label("res")] = s
	}
	c := byKey["a/bytes_total|ost-0"]
	if c.Kind != "counter" || c.Value != 64 {
		t.Fatalf("counter view = %+v", c)
	}
	gv := byKey["a/depth|ost-0"]
	if gv.Kind != "gauge" || gv.Value != 4 || len(gv.Samples) != 1 || gv.Samples[0].At != 1 {
		t.Fatalf("gauge view = %+v", gv)
	}
	hv := byKey["a/lat|"]
	if hv.Kind != "histogram" || hv.Count != 2 || hv.Sum != 5.5 {
		t.Fatalf("histogram view = %+v", hv)
	}
	if cv := byKey["a/collected|"]; cv.Value != 9 {
		t.Fatalf("collector did not run before snapshot: %+v", cv)
	}

	var nilReg *Registry
	if nilReg.Snapshot() != nil {
		t.Fatal("nil registry must return nil snapshot")
	}
}

func TestSpanRollupEdgeCases(t *testing.T) {
	clk := &fakeClock{}
	r := New()
	r.SetClock(clk)
	if got := r.SpanRollup(); len(got) != 0 {
		t.Fatalf("empty registry rollup = %v", got)
	}
	a := r.StartSpan("task", "mr", nil)
	clk.t = 2
	a.End()
	b := r.StartSpan("task", "mr", nil)
	clk.t = 5
	b.End()
	r.StartSpan("task", "mr", nil) // still open: excluded
	zz := r.StartSpan("aaa", "mr", nil)
	zz.End() // zero duration, still counted

	got := r.SpanRollup()
	if len(got) != 2 {
		t.Fatalf("rollup has %d names, want 2: %v", len(got), got)
	}
	if got[0].Name != "aaa" || got[1].Name != "task" {
		t.Fatalf("rollup must be name-sorted: %v", got)
	}
	task := got[1]
	if task.Count != 2 || task.Seconds != 5 {
		t.Fatalf("task stat = %+v, want count=2 seconds=5", task)
	}
}

// Seconds is the span's closed duration (0 while open).
func (s *SpanInfo) Seconds() float64 {
	if s.Open {
		return 0
	}
	return s.End - s.Start
}
