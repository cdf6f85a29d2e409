package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

func TestSeriesCanonicalization(t *testing.T) {
	r := New()
	a := r.Counter("pfs/ost_bytes_total", L("res", "ost-0"), L("kind", "read"))
	b := r.Counter("pfs/ost_bytes_total", L("kind", "read"), L("res", "ost-0"))
	if a != b {
		t.Fatal("label order should not create a distinct series")
	}
	a.Add(5)
	if got := b.Value(); got != 5 {
		t.Fatalf("shared series value = %v, want 5", got)
	}
	if c := r.Counter("pfs/ost_bytes_total", L("res", "ost-1"), L("kind", "read")); c == a {
		t.Fatal("distinct label values must be distinct series")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.Counter("x/y")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering x/y as gauge after counter")
		}
	}()
	r.Gauge("x/y")
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a/b")
	g := r.Gauge("a/c")
	h := r.Histogram("a/d", []float64{1})
	s := r.StartSpan("x", "y", nil)
	c.Add(1)
	c.Inc()
	g.Set(2)
	g.Add(1)
	h.Observe(3)
	s.Arg("k", "v")
	s.SetTrack("t")
	s.End()
	if c != nil || g != nil || h != nil || s != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || s.ID() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	r.SetClock(&fakeClock{})
	r.SetProcess("p")
	r.AddCollector(func() {})
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top map[string]any
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("nil-registry trace is not valid JSON: %v", err)
	}
}

func TestGaugeTimelineAndRing(t *testing.T) {
	clk := &fakeClock{}
	r := New()
	r.SetClock(clk)
	r.gaugeSampleCap = 4
	g := r.Gauge("x/depth")
	for i := 0; i < 6; i++ {
		clk.t = float64(i)
		g.Set(float64(i * 10))
	}
	if g.Value() != 50 {
		t.Fatalf("current = %v, want 50", g.Value())
	}
	got := g.Samples()
	if len(got) != 4 {
		t.Fatalf("ring kept %d samples, want 4", len(got))
	}
	for i, s := range got {
		wantAt := float64(i + 2)
		if s.At != wantAt || s.V != wantAt*10 {
			t.Fatalf("sample %d = %+v, want {%v %v}", i, s, wantAt, wantAt*10)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("x/lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 556.5 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	want := []uint64{2, 1, 1, 1} // le=1 gets 0.5 and exactly-1.0
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, h.counts[i], w, h.counts)
		}
	}
}

func TestSpanTreeAndMaxSpans(t *testing.T) {
	clk := &fakeClock{}
	r := New()
	r.SetClock(clk)
	r.SetProcess("run-a")
	r.SetMaxSpans(2)
	root := r.StartSpan("job", "mr", nil)
	root.SetTrack("driver")
	clk.t = 1
	child := r.StartSpan("task", "mr", root)
	if child.parent != root.ID() {
		t.Fatalf("child parent = %d, want %d", child.parent, root.ID())
	}
	if child.process != "run-a" || child.track != "driver" {
		t.Fatalf("child should inherit process/track, got %q/%q", child.process, child.track)
	}
	if s := r.StartSpan("overflow", "", root); s != nil {
		t.Fatal("span over MaxSpans must be dropped")
	}
	if r.Dropped() != 1 || r.SpanCount() != 2 {
		t.Fatalf("dropped=%d count=%d", r.Dropped(), r.SpanCount())
	}
	clk.t = 2
	child.End()
	clk.t = 3
	child.End() // second End keeps first timestamp
	if child.end != 2 || child.open {
		t.Fatalf("end=%v open=%v", child.end, child.open)
	}
}

// buildExportRegistry assembles a registry exercising every feature, for
// the exporter tests.
func buildExportRegistry() *Registry {
	clk := &fakeClock{}
	r := New()
	r.SetClock(clk)
	r.SetProcess("runA")
	r.Counter("pfs/ost_bytes_total", L("res", "ost-1")).Add(4096)
	r.Counter("pfs/ost_bytes_total", L("res", "ost-0")).Add(8192)
	h := r.Histogram("mr/task_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(99)
	g := r.Gauge("pfs/ost_queue_depth", L("res", "ost-0"))
	job := r.StartSpan("job", "mr", nil)
	job.SetTrack("driver")
	clk.t = 1
	g.Set(3)
	task := r.StartSpan("task", "mr", job)
	task.SetTrack("node-0/slot-0")
	task.Arg("split", "t0")
	clk.t = 2
	task.End()
	clk.t = 4
	g.Set(0)
	job.End()
	r.AddCollector(func() { r.Gauge("cache/hit_ratio").Set(0.75) })
	return r
}

func TestPrometheusExport(t *testing.T) {
	var buf bytes.Buffer
	if err := buildExportRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pfs_ost_bytes_total counter",
		`pfs_ost_bytes_total{res="ost-0"} 8192`,
		`pfs_ost_bytes_total{res="ost-1"} 4096`,
		"# TYPE mr_task_seconds histogram",
		`mr_task_seconds_bucket{le="1"} 1`,
		`mr_task_seconds_bucket{le="+Inf"} 2`,
		"mr_task_seconds_sum 99.5",
		"mr_task_seconds_count 2",
		"cache_hit_ratio 0.75", // collector ran
		`pfs_ost_queue_depth{res="ost-0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "cache_hit_ratio") > strings.Index(out, "mr_task_seconds") {
		t.Fatal("families must be sorted by name")
	}
}

func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	if err := buildExportRegistry().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var xNames, threadNames []string
	counterEvents := 0
	for _, ev := range top.TraceEvents {
		switch ev["ph"] {
		case "X":
			xNames = append(xNames, ev["name"].(string))
		case "C":
			counterEvents++
		case "M":
			if ev["name"] == "thread_name" {
				threadNames = append(threadNames, ev["args"].(map[string]any)["name"].(string))
			}
		}
	}
	for _, want := range []string{"job", "task"} {
		found := false
		for _, n := range xNames {
			found = found || n == want
		}
		if !found {
			t.Fatalf("trace missing X event %q (have %v)", want, xNames)
		}
	}
	for _, want := range []string{"driver", "node-0/slot-0"} {
		found := false
		for _, n := range threadNames {
			found = found || n == want
		}
		if !found {
			t.Fatalf("trace missing thread row %q (have %v)", want, threadNames)
		}
	}
	if counterEvents == 0 {
		t.Fatal("gauge samples should emit counter events")
	}
}

func TestExportsDeterministic(t *testing.T) {
	var t1, t2, p1, p2 bytes.Buffer
	r1, r2 := buildExportRegistry(), buildExportRegistry()
	if err := r1.WriteChromeTrace(&t1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteChromeTrace(&t2); err != nil {
		t.Fatal(err)
	}
	if err := r1.WritePrometheus(&p1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WritePrometheus(&p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("chrome traces differ between identical runs")
	}
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Fatal("prometheus dumps differ between identical runs")
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// SetMaxSpans adjusts the span-buffer bound (0 = unlimited).
func (r *Registry) SetMaxSpans(n int) {
	if r == nil {
		return
	}
	r.maxSpans = n
}

// ID reports the span's registry-unique id (0 on nil), usable for
// cross-referencing from other event streams.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}
