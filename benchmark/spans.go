package main

import (
	"strings"
	"time"
)

// span is one benchmark-side wall-clock interval around a call into the
// program. Spans are recorded from the benchmark's own files only; spans
// inside the program are a later change.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// SelfNS is the duration minus the part covered by child spans.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site. The
// simulator hands control between goroutines one at a time, so spans
// opened inside a simulated process nest like any other.
type tracer struct {
	workload string
	t0       time.Time
	iter     int
	spans    []span
	open     []int // stack of open span ids (index+1)
	topOpen  int   // id of the open top-level span, 0 when none
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), iter: -1}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// layerOf derives the layer from the span name: layer.<module>.<call>
// belongs to the module, the iteration's own phases to the package whose
// entry point they call.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "layer."):
		return strings.SplitN(name, ".", 3)[1]
	case name == "env.build":
		return "solutions"
	case strings.HasPrefix(name, "setup."):
		return "workloads"
	case strings.HasPrefix(name, "pipeline."):
		return "pipeline"
	}
	return "benchmark"
}

func (t *tracer) begin(name string, at int64) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layerOf(name),
		Workload: t.workload, Iter: t.iter, StartNS: at})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int, at int64) {
	t.spans[id-1].EndNS = at
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.begin(name, t.now())
	fn()
	t.end(id, t.now())
}

// top closes the open top-level span and opens the next one at the same
// instant, so the top-level spans tile the run's wall time. An empty
// name only closes.
func (t *tracer) top(name string) {
	if t == nil {
		return
	}
	at := t.now()
	if t.topOpen != 0 {
		t.end(t.topOpen, at)
		t.topOpen = 0
	}
	if name != "" {
		t.topOpen = t.begin(name, at)
	}
}

// setIter tags the spans that follow with an iteration index (-1 = none).
func (t *tracer) setIter(i int) {
	if t != nil {
		t.iter = i
	}
}

// durations returns the seconds of every closed span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// finish closes the last top-level span and fills in self times.
func (t *tracer) finish() []span {
	t.top("")
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			t.spans[s.Parent-1].SelfNS -= s.EndNS - s.StartNS
		}
	}
	return t.spans
}
