package sim

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"scidp/internal/obs"
)

// BytesThrough and Busiest are what the tests below ask of a trace; no
// product code does.

// BytesThrough totals flow bytes that crossed the named resource.
func (t *Tracer) BytesThrough(resource string) float64 {
	var sum float64
	t.each(func(ev TraceEvent) {
		if ev.Kind != "flow-end" {
			return
		}
		for _, r := range ev.Resources {
			if r == resource {
				sum += ev.Bytes
				break
			}
		}
	})
	return sum
}

// Busiest returns resources ordered by total bytes moved, descending;
// ties break by name ascending.
func (t *Tracer) Busiest() []string {
	totals := map[string]float64{}
	t.each(func(ev TraceEvent) {
		if ev.Kind != "flow-end" {
			return
		}
		for _, r := range ev.Resources {
			totals[r] += ev.Bytes
		}
	})
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	slices.SortFunc(names, func(a, b string) int {
		if totals[a] != totals[b] {
			if totals[a] > totals[b] {
				return -1
			}
			return 1
		}
		return strings.Compare(a, b)
	})
	return names
}

// fill records n synthetic flow-end events with increasing timestamps.
func fill(t *Tracer, n int, from int) {
	for i := 0; i < n; i++ {
		t.record(TraceEvent{At: float64(from + i), Kind: "flow-end", Resources: []string{"r"}, Bytes: 1, Flow: uint64(from + i)})
	}
}

func TestTracerBoundedDropsOldest(t *testing.T) {
	tr := &Tracer{MaxEvents: 3}
	fill(tr, 5, 0)
	evs := tr.Events()
	if len(evs) != 3 || tr.Len() != 3 {
		t.Fatalf("len = %d/%d, want 3", len(evs), tr.Len())
	}
	for i, ev := range evs {
		if want := uint64(i + 2); ev.Flow != want {
			t.Fatalf("event %d has flow %d, want %d (oldest must drop first)", i, ev.Flow, want)
		}
	}
	if cap(tr.buf) != 3 {
		t.Fatalf("ring capacity = %d, want exactly MaxEvents", cap(tr.buf))
	}
}

func TestTracerMaxEventsChangedMidStream(t *testing.T) {
	tr := &Tracer{} // unbounded first
	fill(tr, 6, 0)
	tr.MaxEvents = 2
	fill(tr, 1, 6)
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Flow != 5 || evs[1].Flow != 6 {
		t.Fatalf("after shrink: %+v, want flows 5,6", evs)
	}
}

func TestTracerBoundedDropsAffectAggregates(t *testing.T) {
	tr := &Tracer{MaxEvents: 2}
	tr.record(TraceEvent{At: 0, Kind: "flow-end", Resources: []string{"a"}, Bytes: 100})
	tr.record(TraceEvent{At: 1, Kind: "flow-end", Resources: []string{"b"}, Bytes: 10})
	tr.record(TraceEvent{At: 2, Kind: "flow-end", Resources: []string{"b"}, Bytes: 10})
	// The 100-byte event through "a" fell out of the ring.
	if got := tr.BytesThrough("a"); got != 0 {
		t.Fatalf("a = %v, want 0 after drop", got)
	}
	if got := tr.BytesThrough("b"); got != 20 {
		t.Fatalf("b = %v, want 20", got)
	}
	if busiest := tr.Busiest(); len(busiest) != 1 || busiest[0] != "b" {
		t.Fatalf("busiest = %v, want [b]", busiest)
	}
}

func TestBusiestTieBreaksByName(t *testing.T) {
	tr := &Tracer{}
	tr.record(TraceEvent{Kind: "flow-end", Resources: []string{"zeta"}, Bytes: 50})
	tr.record(TraceEvent{Kind: "flow-end", Resources: []string{"alpha"}, Bytes: 50})
	tr.record(TraceEvent{Kind: "flow-end", Resources: []string{"mid"}, Bytes: 70})
	got := tr.Busiest()
	want := []string{"mid", "alpha", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("busiest = %v, want %v", got, want)
		}
	}
}

func TestBytesThroughIgnoresStartsAndOtherResources(t *testing.T) {
	tr := &Tracer{}
	tr.record(TraceEvent{Kind: "flow-start", Resources: []string{"a"}, Bytes: 100})
	tr.record(TraceEvent{Kind: "flow-end", Resources: []string{"a", "b"}, Bytes: 40})
	if got := tr.BytesThrough("a"); got != 40 {
		t.Fatalf("a = %v, want 40 (flow-start must not count)", got)
	}
	if got := tr.BytesThrough("missing"); got != 0 {
		t.Fatalf("missing = %v, want 0", got)
	}
}

func TestZeroByteFlowsPairStartAndEnd(t *testing.T) {
	k := NewKernel()
	tr := &Tracer{}
	k.SetTracer(tr)
	disk := NewResource("disk", 100)
	k.Go("p", func(p *Proc) { p.Transfer(0, disk) })
	k.Run()
	starts, ends := 0, 0
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case "flow-start":
			starts++
		case "flow-end":
			ends++
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("starts=%d ends=%d, want 1/1", starts, ends)
	}
}

func TestFlowEventsCarryMatchingIDs(t *testing.T) {
	k := NewKernel()
	tr := &Tracer{}
	k.SetTracer(tr)
	disk := NewResource("disk", 100)
	k.Go("p", func(p *Proc) { p.Transfer(100, disk) })
	k.Run()
	var startID, endID uint64
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case "flow-start":
			startID = ev.Flow
		case "flow-end":
			endID = ev.Flow
		}
	}
	if startID == 0 || startID != endID {
		t.Fatalf("flow ids start=%d end=%d, want equal and nonzero", startID, endID)
	}
}

func TestExportResourceMetrics(t *testing.T) {
	k := NewKernel()
	tr := &Tracer{}
	k.SetTracer(tr)
	disk := NewResource("disk", 100)
	k.Go("p", func(p *Proc) {
		p.Transfer(100, disk) // 1s busy
		p.Sleep(1)            // idle gap must not count
		p.Transfer(100, disk) // 1s busy
	})
	k.Run()
	reg := obs.New()
	tr.ExportResourceMetrics(reg)
	if got := reg.Counter("sim/resource_bytes_total", obs.L("res", "disk")).Value(); got != 200 {
		t.Fatalf("bytes = %v, want 200", got)
	}
	if got := reg.Counter("sim/resource_flows_total", obs.L("res", "disk")).Value(); got != 2 {
		t.Fatalf("flows = %v, want 2", got)
	}
	if got := reg.Counter("sim/resource_busy_seconds", obs.L("res", "disk")).Value(); !almostEqual(got, 2) {
		t.Fatalf("busy = %v, want 2", got)
	}
	// The two transfers never overlap, so peak concurrency is 1.
	if got := reg.Gauge("sim/resource_peak_flows", obs.L("res", "disk")).Value(); got != 1 {
		t.Fatalf("peak = %v, want 1", got)
	}
}

func TestExportResourceMetricsPeakFlows(t *testing.T) {
	k := NewKernel()
	tr := &Tracer{}
	k.SetTracer(tr)
	disk := NewResource("disk", 100)
	for i := 0; i < 3; i++ {
		k.Go("p", func(p *Proc) { p.Transfer(100, disk) })
	}
	k.Run()
	reg := obs.New()
	tr.ExportResourceMetrics(reg)
	if got := reg.Gauge("sim/resource_peak_flows", obs.L("res", "disk")).Value(); got != 3 {
		t.Fatalf("peak = %v, want 3 concurrent flows", got)
	}
	// Re-export keeps the max instead of accumulating.
	tr.ExportResourceMetrics(reg)
	if got := reg.Gauge("sim/resource_peak_flows", obs.L("res", "disk")).Value(); got != 3 {
		t.Fatalf("peak after re-export = %v, want 3", got)
	}
}

func TestFlowSpansNestUnderProcSpan(t *testing.T) {
	k := NewKernel()
	reg := obs.New()
	k.SetObs(reg)
	disk := NewResource("disk", 100)
	nic := NewResource("nic", 1000)
	k.Go("p", func(p *Proc) {
		root := reg.StartSpan("task", "test", nil)
		prev := p.SetSpan(root)
		p.Transfer(100, disk)
		p.TransferAll(Part{Bytes: 50, Res: []*Resource{disk, nic}}, Part{Bytes: 50, Res: []*Resource{nic}})
		p.SetSpan(prev)
		root.End()
	})
	k.Run()
	// task + 3 flow spans
	if got := reg.SpanCount(); got != 4 {
		t.Fatalf("span count = %d, want 4", got)
	}
	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"flow"`)) {
		t.Fatal("trace missing flow spans")
	}
}

func TestNoSpansWithoutProcSpan(t *testing.T) {
	k := NewKernel()
	reg := obs.New()
	k.SetObs(reg)
	disk := NewResource("disk", 100)
	k.Go("p", func(p *Proc) { p.Transfer(100, disk) })
	k.Run()
	if got := reg.SpanCount(); got != 0 {
		t.Fatalf("span count = %d, want 0 (no parent span set)", got)
	}
}

// Len reports how many events are buffered.
func (t *Tracer) Len() int { return t.n }
