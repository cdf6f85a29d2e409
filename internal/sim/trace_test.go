package sim

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"scidp/internal/obs"
)

// Events, String, BytesThrough and Busiest are what the tests ask of a
// trace; no product code does.

// Events returns the recorded events in occurrence order (a copy; the
// tracer may keep recording).
func (t *Tracer) Events() []TraceEvent { return slices.Clone(t.events) }

// String renders the trace, one event per line.
func (t *Tracer) String() string {
	var sb strings.Builder
	for _, ev := range t.events {
		fmt.Fprintf(&sb, "%10.4f %-10s", ev.At, ev.Kind)
		if len(ev.Resources) > 0 {
			fmt.Fprintf(&sb, " %s", strings.Join(ev.Resources, "+"))
		}
		if ev.Bytes > 0 {
			fmt.Fprintf(&sb, " %.0fB", ev.Bytes)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// BytesThrough totals flow bytes that crossed the named resource.
func (t *Tracer) BytesThrough(resource string) float64 {
	var sum float64
	for _, ev := range t.events {
		if ev.Kind == "flow-end" && slices.Contains(ev.Resources, resource) {
			sum += ev.Bytes
		}
	}
	return sum
}

// Busiest returns resources ordered by total bytes moved, descending;
// ties break by name ascending.
func (t *Tracer) Busiest() []string {
	totals := map[string]float64{}
	for _, ev := range t.events {
		if ev.Kind != "flow-end" {
			continue
		}
		for _, r := range ev.Resources {
			totals[r] += ev.Bytes
		}
	}
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
