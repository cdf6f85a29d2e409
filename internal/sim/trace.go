package sim

import (
	"fmt"
	"slices"
	"strings"

	"scidp/internal/obs"
)

// TraceEvent is one recorded kernel occurrence.
type TraceEvent struct {
	// At is the virtual time of the event.
	At float64
	// Kind is the event type ("flow-start", "flow-end", "sleep",
	// "proc-start", "proc-end").
	Kind string
	// Proc is the originating process name ("" for kernel-internal).
	Proc string
	// Resources names the resources a flow crosses.
	Resources []string
	// Bytes is the flow size (flows only).
	Bytes float64
	// Flow is the kernel-unique flow id (flows only); it pairs a
	// flow-start with its flow-end and cross-references the flow's obs
	// span, which carries the same id in its "flow" arg.
	Flow uint64
}

// Tracer records kernel activity when attached via Kernel.SetTracer —
// an observability hook for debugging simulations and asserting on
// resource usage in tests. The zero value is ready to use.
//
// When MaxEvents is positive the tracer keeps the most recent MaxEvents
// events in a fixed ring buffer, so a bounded tracer has bounded memory
// (the old trim re-sliced the buffer, pinning every dropped prefix's
// backing array).
type Tracer struct {
	// MaxEvents bounds the buffer (0 = unlimited); older events are
	// dropped first. Set it before recording begins; changing it later
	// rebuilds the ring on the next record.
	MaxEvents int

	buf  []TraceEvent
	head int // index of the oldest event when bounded
	n    int
}

func (t *Tracer) record(ev TraceEvent) {
	if t.MaxEvents <= 0 {
		t.buf = append(t.buf, ev)
		t.head = 0
		t.n = len(t.buf)
		return
	}
	if len(t.buf) != t.MaxEvents {
		// MaxEvents changed (or first record): rebuild a right-sized
		// ring holding the most recent events.
		evs := t.Events()
		if len(evs) > t.MaxEvents {
			evs = evs[len(evs)-t.MaxEvents:]
		}
		t.buf = make([]TraceEvent, t.MaxEvents)
		t.head = 0
		t.n = copy(t.buf, evs)
	}
	if t.n < t.MaxEvents {
		t.buf[(t.head+t.n)%t.MaxEvents] = ev
		t.n++
		return
	}
	t.buf[t.head] = ev
	t.head = (t.head + 1) % t.MaxEvents
}

// Events returns the buffered events in occurrence order (a copy; the
// tracer may keep recording).
func (t *Tracer) Events() []TraceEvent {
	out := make([]TraceEvent, 0, t.n)
	t.each(func(ev TraceEvent) { out = append(out, ev) })
	return out
}

// each visits buffered events oldest-first without copying.
func (t *Tracer) each(fn func(TraceEvent)) {
	if t.head == 0 {
		for _, ev := range t.buf[:t.n] {
			fn(ev)
		}
		return
	}
	for i := 0; i < t.n; i++ {
		fn(t.buf[(t.head+i)%len(t.buf)])
	}
}

// String renders the trace, one event per line.
func (t *Tracer) String() string {
	var sb strings.Builder
	t.each(func(ev TraceEvent) {
		fmt.Fprintf(&sb, "%10.4f %-10s %-24s", ev.At, ev.Kind, ev.Proc)
		if len(ev.Resources) > 0 {
			fmt.Fprintf(&sb, " %s", strings.Join(ev.Resources, "+"))
		}
		if ev.Bytes > 0 {
			fmt.Fprintf(&sb, " %.0fB", ev.Bytes)
		}
		sb.WriteByte('\n')
	})
	return sb.String()
}

// ExportResourceMetrics derives per-resource utilization counters from
// the buffered flow events and accumulates them into reg:
//
//	sim/resource_bytes_total{res=...}   bytes moved through the resource
//	sim/resource_flows_total{res=...}   flows that crossed it
//	sim/resource_busy_seconds{res=...}  virtual time with >=1 active flow
//
// Busy time is measured between each resource's flow-start/flow-end
// pairs (matched by Flow id); a still-open flow at the end of the
// buffer contributes up to the last buffered event's timestamp. Call it
// after Kernel.Run with an unbounded tracer for exact totals — a
// bounded tracer yields totals for the retained window only.
func (t *Tracer) ExportResourceMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	type agg struct {
		bytes   float64
		flows   float64
		busy    float64
		active  int
		peak    int
		sinceAt float64
	}
	aggs := map[string]*agg{}
	var last float64
	t.each(func(ev TraceEvent) {
		last = ev.At
		for _, r := range ev.Resources {
			a := aggs[r]
			if a == nil {
				a = &agg{}
				aggs[r] = a
			}
			switch ev.Kind {
			case "flow-start":
				a.flows++
				if a.active == 0 {
					a.sinceAt = ev.At
				}
				a.active++
				if a.active > a.peak {
					a.peak = a.active
				}
			case "flow-end":
				a.bytes += ev.Bytes
				if a.active > 0 {
					a.active--
					if a.active == 0 {
						a.busy += ev.At - a.sinceAt
					}
				}
			}
		}
	})
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		a := aggs[n]
		if a.active > 0 { // flows still open when the buffer ended
			a.busy += last - a.sinceAt
		}
		reg.Counter("sim/resource_bytes_total", obs.L("res", n)).Add(a.bytes)
		reg.Counter("sim/resource_flows_total", obs.L("res", n)).Add(a.flows)
		reg.Counter("sim/resource_busy_seconds", obs.L("res", n)).Add(a.busy)
		// Peak concurrent flows is the queue-depth signal bottleneck
		// ranking wants; a gauge so re-export keeps the maximum rather
		// than accumulating.
		g := reg.Gauge("sim/resource_peak_flows", obs.L("res", n))
		if float64(a.peak) > g.Value() {
			g.Set(float64(a.peak))
		}
	}
}

// SetTracer attaches (or detaches, with nil) a tracer to the kernel.
func (k *Kernel) SetTracer(t *Tracer) { k.tracer = t }

// traceFlowStart records a flow beginning (no-op without a tracer).
func (k *Kernel) traceFlowStart(f *Flow, proc string) {
	if k.tracer == nil {
		return
	}
	k.tracer.record(TraceEvent{At: k.now, Kind: "flow-start", Proc: proc, Resources: resourceNames(f.res), Bytes: f.total, Flow: f.id})
}

// traceFlowEnd records a flow completing.
func (k *Kernel) traceFlowEnd(f *Flow) {
	if k.tracer == nil {
		return
	}
	k.tracer.record(TraceEvent{At: k.now, Kind: "flow-end", Resources: resourceNames(f.res), Bytes: f.total, Flow: f.id})
}

func resourceNames(res []*Resource) []string {
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = r.Name
	}
	return out
}
