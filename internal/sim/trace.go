package sim

import (
	"slices"

	"scidp/internal/obs"
)

// TraceEvent is one recorded kernel occurrence.
type TraceEvent struct {
	// At is the virtual time of the event.
	At float64
	// Kind is the event type: "flow-start" or "flow-end".
	Kind string
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
// resource usage in tests. The zero value is ready to use; it keeps every
// event.
type Tracer struct {
	events []TraceEvent
}

func (t *Tracer) record(ev TraceEvent) { t.events = append(t.events, ev) }

// ExportResourceMetrics derives per-resource utilization counters from
// the recorded flow events and accumulates them into reg:
//
//	sim/resource_bytes_total{res=...}   bytes moved through the resource
//	sim/resource_flows_total{res=...}   flows that crossed it
//	sim/resource_busy_seconds{res=...}  virtual time with >=1 active flow
//
// Busy time is measured between each resource's flow-start/flow-end
// pairs (matched by Flow id); a still-open flow at the end of the trace
// contributes up to the last event's timestamp. Call it after Kernel.Run.
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
	for _, ev := range t.events {
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
	}
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		a := aggs[n]
		if a.active > 0 { // flows still open when the trace ended
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
func (k *Kernel) traceFlowStart(f *Flow) {
	if k.tracer == nil {
		return
	}
	k.tracer.record(TraceEvent{At: k.now, Kind: "flow-start", Resources: resourceNames(f.res), Bytes: f.total, Flow: f.id})
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
