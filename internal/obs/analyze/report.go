package analyze

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON renders the report as indented JSON. Output is byte-identical
// for identical reports: encoding/json renders struct fields in
// declaration order, every slice is deterministically sorted by the
// engine, and all values are finite (the engine never divides by an
// unguarded zero).
func (rep *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// WriteText renders the human report.
func (rep *Report) WriteText(w io.Writer) error {
	tw := &errWriter{w: w}
	p := func(format string, args ...any) { tw.printf(format, args...) }

	if rep.SpansDropped > 0 {
		p("WARNING: %d spans dropped (buffer overflow) — analysis is partial\n\n", rep.SpansDropped)
	}
	if len(rep.Jobs) == 0 {
		p("no jobs recorded (nothing ran under a job span)\n")
	}
	for i := range rep.Jobs {
		rep.Jobs[i].writeText(p)
	}

	if len(rep.Resources) > 0 {
		p("resources by busy time:\n")
		p("  %-18s %10s %12s %8s %6s %7s\n", "resource", "busy(s)", "bytes", "flows", "peak", "queue")
		for i := range rep.Resources {
			u := &rep.Resources[i]
			p("  %-18s %10.3f %12.0f %8.0f %6.0f %7.0f\n",
				u.Name, u.BusySeconds, u.Bytes, u.Flows, u.PeakFlows, u.QueueDepthMax)
		}
	}

	if ct := rep.CacheTier; ct != nil {
		p("\ncache tier (reads by serving level):\n")
		p("  %-6s %10s %14s %8s\n", "level", "reads", "bytes", "ratio")
		for i := range ct.Levels {
			l := &ct.Levels[i]
			p("  %-6s %10.0f %14.0f %7.1f%%\n", l.Level, l.Reads, l.Bytes, l.HitRatio*100)
		}
		p("  admits %.0f, evictions %.0f, resident %.0f B in %.0f entries\n",
			ct.Admits, ct.Evictions, ct.ResidentBytes, ct.ResidentEntries)
	}
	return tw.err
}

func (jr *JobReport) writeText(p func(string, ...any)) {
	p("job %s (process %s): %.3fs  [%.3f → %.3f]\n", jr.Name, jr.Process, jr.Seconds, jr.Start, jr.End)

	p("  attribution (task-seconds):\n")
	writeBuckets(p, "    ", &jr.Buckets)

	for i := range jr.Phases {
		ph := &jr.Phases[i]
		p("  phase %s: %.3fs, %d tasks / %d attempts", ph.Name, ph.Seconds, ph.Tasks, ph.Attempts)
		if ph.Failed > 0 || ph.Discarded > 0 {
			p(" (%d failed, %d discarded)", ph.Failed, ph.Discarded)
		}
		p("\n")
		ts := &ph.TaskSeconds
		if ts.Count > 0 {
			p("    task seconds: n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
				ts.Count, ts.Mean, ts.P50, ts.P90, ts.P99, ts.Max)
		}
		writeBuckets(p, "    ", &ph.Buckets)
		if ph.Bottleneck != "" {
			p("    bottleneck: %s (%.3fs busy in phase)\n", ph.Bottleneck, ph.BottleneckBusy)
		}
		for _, s := range ph.Stragglers {
			p("    straggler: %s on %s: %.3fs (%.1f× median)\n", s.Task, s.Node, s.Seconds, s.XMedian)
		}
	}

	cp := &jr.CriticalPath
	p("  critical path: %d segments, buckets:\n", len(cp.Segments))
	writeBuckets(p, "    ", &cp.Buckets)
	if len(cp.Dominant) > 0 {
		p("  dominant critical-path spans:\n")
		for _, d := range cp.Dominant {
			p("    %6.1f%% %10.3fs  %s\n", d.Share*100, d.Seconds, d.Span)
		}
	}
	p("\n")
}

func writeBuckets(p func(string, ...any), indent string, a *Attribution) {
	total := a.Total()
	row := func(name string, v float64) {
		if v == 0 {
			return
		}
		share := 0.0
		if total > 0 {
			share = v / total * 100
		}
		p("%s%-9s %10.3fs %6.1f%%\n", indent, name, v, share)
	}
	row(BucketSched, a.Sched)
	row(BucketIO, a.IO)
	row(BucketCompute, a.Compute)
	row(BucketShuffle, a.Shuffle)
	row(BucketRecovery, a.Recovery)
	row(BucketOther, a.Other)
}

// errWriter latches the first write error so render code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}
