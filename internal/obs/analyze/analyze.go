// Package analyze is the post-run performance-analysis plane: a
// deterministic engine that reads a finished run's span tree and metric
// registry (internal/obs) and answers "where did the time go?" —
//
//   - the weighted critical path of each job (the longest virtual-time
//     chain through job→phase→task→reader→pfs→flow spans) and which
//     spans on it dominate;
//   - every task attempt's wall time attributed into buckets
//     (scheduling wait, input I/O, compute, shuffle, fault recovery),
//     summed per phase and per job;
//   - resources ranked by busy time / bytes / peak concurrency, and the
//     bottleneck resource per phase;
//   - straggler detection via per-phase task-duration percentiles
//     (p50/p90/p99) and IQR outliers.
//
// Everything here is a pure function of the registry contents: given
// byte-identical exports (the determinism contract the simulator
// upholds for a fixed seed, at any ComputePool worker count), Analyze
// produces byte-identical reports. No wall-clock, no map-iteration
// order, no randomness.
package analyze

import (
	"cmp"
	"slices"
	"strings"

	"scidp/internal/obs"
)

// Bucket names used throughout attribution and critical-path output.
const (
	BucketSched    = "sched"
	BucketIO       = "io"
	BucketCompute  = "compute"
	BucketShuffle  = "shuffle"
	BucketRecovery = "recovery"
	BucketOther    = "other"
)

// Attribution splits a quantity of time (seconds) across the five
// accounting buckets plus a remainder.
type Attribution struct {
	Sched    float64 `json:"sched_seconds"`
	IO       float64 `json:"io_seconds"`
	Compute  float64 `json:"compute_seconds"`
	Shuffle  float64 `json:"shuffle_seconds"`
	Recovery float64 `json:"recovery_seconds"`
	Other    float64 `json:"other_seconds"`
}

// Total sums every bucket.
func (a *Attribution) Total() float64 {
	return a.Sched + a.IO + a.Compute + a.Shuffle + a.Recovery + a.Other
}

func (a *Attribution) add(bucket string, s float64) {
	switch bucket {
	case BucketSched:
		a.Sched += s
	case BucketIO:
		a.IO += s
	case BucketCompute:
		a.Compute += s
	case BucketShuffle:
		a.Shuffle += s
	case BucketRecovery:
		a.Recovery += s
	default:
		a.Other += s
	}
}

func (a *Attribution) addAll(b Attribution) {
	a.Sched += b.Sched
	a.IO += b.IO
	a.Compute += b.Compute
	a.Shuffle += b.Shuffle
	a.Recovery += b.Recovery
	a.Other += b.Other
}

// Percentiles summarizes a sample of task durations with exact order
// statistics (no interpolation: p(q) is the smallest sample ≥ a q
// fraction of the sorted set, so every reported value is an observed
// duration).
type Percentiles struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Straggler is one task-duration outlier (Tukey IQR rule within its
// phase).
type Straggler struct {
	Task    string  `json:"task"`
	Node    string  `json:"node"`
	Seconds float64 `json:"seconds"`
	// XMedian is the duration as a multiple of the phase median (0 when
	// the median is 0).
	XMedian float64 `json:"x_median"`
}

// PathSegment is one hop of a job's critical path, in chronological
// order; segments tile [job.Start, job.End] exactly.
type PathSegment struct {
	Span    string  `json:"span"`
	Cat     string  `json:"cat"`
	Bucket  string  `json:"bucket"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Seconds float64 `json:"seconds"`
}

// PathContrib aggregates a span name's total residence on the critical
// path.
type PathContrib struct {
	Span    string  `json:"span"`
	Seconds float64 `json:"seconds"`
	// Share is Seconds over the job's span (0 when the job is empty).
	Share float64 `json:"share"`
}

// CriticalPath is the longest virtual-time chain through one job's span
// tree.
type CriticalPath struct {
	Segments []PathSegment `json:"segments"`
	// Dominant ranks span names by residence time, descending (top
	// maxDominant).
	Dominant []PathContrib `json:"dominant"`
	// Buckets attributes the whole path into accounting buckets; its
	// Total equals the job duration.
	Buckets Attribution `json:"buckets"`
}

// maxDominant bounds the Dominant ranking; maxStragglers bounds each
// phase's straggler list. Both keep reports readable on huge runs.
const (
	maxDominant   = 12
	maxStragglers = 16
)

// PhaseReport accounts for one phase of a job.
type PhaseReport struct {
	Name    string  `json:"name"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Seconds float64 `json:"seconds"`
	// Tasks counts distinct task labels; Attempts counts attempt spans
	// (≥ Tasks under retry/speculation).
	Tasks     int `json:"tasks"`
	Attempts  int `json:"attempts"`
	Failed    int `json:"failed"`
	Discarded int `json:"discarded"`
	// Buckets sums attributed task-seconds (not wall seconds: parallel
	// tasks each contribute their own time).
	Buckets     Attribution `json:"buckets"`
	TaskSeconds Percentiles `json:"task_seconds"`
	Stragglers  []Straggler `json:"stragglers,omitempty"`
	// Bottleneck names the resource with the most busy time inside the
	// phase window ("" when the phase moved no flows).
	Bottleneck string `json:"bottleneck,omitempty"`
	// BottleneckBusy is that resource's busy seconds within the phase.
	BottleneckBusy float64 `json:"bottleneck_busy_seconds,omitempty"`
}

// JobReport accounts for one job span.
type JobReport struct {
	// Process is the obs process the job ran under; Name is the job name.
	Process      string        `json:"process"`
	Name         string        `json:"name"`
	Start        float64       `json:"start"`
	End          float64       `json:"end"`
	Seconds      float64       `json:"seconds"`
	Phases       []PhaseReport `json:"phases"`
	Buckets      Attribution   `json:"buckets"`
	CriticalPath CriticalPath  `json:"critical_path"`
}

// ResourceUse is one simulated resource's whole-run utilization, from
// the sim/resource_* counters sim.Tracer.ExportResourceMetrics exports; a
// registry they were never exported into has no resource table.
type ResourceUse struct {
	Name        string  `json:"name"`
	BusySeconds float64 `json:"busy_seconds"`
	Bytes       float64 `json:"bytes"`
	Flows       float64 `json:"flows"`
	PeakFlows   float64 `json:"peak_flows,omitempty"`
	// QueueDepthMax is the peak request queue depth observed for OST
	// resources (joined from the pfs/ost_queue_depth gauge timeline).
	QueueDepthMax float64 `json:"queue_depth_max,omitempty"`
}

// CacheTierLevel is one cache-tier level's share of tier-arbitrated
// reads, joined from the ioengine/tier_* and cache_hit_ratio series.
type CacheTierLevel struct {
	// Level is "local", "peer", or "ost".
	Level string  `json:"level"`
	Reads float64 `json:"reads"`
	Bytes float64 `json:"bytes"`
	// HitRatio is this level's share of all tier-arbitrated reads (the
	// three levels sum to 1).
	HitRatio float64 `json:"hit_ratio"`
}

// CacheTierReport summarizes the cooperative burst-buffer tier: where
// reads were served (node-local buffer, a peer's buffer over the
// network, or the OST fallback) plus the admission/eviction churn and
// resident footprint at export time.
type CacheTierReport struct {
	// Levels holds local, peer, ost in that fixed order.
	Levels          []CacheTierLevel `json:"levels"`
	Admits          float64          `json:"admits"`
	Evictions       float64          `json:"evictions"`
	ResidentBytes   float64          `json:"resident_bytes"`
	ResidentEntries float64          `json:"resident_entries"`
}

// Report is the full analysis of one registry.
type Report struct {
	Jobs []JobReport `json:"jobs"`
	// Resources ranks every simulated resource by busy time, descending.
	Resources []ResourceUse `json:"resources"`
	// CacheTier summarizes the ioengine cooperative cache when a tier
	// was attached and served at least one read; nil otherwise.
	CacheTier *CacheTierReport `json:"cache_tier,omitempty"`
	// SpansDropped echoes the registry's span-buffer overflow count; a
	// nonzero value means the analysis below is partial.
	SpansDropped int `json:"spans_dropped,omitempty"`
}

// node is one span with its children resolved.
type node struct {
	s        obs.SpanInfo
	children []*node
	// byEnd caches children sorted ascending by (End, Start, ID) for the
	// critical-path walk; built lazily.
	byEnd []*node
}

func (n *node) seconds() float64 { return n.s.End - n.s.Start }

// Analyze runs the full engine over a registry. Safe on nil (returns an
// empty report).
func Analyze(r *obs.Registry) *Report {
	// Non-nil slices so an empty analysis marshals as [] rather than
	// null — downstream tooling iterates without a nil check.
	rep := &Report{Jobs: []JobReport{}, Resources: []ResourceUse{}}
	if r == nil {
		return rep
	}
	rep.SpansDropped = int(r.Dropped())

	spans := r.Spans()
	byID := make(map[uint64]*node, len(spans))
	nodes := make([]*node, 0, len(spans))
	for i := range spans {
		n := &node{s: spans[i]}
		byID[n.s.ID] = n
		nodes = append(nodes, n)
	}
	// Spans() is id (creation) order, so children lists are born sorted
	// by id and the whole build is deterministic.
	for _, n := range nodes {
		if p := byID[n.s.Parent]; n.s.Parent != 0 && p != nil {
			p.children = append(p.children, n)
		}
	}

	for _, n := range nodes {
		if n.s.Cat == "mapreduce" && strings.HasPrefix(n.s.Name, "job:") && !n.s.Open {
			rep.Jobs = append(rep.Jobs, analyzeJob(n))
		}
	}
	snap := r.Snapshot()
	rep.Resources = resourceTable(snap)
	rep.CacheTier = cacheTierTable(snap)
	return rep
}

// ---- Per-job analysis.

func analyzeJob(job *node) JobReport {
	jr := JobReport{
		Process: job.s.Process,
		Name:    strings.TrimPrefix(job.s.Name, "job:"),
		Start:   job.s.Start,
		End:     job.s.End,
		Seconds: job.seconds(),
	}
	for _, c := range job.children {
		if c.s.Cat == "mapreduce" && strings.HasPrefix(c.s.Name, "phase:") && !c.s.Open {
			pr := analyzePhase(c)
			jr.Buckets.addAll(pr.Buckets)
			jr.Phases = append(jr.Phases, pr)
		}
	}
	jr.CriticalPath = criticalPath(job)
	return jr
}

// attempt is one task-attempt span, decoded.
type attempt struct {
	n         *node
	label     string
	nodeName  string
	spec      bool
	failed    bool
	discarded bool
	startup   float64
	wait      float64 // scheduling wait before launch, filled by analyzePhase
	io        float64
	shuffle   float64
	compute   float64
}

func analyzePhase(phase *node) PhaseReport {
	pr := PhaseReport{
		Name:    strings.TrimPrefix(phase.s.Name, "phase:"),
		Start:   phase.s.Start,
		End:     phase.s.End,
		Seconds: phase.seconds(),
	}

	byLabel := map[string][]*attempt{}
	labels := []string{}
	for _, c := range phase.children {
		if c.s.Cat != "mapreduce" || !strings.HasPrefix(c.s.Name, "task:") || c.s.Open {
			continue
		}
		a := decodeAttempt(c)
		if byLabel[a.label] == nil {
			labels = append(labels, a.label)
		}
		byLabel[a.label] = append(byLabel[a.label], a)
	}
	pr.Tasks = len(labels)

	var durations []float64
	var finished []timed
	for _, label := range labels {
		atts := byLabel[label]
		// Launch order = creation order (already sorted by span id);
		// scheduling wait chains off the phase start for the first
		// attempt and off the previous attempt's end for retries.
		// Speculative backups run concurrently with their original, so
		// they charge no wait.
		prevEnd := phase.s.Start
		for _, a := range atts {
			if !a.spec {
				a.wait = max(0, a.n.s.Start-prevEnd)
				prevEnd = a.n.s.End
			}
			pr.Attempts++
			wall := a.n.seconds()
			if a.failed || a.discarded {
				// A failed or thrown-away attempt contributed nothing to
				// the job: every second it held (including the wait to
				// launch it) is the price of fault recovery.
				if a.failed {
					pr.Failed++
				} else {
					pr.Discarded++
				}
				pr.Buckets.add(BucketRecovery, a.wait+wall)
				continue
			}
			pr.Buckets.add(BucketSched, a.wait+a.startup)
			pr.Buckets.add(BucketIO, a.io)
			pr.Buckets.add(BucketShuffle, a.shuffle)
			pr.Buckets.add(BucketCompute, a.compute)
			durations = append(durations, wall)
			finished = append(finished, timed{task: a.label, node: a.nodeName, seconds: wall})
		}
	}

	pr.TaskSeconds = percentiles(durations)
	pr.Stragglers = stragglers(durations, finished)
	pr.Bottleneck, pr.BottleneckBusy = phaseBottleneck(phase)
	return pr
}

func decodeAttempt(c *node) *attempt {
	a := &attempt{n: c, label: strings.TrimPrefix(c.s.Name, "task:")}
	a.nodeName = c.s.ArgString("node")
	a.spec = c.s.ArgBool("speculative")
	a.failed = c.s.ArgBool("failed")
	a.discarded = c.s.ArgBool("discarded")
	a.startup, _ = c.s.ArgFloat("startup")

	// I/O time is the union of the attempt's maximal reader/filesystem
	// descendant intervals (core wraps pfs wraps stripe flows; counting
	// only the outermost of each chain avoids double-charging the nested
	// time). Raw flows parented directly on the task span are the task
	// body's own transfers: shuffle fetches for reducers, output
	// pipeline writes otherwise.
	var ioIvs, shIvs []interval
	reduce := strings.HasPrefix(a.label, "reduce-")
	for _, ch := range c.children {
		switch {
		case ch.s.Cat == "core" || ch.s.Cat == "pfs":
			ioIvs = append(ioIvs, interval{ch.s.Start, ch.s.End})
		case ch.s.Name == "flow":
			if reduce {
				shIvs = append(shIvs, interval{ch.s.Start, ch.s.End})
			} else {
				ioIvs = append(ioIvs, interval{ch.s.Start, ch.s.End})
			}
		}
	}
	wall := c.seconds()
	a.io = unionSeconds(clip(ioIvs, c.s.Start, c.s.End))
	a.shuffle = unionSeconds(clip(shIvs, c.s.Start, c.s.End))
	if a.startup > wall {
		a.startup = wall
	}
	a.compute = max(0, wall-a.startup-a.io-a.shuffle)
	return a
}

// ---- Percentiles and stragglers.

// percentiles computes exact order statistics; q is resolved as the
// sample at index ceil(q·n)-1 of the ascending sort.
func percentiles(ds []float64) Percentiles {
	p := Percentiles{Count: len(ds)}
	if len(ds) == 0 {
		return p
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	var sum float64
	for _, d := range sorted {
		sum += d
	}
	p.Mean = sum / float64(len(sorted))
	p.P50 = quantile(sorted, 0.50)
	p.P90 = quantile(sorted, 0.90)
	p.P99 = quantile(sorted, 0.99)
	p.Max = sorted[len(sorted)-1]
	return p
}

// quantile indexes an ascending sample set: the smallest element such
// that at least a q fraction of samples are ≤ it. Same convention as
// the speculation threshold in internal/mapreduce.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// timed is one successful attempt's identity and duration, the
// straggler candidates.
type timed struct {
	task, node string
	seconds    float64
}

func stragglers(durations []float64, finished []timed) []Straggler {
	if len(durations) < 4 {
		return nil // quartiles of a tiny sample flag noise, not stragglers
	}
	sorted := slices.Clone(durations)
	slices.Sort(sorted)
	q1 := quantile(sorted, 0.25)
	q3 := quantile(sorted, 0.75)
	cut := q3 + 1.5*(q3-q1)
	med := quantile(sorted, 0.50)
	var out []Straggler
	for _, f := range finished {
		if f.seconds > cut {
			s := Straggler{Task: f.task, Node: f.node, Seconds: f.seconds}
			if med > 0 {
				s.XMedian = f.seconds / med
			}
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b Straggler) int {
		if c := cmp.Compare(b.Seconds, a.Seconds); c != 0 {
			return c
		}
		return strings.Compare(a.Task, b.Task)
	})
	if len(out) > maxStragglers {
		out = out[:maxStragglers]
	}
	return out
}

// ---- Interval arithmetic.

type interval struct{ lo, hi float64 }

func clip(ivs []interval, lo, hi float64) []interval {
	out := ivs[:0]
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			out = append(out, iv)
		}
	}
	return out
}

// unionSeconds measures the union of the intervals — overlapping
// parallel transfers count once.
func unionSeconds(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	slices.SortFunc(ivs, func(a, b interval) int {
		if c := cmp.Compare(a.lo, b.lo); c != 0 {
			return c
		}
		return cmp.Compare(a.hi, b.hi)
	})
	var total float64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + (cur.hi - cur.lo)
}

// ---- Phase bottleneck.

// phaseBottleneck unions each resource's flow intervals within the
// phase window and names the busiest (ties break by name).
func phaseBottleneck(phase *node) (string, float64) {
	perRes := map[string][]interval{}
	var visit func(n *node)
	visit = func(n *node) {
		for _, c := range n.children {
			if c.s.Name == "flow" && !c.s.Open {
				for _, res := range strings.Split(c.s.ArgString("res"), "+") {
					if res != "" {
						perRes[res] = append(perRes[res], interval{c.s.Start, c.s.End})
					}
				}
			}
			visit(c)
		}
	}
	visit(phase)

	best, bestBusy := "", 0.0
	names := make([]string, 0, len(perRes))
	for res := range perRes {
		names = append(names, res)
	}
	slices.Sort(names)
	for _, res := range names {
		busy := unionSeconds(clip(perRes[res], phase.s.Start, phase.s.End))
		if busy > bestBusy {
			best, bestBusy = res, busy
		}
	}
	return best, bestBusy
}

// ---- Critical path.

// criticalPath walks the job tree backwards from the job end: at every
// step the path descends into the child span whose end reaches closest
// to the current frontier, charges the uncovered gap to the parent
// itself, and continues from the child's start. The result tiles
// [job.Start, job.End] exactly with the chain of spans that gated
// completion — the virtual-time longest path.
func criticalPath(job *node) CriticalPath {
	cp := CriticalPath{}
	var segs []PathSegment // built latest-first, reversed at the end

	push := func(n *node, bucket string, lo, hi float64) {
		if hi > lo {
			segs = append(segs, PathSegment{Span: n.s.Name, Cat: n.s.Cat, Bucket: bucket, Start: lo, End: hi, Seconds: hi - lo})
		}
	}
	emit := func(n *node, lo, hi float64, task *taskCtx) {
		if hi <= lo {
			return
		}
		bucket := classify(n, task)
		if bucket == BucketCompute && task != nil && task.launchEnd > lo {
			// Split the task's own residence at the end of its startup
			// charge: launch cost is scheduling, the rest is compute.
			// (Segments build latest-first, so compute precedes sched.)
			launchEnd := min(hi, task.launchEnd)
			push(n, BucketCompute, launchEnd, hi)
			push(n, BucketSched, lo, launchEnd)
			return
		}
		push(n, bucket, lo, hi)
	}

	var walk func(n *node, lo, hi float64, task *taskCtx)
	walk = func(n *node, lo, hi float64, task *taskCtx) {
		if hi <= lo {
			return
		}
		if n.s.Cat == "mapreduce" && strings.HasPrefix(n.s.Name, "task:") {
			startup, _ := n.s.ArgFloat("startup")
			task = &taskCtx{
				reduce:    strings.HasPrefix(strings.TrimPrefix(n.s.Name, "task:"), "reduce-"),
				failed:    n.s.ArgBool("failed") || n.s.ArgBool("discarded"),
				launchEnd: n.s.Start + startup,
			}
		}
		if n.byEnd == nil {
			kids := make([]*node, 0, len(n.children))
			for _, c := range n.children {
				if !c.s.Open {
					kids = append(kids, c)
				}
			}
			slices.SortFunc(kids, func(a, b *node) int {
				if c := cmp.Compare(a.s.End, b.s.End); c != 0 {
					return c
				}
				if c := cmp.Compare(a.s.Start, b.s.Start); c != 0 {
					return c
				}
				return cmp.Compare(a.s.ID, b.s.ID)
			})
			n.byEnd = kids
		}
		frontier := hi
		i := len(n.byEnd) - 1
		for frontier > lo {
			for i >= 0 && n.byEnd[i].s.End > frontier {
				i--
			}
			// Skip children that end at or before lo, or that cover no
			// time: the parent owns that stretch.
			for i >= 0 && (n.byEnd[i].s.End <= lo || n.byEnd[i].s.End <= n.byEnd[i].s.Start) {
				i--
			}
			if i < 0 {
				emit(n, lo, frontier, task)
				return
			}
			c := n.byEnd[i]
			emit(n, c.s.End, frontier, task) // gap the parent itself spent
			childLo := max(lo, c.s.Start)
			walk(c, childLo, c.s.End, task)
			frontier = childLo
			i--
		}
	}
	walk(job, job.s.Start, job.s.End, nil)

	slices.Reverse(segs)
	total := job.seconds()
	contrib := map[string]float64{}
	order := []string{}
	for _, s := range segs {
		if _, ok := contrib[s.Span]; !ok {
			order = append(order, s.Span)
		}
		contrib[s.Span] += s.Seconds
		cp.Buckets.add(s.Bucket, s.Seconds)
	}
	for _, name := range order {
		pc := PathContrib{Span: name, Seconds: contrib[name]}
		if total > 0 {
			pc.Share = pc.Seconds / total
		}
		cp.Dominant = append(cp.Dominant, pc)
	}
	slices.SortFunc(cp.Dominant, func(a, b PathContrib) int {
		if c := cmp.Compare(b.Seconds, a.Seconds); c != 0 {
			return c
		}
		return strings.Compare(a.Span, b.Span)
	})
	if len(cp.Dominant) > maxDominant {
		cp.Dominant = cp.Dominant[:maxDominant]
	}
	cp.Segments = segs
	return cp
}

// taskCtx carries the enclosing task attempt's facts down the walk so
// descendant flows classify correctly.
type taskCtx struct {
	reduce    bool
	failed    bool
	launchEnd float64
}

// classify maps a span to its accounting bucket given the enclosing
// task (nil above the task level).
func classify(n *node, task *taskCtx) string {
	if task != nil && task.failed {
		return BucketRecovery
	}
	switch n.s.Cat {
	case "core", "pfs":
		return BucketIO
	case "chaos":
		return BucketRecovery
	case "mapreduce":
		switch {
		case strings.HasPrefix(n.s.Name, "task:"):
			return BucketCompute
		case strings.HasPrefix(n.s.Name, "phase:"):
			return BucketSched // the phase's own residence is scheduling/stitching
		default:
			return BucketOther
		}
	}
	if n.s.Name == "flow" {
		if task != nil && task.reduce {
			return BucketShuffle
		}
		return BucketIO
	}
	return BucketOther
}

// ---- Resource table.

// resourceTable ranks resources by busy time, read from the
// sim/resource_* counters (exact whole-run totals exported by
// sim.Tracer.ExportResourceMetrics). OST queue depth peaks join in from
// the pfs gauge timelines.
func resourceTable(snap []obs.SeriesInfo) []ResourceUse {
	byName := map[string]*ResourceUse{}
	get := func(name string) *ResourceUse {
		u := byName[name]
		if u == nil {
			u = &ResourceUse{Name: name}
			byName[name] = u
		}
		return u
	}

	for i := range snap {
		s := &snap[i]
		res := s.Label("res")
		switch s.Name {
		case "sim/resource_busy_seconds":
			get(res).BusySeconds = s.Value
		case "sim/resource_bytes_total":
			get(res).Bytes = s.Value
		case "sim/resource_flows_total":
			get(res).Flows = s.Value
		case "sim/resource_peak_flows":
			get(res).PeakFlows = s.Value
		}
	}

	// Join OST queue-depth peaks: pfs labels OSTs "ost-N", the kernel
	// resource is "pfs/ost-N".
	for i := range snap {
		s := &snap[i]
		if s.Name != "pfs/ost_queue_depth" {
			continue
		}
		peak := s.Value
		for _, sm := range s.Samples {
			if sm.V > peak {
				peak = sm.V
			}
		}
		if u := byName["pfs/"+s.Label("ost")]; u != nil && peak > u.QueueDepthMax {
			u.QueueDepthMax = peak
		}
	}

	out := make([]ResourceUse, 0, len(byName))
	for _, u := range byName {
		out = append(out, *u)
	}
	slices.SortFunc(out, func(a, b ResourceUse) int {
		if c := cmp.Compare(b.BusySeconds, a.BusySeconds); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// ---- Cache-tier table.

// cacheTierTable joins the ioengine/tier_* counters and the derived
// cache_hit_ratio gauges into a per-level summary. Returns nil when no
// tier was registered or the tier never arbitrated a read — a report
// without a cache section means the cache played no part in the run.
func cacheTierTable(snap []obs.SeriesInfo) *CacheTierReport {
	byLevel := map[string]*CacheTierLevel{}
	ct := &CacheTierReport{}
	seen := false
	for _, s := range snap {
		level := func() *CacheTierLevel {
			l := s.Label("level")
			e := byLevel[l]
			if e == nil {
				e = &CacheTierLevel{Level: l}
				byLevel[l] = e
			}
			return e
		}
		switch s.Name {
		case "ioengine/tier_reads_total":
			level().Reads = s.Value
			seen = true
		case "ioengine/tier_bytes_total":
			level().Bytes = s.Value
		case "ioengine/cache_hit_ratio":
			level().HitRatio = s.Value
		case "ioengine/tier_admits_total":
			ct.Admits = s.Value
		case "ioengine/tier_evictions_total":
			ct.Evictions = s.Value
		case "ioengine/tier_resident_bytes":
			ct.ResidentBytes = s.Value
		case "ioengine/tier_resident_entries":
			ct.ResidentEntries = s.Value
		}
	}
	total := 0.0
	for _, e := range byLevel {
		total += e.Reads
	}
	if !seen || total == 0 {
		return nil
	}
	// Fixed order so the JSON is byte-stable regardless of map walks.
	for _, l := range []string{"local", "peer", "ost"} {
		if e := byLevel[l]; e != nil {
			ct.Levels = append(ct.Levels, *e)
		}
	}
	return ct
}
