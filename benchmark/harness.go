package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"scidp/internal/obs"
)

// outcome is what one iteration of a workload reports back.
type outcome struct {
	// jct is the iteration's virtual job-completion time.
	jct float64
	// latencies holds the virtual latency of every completed job.
	latencies []float64
	// jobs counts the jobs that are operations of their own (what a tenant
	// replay submits); failedJobs of them were rejected or failed.
	jobs, failedJobs int
	// events is Kernel.EventsProcessed when the pipeline went quiescent.
	events uint64
	// digest is a sha256 over the iteration's outputs.
	digest string
	// problems lists failed output checks (empty = the iteration passed).
	problems []string
	// detail carries workload-specific extras for the traced run: the
	// tier's ioengine.TierStats, or a replay's *tenantDetail.
	detail any
}

// runOpts selects how an iteration runs.
type runOpts struct {
	// workers sizes the data-plane pool (EnvConfig.Workers semantics:
	// N workers, or -1 for the inline pool). Never 0.
	workers int
	// reg, when non-nil, is attached as the program's own obs registry.
	reg *obs.Registry
	// sp records benchmark-side wall-clock spans (nil = none).
	sp *tracer
	// m times the iteration; the workload stops it when the pipeline is
	// quiescent, before the benchmark's own output audit.
	m *meter
}

// workload is one named benchmark workload.
type workload interface {
	// setup makes the inputs from the seed and builds the first testbed.
	setup(seed int64, sp *tracer) error
	// inputs is how many distinct inputs iterations rotate over; the
	// virtual metrics are aggregated over exactly one rotation.
	inputs() int
	// iterate runs iteration i on a fresh testbed and audits its outputs.
	iterate(i int, o runOpts) (*outcome, error)
	// speedup runs the workload's reference configuration and returns
	// its virtual time over this configuration's, given one rotation.
	speedup(rotation []*outcome) (float64, error)
	// inputDigest identifies the generated inputs.
	inputDigest() string
	// layerMetrics fills in, during the traced run, the per-layer metrics
	// of the modules only this workload exercises; first is round 0's
	// untraced outcome.
	layerMetrics(l *layerRun, first *outcome)
	// defaultWorkers is the pool size the workload runs with.
	defaultWorkers() int
}

// sample is one iteration's host-side cost.
type sample struct {
	wall, cpu          float64
	mallocs, allocMB   float64
	gcCycles, gcPauseS float64
}

// meter measures one iteration: wall clock, process CPU and the Go
// runtime's allocation counters between start and stop.
type meter struct {
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
	s    sample
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is ru_maxrss (KiB on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// start and stop are no-ops on a nil meter (runs nobody times).
func (m *meter) start() {
	if m == nil {
		return
	}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	if m == nil {
		return
	}
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.s = sample{
		wall: wall, cpu: cpu,
		mallocs:  float64(ms.Mallocs - m.ms0.Mallocs),
		allocMB:  float64(ms.TotalAlloc-m.ms0.TotalAlloc) / 1e6,
		gcCycles: float64(ms.NumGC - m.ms0.NumGC),
		gcPauseS: float64(ms.PauseTotalNs-m.ms0.PauseTotalNs) / 1e9,
	}
}

// ---- order statistics

// quantile interpolates linearly between order statistics (q in [0,1]).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// dist summarises a timing over the iterations of one run.
type dist struct {
	N   int     `json:"n"`
	Q1  float64 `json:"q1"`
	P50 float64 `json:"p50"`
	Q3  float64 `json:"q3"`
}

func distOf(v []float64) dist {
	return dist{N: len(v), Q1: quantile(v, 0.25), P50: median(v), Q3: quantile(v, 0.75)}
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// ---- the measured loop

// loopResult is what a measured loop over one workload produced.
type loopResult struct {
	samples  []sample
	rotation []*outcome // the first pass over the workload's inputs
	// attempted/failed count operations: every iteration that must pass
	// its output check, plus every job a tenant replay submits.
	attempted, failed int
	problems          []string
}

// count books one iteration's operations; the iteration failed when any
// of its output checks, or any of the extra ones, did.
func (r *loopResult) count(i int, out *outcome, extra ...string) {
	r.attempted += 1 + out.jobs
	r.failed += out.failedJobs
	problems := append(out.problems, extra...)
	if len(problems) > 0 {
		r.failed++
	}
	for _, p := range problems {
		r.problems = append(r.problems, fmt.Sprintf("iteration %d: %s", i, p))
	}
}

// differs describes how out departs from the first run over the same
// input, or returns nothing when every deterministic figure agrees.
func differs(out, first *outcome) []string {
	if out.digest == first.digest && out.events == first.events &&
		math.Float64bits(out.jct) == math.Float64bits(first.jct) {
		return nil
	}
	return []string{fmt.Sprintf("differs from the first run on this input: digest %.12s/%.12s events %d/%d jct %v/%v",
		out.digest, first.digest, out.events, first.events, out.jct, first.jct)}
}

// collect makes every iteration start where a fresh process would: from
// a collected heap with empty sync.Pools (a pool survives one collection
// in its victim cache, hence two). Without it the collector's phase and
// the pools' contents carry over from the previous iteration, and bytes
// allocated per iteration and peak RSS differ by 10-20 % from run to run.
func collect() {
	runtime.GC()
	runtime.GC()
}

// measure runs warm-up iterations, then closed-loop iterations (the next
// starts when the previous ends) until budget seconds have passed and at
// least one full rotation over the workload's inputs is done.
func measure(w workload, warmups int, budget float64) (*loopResult, error) {
	for i := 0; i < warmups; i++ {
		if _, err := w.iterate(i, runOpts{workers: w.defaultWorkers()}); err != nil {
			return nil, fmt.Errorf("warm-up %d: %w", i, err)
		}
	}
	res := &loopResult{}
	minIters := max(w.inputs(), 3)
	start := time.Now()
	for i := 0; i < minIters || time.Since(start).Seconds() < budget; i++ {
		collect()
		m := &meter{}
		out, err := w.iterate(i, runOpts{workers: w.defaultWorkers(), m: m})
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		res.samples = append(res.samples, m.s)
		if i < w.inputs() {
			res.rotation = append(res.rotation, out)
			res.count(i, out)
		} else {
			res.count(i, out, differs(out, res.rotation[i%w.inputs()])...)
		}
	}
	return res, nil
}

// virtuals aggregates one rotation's virtual results.
type virtuals struct {
	jct, p50, p95, goodput float64
}

func aggregate(rotation []*outcome) virtuals {
	var v virtuals
	var lat []float64
	for _, o := range rotation {
		v.jct += o.jct
		lat = append(lat, o.latencies...)
	}
	if v.jct > 0 {
		v.goodput = float64(len(lat)) / v.jct * 1000
	}
	v.jct /= float64(len(rotation))
	v.p50 = median(lat)
	v.p95 = quantile(lat, 0.95)
	return v
}
