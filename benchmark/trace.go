package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"scidp/internal/obs"
	"scidp/internal/obs/analyze"
)

// tracedRounds is how many rounds of iterations the traced run makes;
// each round runs the same input untraced, traced and with the inline
// pool. Five, because on this host one iteration in ten takes twice as
// long as its neighbours, and a median of five shrugs off two of those.
const tracedRounds = 5

// runTraced is the traced run: it attaches the program's own obs
// registry to some iterations, wraps every call the benchmark makes into
// a layer in a benchmark-side wall-clock span, and returns every
// per-layer metric. It writes spans.json, the virtual-time Chrome trace,
// the analysis report and a CPU profile to dir. End-to-end metrics never
// come from here.
func runTraced(info workloadInfo, sz sizes, seed int64, dir string) (*result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := info.make(sz)
	sp := newTracer(info.Name)
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.Name] = 0
	}

	sp.top("run.setup")
	if err := w.setup(seed, sp); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	vals["workloads.generate_s"] = median(sp.durations("setup.generate"))

	sp.top("run.warmup")
	if _, err := w.iterate(0, runOpts{workers: w.defaultWorkers(), sp: sp}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	sp.top("run.iterations")
	rounds, err := threeWays(w, sp)
	if err != nil {
		return nil, err
	}
	wallOf := func(s []sample) float64 { return median(column(s, func(s sample) float64 { return s.wall })) }
	vals["obs.overhead_ratio"] = wallOf(rounds.traced) / wallOf(rounds.plain)
	vals["sim.pool_speedup"] = wallOf(rounds.inline) / wallOf(rounds.plain)
	vals["sim.pool_cpu_ratio"] = median(column(rounds.plain, func(s sample) float64 { return s.cpu / s.wall }))
	vals["runtime.gc_cycles_per_iter"] = median(column(rounds.plain, func(s sample) float64 { return s.gcCycles }))
	vals["runtime.gc_pause_ms_per_iter"] = median(column(rounds.plain, func(s sample) float64 { return s.gcPauseS * 1e3 }))
	vals["solutions.newenv_wall_ms"] = median(sp.durations("env.build")) * 1e3
	vals["workloads.install_wall_ms"] = median(sp.durations("setup.install")) * 1e3
	first := rounds.loop.rotation[0]
	vals["sim.events"] = float64(first.events)

	// The CPU profile covers untraced iterations only.
	sp.top("run.profile")
	if err := profile(filepath.Join(dir, "cpu.pprof"), func() error {
		for i := 0; i < 2; i++ {
			if _, err := w.iterate(0, runOpts{workers: w.defaultWorkers(), sp: sp}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	sp.top("run.layers")
	l := &layerRun{sp: sp, vals: vals, sz: sz, iterWall: wallOf(rounds.plain),
		iterCPU: median(column(rounds.traced, func(s sample) float64 { return s.cpu }))}
	l.simLayer()
	l.hdfsLayer()
	l.shuffleLayer()
	w.layerMetrics(l, first)
	if l.err != nil {
		return nil, fmt.Errorf("layers: %w", l.err)
	}

	sp.top("run.report")
	report := registryMetrics(rounds.reg, vals, sp)
	if err := writeArtifacts(dir, rounds.reg, report); err != nil {
		return nil, err
	}
	res := newResult(info.Name, true, w, rounds.loop, tracedRounds)
	if err := res.fill(perLayer, vals); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), map[string]any{
		"workload": info.Name, "seed": seed, "spans": sp.finish(), "counters": res.Metrics,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// roundsResult is what the traced run's rounds produced.
type roundsResult struct {
	loop                  *loopResult
	plain, traced, inline []sample
	// reg is round 0's registry: the program's counters and spans for one
	// iteration over input 0.
	reg *obs.Registry
}

// threeWays runs each round's input three ways: with the workload's own
// pool, the same with the program's obs registry attached, and with the
// inline pool. All three must agree on outputs, event count and virtual
// time: neither tracing nor the worker count may change them.
func threeWays(w workload, sp *tracer) (*roundsResult, error) {
	res := &roundsResult{loop: &loopResult{}}
	for r := 0; r < tracedRounds; r++ {
		sp.setIter(r)
		reg := obs.New()
		if r == 0 {
			res.reg = reg
		}
		ways := []struct {
			opts runOpts
			into *[]sample
		}{
			{runOpts{workers: w.defaultWorkers()}, &res.plain},
			{runOpts{workers: w.defaultWorkers(), reg: reg}, &res.traced},
			{runOpts{workers: -1}, &res.inline},
		}
		var first *outcome
		for i, way := range ways {
			collect()
			m := &meter{}
			way.opts.sp, way.opts.m = sp, m
			out, err := w.iterate(r, way.opts)
			if err != nil {
				return nil, fmt.Errorf("round %d way %d: %w", r, i, err)
			}
			*way.into = append(*way.into, m.s)
			if i == 0 {
				first = out
				res.loop.rotation = append(res.loop.rotation, out)
				res.loop.count(r, out)
			} else {
				res.loop.count(r, out, differs(out, first)...)
			}
		}
	}
	sp.setIter(-1)
	return res, nil
}

// registryMetrics reads the program's own counters and analysis plane
// off one traced iteration's registry. Counters are per iteration and
// exact.
func registryMetrics(reg *obs.Registry, vals map[string]float64, sp *tracer) *analyze.Report {
	snap := reg.Snapshot()
	for metric, series := range map[string]string{
		"sim.compute_tasks":       "sim/compute_tasks_total",
		"pfs.ost_read_bytes":      "pfs/ost_read_bytes_total",
		"pfs.ost_requests":        "pfs/ost_requests_total",
		"pfs.mds_ops":             "pfs/mds_ops_total",
		"hdfs.namenode_ops":       "hdfs/namenode_ops_total",
		"hdfs.read_bytes":         "hdfs/read_bytes_total",
		"hdfs.write_bytes":        "hdfs/write_bytes_total",
		"ioengine.chunk_reads":    "ioengine/chunk_reads_total",
		"mapreduce.task_attempts": "mr/task_attempts_total",
		"mapreduce.shuffle_bytes": "mr/shuffle_bytes_total",
	} {
		// A series has one counter per label set (per OST, per phase).
		for _, s := range snap {
			if s.Name == series && s.Kind == "counter" {
				vals[metric] += s.Value
			}
		}
	}
	vals["obs.spans"] = float64(reg.SpanCount())
	vals["obs.spans_dropped"] = float64(reg.Dropped())
	var report *analyze.Report
	start := time.Now()
	sp.do("layer.obs.analyze.Analyze", func() { report = analyze.Analyze(reg) })
	vals["obs.analyze_wall_ms"] = time.Since(start).Seconds() * 1e3
	for _, job := range report.Jobs {
		b := job.CriticalPath.Buckets
		vals["mapreduce.sched_virtual_s"] += b.Sched
		vals["mapreduce.io_virtual_s"] += b.IO
		vals["mapreduce.compute_virtual_s"] += b.Compute
		vals["mapreduce.shuffle_virtual_s"] += b.Shuffle
	}
	for _, res := range report.Resources {
		if strings.HasPrefix(res.Name, "pfs/ost-") && res.BusySeconds > vals["pfs.ost_busy_virtual_s_max"] {
			vals["pfs.ost_busy_virtual_s_max"] = res.BusySeconds
		}
	}
	return report
}

func profile(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	return runErr
}

func writeArtifacts(dir string, reg *obs.Registry, report *analyze.Report) error {
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := reg.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := report.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "analysis.json"), data, 0o644)
}
