// Command scidpctl demonstrates SciDP's control path end to end on a
// simulated testbed: it generates (or accepts) a NU-WRF dataset, installs
// it on the simulated PFS, runs the File Explorer and Data Mapper, and
// prints the virtual HDFS namespace with every dummy block's PFS mapping —
// the Virtual Mapping Table a NameNode would hold.
//
// Usage:
//
//	scidpctl [-timestamps n] [-vars QR,VAR01] [-rows n] [-blocksize n] [-local dir] [-v]
//	scidpctl -chaos plan.json [-timestamps n] [-v]
//	scidpctl analyze [-chaos plan.json] [-timestamps n] [-workers n] [-cache bytes] [-json file] [-v]
//
// With -local, files are read from a local directory (produced by ncgen)
// instead of being generated. -v attaches the observability registry and
// appends a per-phase timing table plus the component metrics the run
// produced (MDS/NameNode op counts, per-OST traffic, ...).
//
// With -chaos, scidpctl instead runs the full SciDP processing pipeline
// on a recovery-enabled testbed (replication, task retry, speculation,
// PFS read retry) under the fault plan in the given JSON file, and
// reports the job outcome together with the injected-fault and recovery
// counters. The plan format is internal/chaos's Plan: a PRNG seed plus
// rules ({"kind": "dn-crash", "at": 30, "target": 1}, ...).
//
// The analyze subcommand runs the same pipeline (optionally under a
// chaos plan, optionally on a ComputePool with -workers) and then runs
// the post-run performance analysis (internal/obs/analyze) over the
// recorded span tree and metrics: per-job critical path, per-phase time
// attribution (sched/io/compute/shuffle/recovery), bottleneck resources,
// and straggler detection. -cache attaches a cooperative cache tier
// (cost-aware eviction, that many bytes per node) and adds a per-level
// cache_tier section — where reads were served: node-local buffer,
// peer buffer, or OST — to the report and, with -v, a "== cache
// tier ==" table. -json writes the machine-readable report;
// "-" replaces the text report with pure JSON on stdout (pipe into jq).
// The report is byte-identical across same-seed runs at any worker
// count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scidp/internal/bench"
	"scidp/internal/chaos"
	"scidp/internal/core"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/obs"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/workloads"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		runAnalyze(os.Args[2:])
		return
	}
	timestamps := flag.Int("timestamps", 2, "generated timestamps (ignored with -local)")
	varsFlag := flag.String("vars", "", "comma-separated variable subset (empty = all)")
	rows := flag.Int("rows", 0, "rows per dummy block (0 = chunk-aligned)")
	blocksize := flag.Int64("blocksize", 0, "dummy-block size for flat files in bytes (0 = HDFS block size)")
	local := flag.String("local", "", "load files from this directory instead of generating")
	chaosPath := flag.String("chaos", "", "run the SciDP pipeline under this fault plan (JSON) instead of printing the mapping")
	verbose := flag.Bool("v", false, "print per-phase timings and component metrics after the mapping")
	flag.Parse()

	if *chaosPath != "" {
		runChaos(*chaosPath, *timestamps, *verbose)
		return
	}

	cfg := solutions.DefaultEnvConfig(1, 1)
	if *verbose {
		cfg.Obs = obs.New()
		cfg.Obs.SetProcess("scidpctl")
	}
	env := solutions.NewEnv(cfg)
	dir := "/nuwrf"
	if *local != "" {
		entries, err := os.ReadDir(*local)
		if err != nil {
			fail(err)
		}
		n := 0
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(*local, e.Name()))
			if err != nil {
				fail(err)
			}
			env.PFS.Put(dir+"/"+e.Name(), data)
			n++
		}
		if n == 0 {
			fail(fmt.Errorf("no files in %s", *local))
		}
	} else {
		spec := workloads.NUWRFSpec{Timestamps: *timestamps, Levels: 10, Lat: 40, Lon: 40, Vars: 5, Dir: dir}
		if _, err := workloads.Generate(env.PFS, spec); err != nil {
			fail(err)
		}
	}

	opts := core.MapOptions{RowsPerBlock: *rows, FlatBlockSize: *blocksize}
	if *varsFlag != "" {
		opts.Vars = strings.Split(*varsFlag, ",")
	}

	var mapping *core.Mapping
	var mapErr error
	var elapsed float64
	env.K.Go("scidpctl", func(p *sim.Proc) {
		m := core.NewMapper(env.HDFS, env.Registry, "/scidp")
		sp := cfg.Obs.StartSpan("map:"+dir, "ctl", nil)
		p.SetSpan(sp)
		start := p.Now()
		mapping, mapErr = m.MapPath(p, env.Mount(env.BD.Node(0)), dir, opts)
		elapsed = p.Now() - start
		p.SetSpan(nil)
		sp.End()
	})
	env.K.Run()
	env.ExportSimMetrics()
	if mapErr != nil {
		fail(mapErr)
	}

	fmt.Printf("mapped %s -> %s in %.3f virtual seconds\n\n", dir, mapping.Root, elapsed)
	for _, mf := range mapping.Files {
		if mf.Flat != nil {
			fmt.Printf("%s  [flat]\n", mf.HDFSPath)
			printBlocks(mf.Flat)
			continue
		}
		fmt.Printf("%s  [%s]\n", mf.HDFSPath, mf.Format)
		for _, v := range mf.Vars {
			fmt.Printf("  %s\n", v.HDFSPath)
			printBlocks(v.INode)
		}
	}
	fmt.Printf("\nvirtual files: %d, HDFS bytes stored: %d (dummy blocks hold no data)\n",
		len(mapping.VirtualPaths()), env.HDFS.TotalUsed())

	if *verbose {
		fmt.Printf("\n== phases (virtual seconds) ==\n")
		fmt.Printf("%-24s %8s %12s\n", "phase", "count", "seconds")
		for _, st := range cfg.Obs.SpanRollup() {
			fmt.Printf("%-24s %8d %12.6f\n", st.Name, st.Count, st.Seconds)
		}
		fmt.Printf("\n== component metrics ==\n")
		if err := cfg.Obs.WritePrometheus(os.Stdout); err != nil {
			fail(err)
		}
	}
}

// runAnalyze executes the canonical pipeline (optionally under a chaos
// plan) and prints the post-run performance analysis.
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("scidpctl analyze", flag.ExitOnError)
	timestamps := fs.Int("timestamps", 4, "generated timestamps")
	chaosPath := fs.String("chaos", "", "fault plan (JSON) to run the pipeline under")
	workers := fs.Int("workers", 0, "data-plane ComputePool workers (0 = inline; output is byte-identical at every count)")
	cacheBytes := fs.Int64("cache", 0, "attach a cooperative cache tier with this many bytes per node (0 = no tier)")
	jsonPath := fs.String("json", "", "write the analysis as JSON to this file (\"-\" = pure JSON on stdout, no text report)")
	verbose := fs.Bool("v", false, "append the full component metrics dump")
	if err := fs.Parse(args); err != nil {
		fail(err)
	}
	var plan *chaos.Plan
	if *chaosPath != "" {
		data, err := os.ReadFile(*chaosPath)
		if err != nil {
			fail(err)
		}
		if plan, err = chaos.ParsePlan(data); err != nil {
			fail(fmt.Errorf("%s: %w", *chaosPath, err))
		}
	}
	if *timestamps < 1 {
		*timestamps = 1
	}

	tier := ioengine.TierConfig{NodeBytes: *cacheBytes, Policy: ioengine.PolicyCost}
	rep, solRep, reg, err := bench.AnalyzeRun(bench.QuickScale(), *timestamps, plan, *workers, "scidpctl-analyze", tier)
	if err != nil {
		fail(err)
	}
	// -json - takes over stdout: emit pure JSON so the output pipes
	// straight into jq or a dashboard without the text report in front.
	if *jsonPath != "-" {
		if plan != nil {
			fmt.Printf("plan %s: seed %d, %d rule(s)\n", *chaosPath, plan.Seed, len(plan.Rules))
		}
		fmt.Printf("%s\n\n", solRep.Summary())
		if err := rep.WriteText(os.Stdout); err != nil {
			fail(err)
		}
	}
	if *jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fail(err)
		}
	}
	if *verbose {
		printCacheTier(reg)
		fmt.Printf("\n== component metrics ==\n")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fail(err)
		}
	}
}

// printCacheTier prints the per-level cooperative-cache breakdown when
// the registry holds ioengine tier series — i.e. a cache tier was
// attached and arbitrated at least one read. Silent otherwise.
func printCacheTier(reg *obs.Registry) {
	type lvl struct{ reads, bytes, ratio float64 }
	levels := map[string]*lvl{}
	get := func(name string) *lvl {
		e := levels[name]
		if e == nil {
			e = &lvl{}
			levels[name] = e
		}
		return e
	}
	total := 0.0
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "ioengine/tier_reads_total":
			get(s.Label("level")).reads = s.Value
			total += s.Value
		case "ioengine/tier_bytes_total":
			get(s.Label("level")).bytes = s.Value
		case "ioengine/cache_hit_ratio":
			get(s.Label("level")).ratio = s.Value
		}
	}
	if total == 0 {
		return
	}
	fmt.Printf("\n== cache tier ==\n")
	fmt.Printf("%-6s %10s %14s %8s\n", "level", "reads", "bytes", "ratio")
	for _, name := range []string{"local", "peer", "ost"} {
		if e := levels[name]; e != nil {
			fmt.Printf("%-6s %10.0f %14.0f %7.1f%%\n", name, e.reads, e.bytes, e.ratio*100)
		}
	}
}

// runChaos executes the SciDP processing pipeline under a fault plan on
// the recovery-enabled faults testbed and prints the outcome plus the
// chaos/recovery counters.
func runChaos(path string, timestamps int, verbose bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	plan, err := chaos.ParsePlan(data)
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	if timestamps < 1 {
		timestamps = 1
	}
	s := bench.QuickScale()
	cfg := bench.FaultsEnvConfig(s)
	reg := obs.New()
	reg.SetProcess("scidpctl-chaos")
	cfg.Obs = reg
	cfg.Chaos = plan
	env := solutions.NewEnv(cfg)
	ds, err := workloads.Generate(env.PFS, s.Spec(timestamps))
	if err != nil {
		fail(err)
	}
	wl := &solutions.Workload{Dataset: ds, Var: "QR"}
	var rep *solutions.Report
	var runErr error
	env.K.Go("driver", func(p *sim.Proc) {
		rep, runErr = solutions.RunSciDP(p, env, wl)
	})
	env.K.Run()
	env.ExportSimMetrics()
	fmt.Printf("plan %s: seed %d, %d rule(s); %d timestamps on 4 nodes x 2 slots\n",
		path, plan.Seed, len(plan.Rules), timestamps)
	if runErr != nil {
		fail(fmt.Errorf("job failed under the plan: %w", runErr))
	}
	fmt.Println(rep.Summary())

	fmt.Printf("\n== chaos & recovery counters ==\n")
	sum := func(name, key string, vals ...string) float64 {
		if len(vals) == 0 {
			return reg.Counter(name).Value()
		}
		var s float64
		for _, v := range vals {
			s += reg.Counter(name, obs.L(key, v)).Value()
		}
		return s
	}
	kinds := []string{
		chaos.KindOSTDegrade, chaos.KindOSTOutage, chaos.KindDNCrash,
		chaos.KindMDSLatency, chaos.KindNNLatency,
		chaos.KindFlakyReads, chaos.KindStraggler, chaos.KindTaskFail,
	}
	rows := []struct {
		label string
		value float64
	}{
		{"faults injected", sum("chaos/faults_injected_total", "kind", kinds...)},
		{"replica failovers", sum("hdfs/replica_failovers_total", "")},
		{"PFS read retries", sum("core/read_retries_total", "kind", "flaky-read", "corrupt", "ost-down", "no-live-replica")},
		{"PFS read-arounds", sum("core/read_around_total", "")},
		{"task failures", sum("mr/task_failures_total", "phase", "map", "reduce")},
		{"speculative launched", sum("mr/speculative_launched_total", "phase", "map")},
		{"speculative wins", sum("mr/speculative_wins_total", "phase", "map")},
		{"speculative losses", sum("mr/speculative_losses_total", "phase", "map")},
	}
	for _, r := range rows {
		fmt.Printf("%-22s %8.0f\n", r.label, r.value)
	}
	if verbose {
		fmt.Printf("\n== component metrics ==\n")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fail(err)
		}
	}
}

func printBlocks(n *hdfs.INode) {
	for i, b := range n.Blocks {
		switch src := b.Source.(type) {
		case *core.SlabSource:
			fmt.Printf("    block %d: %d B -> %s %s slab start=%v count=%v\n",
				i, b.Size, src.PFSPath, src.VarPath, src.Start, src.Count)
		case *core.FlatSource:
			fmt.Printf("    block %d: %d B -> %s bytes [%d, +%d)\n",
				i, b.Size, src.PFSPath, src.Offset, src.Length)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "scidpctl: %v\n", err)
	os.Exit(1)
}
