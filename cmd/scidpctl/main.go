// Command scidpctl demonstrates SciDP's control path end to end on a
// simulated testbed: it generates (or accepts) a NU-WRF dataset, installs
// it on the simulated PFS, runs the File Explorer and Data Mapper, and
// prints the virtual HDFS namespace with every dummy block's PFS mapping —
// the Virtual Mapping Table a NameNode would hold.
//
// Usage:
//
//	scidpctl [-timestamps n] [-vars QR,VAR01] [-rows n] [-blocksize n] [-local dir] [-v]
//	scidpctl analyze [-chaos plan.json] [-timestamps n] [-workers n] [-cache bytes] [-json file] [-v]
//
// With -local, files are read from a local directory (produced by ncgen)
// instead of being generated. -v attaches the observability registry and
// appends a per-phase timing table plus the component metrics the run
// produced (MDS/NameNode op counts, per-OST traffic, ...).
//
// The analyze subcommand runs the full SciDP processing pipeline on a
// recovery-enabled testbed (replication, task retry, speculation, PFS
// read retry; optionally on a ComputePool with -workers) and then runs
// the post-run performance analysis (internal/obs/analyze) over the
// recorded span tree and metrics: per-job critical path, per-phase time
// attribution (sched/io/compute/shuffle/recovery), bottleneck resources,
// and straggler detection. -chaos runs the pipeline under the fault plan
// in the given JSON file and appends the injected-fault and recovery
// counters to the text report. The plan format is internal/chaos's Plan:
// a PRNG seed plus rules ({"kind": "dn-crash", "at": 30, "target": 1},
// ...). -cache attaches a cooperative cache tier (cost-aware eviction,
// that many bytes per node) and adds a per-level cache_tier section —
// where reads were served: node-local buffer, peer buffer, or OST — to
// the report. -json writes the machine-readable report; "-" replaces the
// text report with pure JSON on stdout (pipe into jq). The report is
// byte-identical across same-seed runs at any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
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
		if err := runAnalyze(os.Stdout, os.Args[2:]); err != nil {
			fail(err)
		}
		return
	}
	timestamps := flag.Int("timestamps", 2, "generated timestamps (ignored with -local)")
	varsFlag := flag.String("vars", "", "comma-separated variable subset (empty = all)")
	rows := flag.Int("rows", 0, "rows per dummy block (0 = chunk-aligned)")
	blocksize := flag.Int64("blocksize", 0, "dummy-block size for flat files in bytes (0 = HDFS block size)")
	local := flag.String("local", "", "load files from this directory instead of generating")
	verbose := flag.Bool("v", false, "print per-phase timings and component metrics after the mapping")
	flag.Parse()

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
// plan) and writes the post-run performance analysis to w.
func runAnalyze(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("scidpctl analyze", flag.ExitOnError)
	timestamps := fs.Int("timestamps", 4, "generated timestamps")
	chaosPath := fs.String("chaos", "", "fault plan (JSON) to run the pipeline under")
	workers := fs.Int("workers", 0, "data-plane ComputePool workers (0 = inline; output is byte-identical at every count)")
	cacheBytes := fs.Int64("cache", 0, "attach a cooperative cache tier with this many bytes per node (0 = no tier)")
	jsonPath := fs.String("json", "", "write the analysis as JSON to this file (\"-\" = pure JSON on stdout, no text report)")
	verbose := fs.Bool("v", false, "append the full component metrics dump")
	fs.Parse(args) // ExitOnError: a bad flag exits with the usage
	var plan *chaos.Plan
	if *chaosPath != "" {
		data, err := os.ReadFile(*chaosPath)
		if err != nil {
			return err
		}
		if plan, err = chaos.ParsePlan(data); err != nil {
			return fmt.Errorf("%s: %w", *chaosPath, err)
		}
	}
	if *timestamps < 1 {
		*timestamps = 1
	}

	tier := ioengine.TierConfig{NodeBytes: *cacheBytes, Policy: ioengine.PolicyCost}
	rep, solRep, reg, err := bench.AnalyzeRun(bench.QuickScale(), *timestamps, plan, *workers, "scidpctl-analyze", tier)
	if err != nil {
		return err
	}
	// -json - takes over stdout: emit pure JSON so the output pipes
	// straight into jq or a dashboard without the text report in front.
	if *jsonPath != "-" {
		if plan != nil {
			fmt.Fprintf(w, "plan %s: seed %d, %d rule(s)\n", *chaosPath, plan.Seed, len(plan.Rules))
		}
		fmt.Fprintf(w, "%s\n\n", solRep.Summary())
		if err := rep.WriteText(w); err != nil {
			return err
		}
		if plan != nil {
			bench.WriteRecovery(w, reg)
		}
	}
	if *jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonPath == "-" {
			if _, err := w.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
	}
	if *verbose {
		fmt.Fprintf(w, "\n== component metrics ==\n")
		return reg.WritePrometheus(w)
	}
	return nil
}

func printBlocks(n *hdfs.INode) {
	for i, b := range n.Blocks {
		switch src := b.Source.(type) {
		case *core.SlabSource:
			fmt.Printf("    block %d: %d B -> %s %s slab start=%v count=%v\n",
				i, b.Size, src.PFSPath, src.Var.Path, src.Start, src.Count)
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
