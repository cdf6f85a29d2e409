// Command scidp-bench regenerates the SciDP paper's evaluation tables and
// figures on the simulated testbed.
//
// Usage:
//
//	scidp-bench [-exp all|fig2|table1|table2|fig5|table3|fig6|fig7|fig8|fig9|faults|workflow|ablations|query]
//	            [-quick] [-markdown] [-trace out.json] [-metrics out.prom] [-json out.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-explain]
//
// -quick runs a reduced geometry and smaller sweeps (seconds instead of
// minutes). Output is one aligned text table per experiment, with paper
// expectations in the notes. -trace writes a Chrome trace-event JSON of
// every simulated run (open in Perfetto / chrome://tracing); -metrics
// writes a Prometheus-style text dump of the component metrics. Either
// flag attaches the observability registry; without them runs are
// instrumentation-free. -json writes the machine-readable result of the
// one selected experiment that has one — faults (goodput/JCT sweep,
// digests, recovery counters) or query (per-query skip ratios and
// digests); any other selection, including all, exits 2 rather than
// leave the file to whichever experiment ran last.
//
// -explain attaches the registry like -trace/-metrics and, after the
// experiments finish, runs the post-run performance analysis
// (internal/obs/analyze) over everything recorded: per-job critical
// paths, time-attribution buckets, bottleneck resources, stragglers.
// The text report appends to stdout and the JSON summary embeds into
// any -json artifact ({"experiment": ..., "analysis": ...}).
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the bench
// process itself (inspect with `go tool pprof`) — the intended workflow
// for chasing simulator hot spots.
//
// Simulator throughput, the worker-count sweep, the I/O-engine and
// cache-tier variants and the tenant load sweep are measured by the
// repository benchmark (bash benchmark/run.sh --workload <name>), not
// here; their contracts are gated by go test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"scidp/internal/bench"
	"scidp/internal/ioengine"
	"scidp/internal/obs"
	"scidp/internal/obs/analyze"
)

// experiments lists every -exp value; all runs the rest.
var experiments = []string{"all", "fig2", "table1", "table2", "fig5", "table3", "fig6", "fig7", "fig8", "fig9", "faults", "workflow", "ablations", "query"}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(experiments, ", ")+")")
	quick := flag.Bool("quick", false, "reduced geometry and sweep sizes")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown instead of aligned text")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the simulated runs to this file")
	metricsPath := flag.String("metrics", "", "write a Prometheus-style metrics dump to this file")
	jsonPath := flag.String("json", "", "write the selected experiment's machine-readable result JSON to this file (-exp faults or -exp query only)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	flag.BoolVar(&explainMode, "explain", false, "attach the observability registry, print the post-run performance analysis, and embed its JSON into -json output")
	flag.Parse()

	if !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "scidp-bench: unknown experiment %q (want one of %s)\n", *exp, strings.Join(experiments, ", "))
		os.Exit(2)
	}
	// Only faults and query have a machine-readable result, and -json
	// names one file: any other selection would write nothing, and all
	// would leave whichever of the two ran last.
	if *jsonPath != "" && *exp != "faults" && *exp != "query" {
		fmt.Fprintf(os.Stderr, "scidp-bench: -json writes one experiment's result: use it with -exp faults or -exp query, not -exp %s\n", *exp)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scidp-bench: %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "scidp-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scidp-bench: %s: %v\n", *memProfile, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "scidp-bench: memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *tracePath != "" || *metricsPath != "" || explainMode {
		bench.Obs = obs.New()
		ioengine.RegisterObs(bench.Obs)
	}

	scale := bench.DefaultScale()
	fig5Sizes := []int{96, 192, 384, 768}
	fig6Readers := []int{1, 2, 4, 8, 16, 32, 64}
	fig6Steps := 64
	fig7Size := 384
	fig8Size := 384
	fig8Nodes := []int{4, 8, 16}
	fig9Sizes := []int{96, 192, 384, 768}
	ablSize := 96
	wfSize, wfCompute := 192, 120.0
	faultsSize := 24
	faultsRates := []float64{0.05, 0.1, 0.2}
	if *quick {
		scale = bench.QuickScale()
		fig5Sizes = []int{8, 16}
		fig6Readers = []int{1, 4, 16, 64}
		fig6Steps = 32
		fig7Size = 16
		fig8Size = 64
		fig9Sizes = []int{8, 16}
		ablSize = 8
		wfSize, wfCompute = 8, 30.0
		faultsSize = 16
		faultsRates = []float64{0.1}
	}

	emit := func(t *bench.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "scidp-bench: %v\n", err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Println(t.Markdown())
			return
		}
		fmt.Println(t.String())
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		emit(bench.Table1(), nil)
	}
	if want("table2") {
		emit(bench.Table2(), nil)
	}
	if want("fig2") {
		emit(bench.Fig2())
	}
	if want("fig5") || want("table3") {
		r, err := bench.RunFig5(scale, fig5Sizes)
		if err != nil {
			emit(nil, err)
		}
		if want("fig5") {
			emit(bench.Fig5Table(r), nil)
		}
		if want("table3") {
			emit(bench.Table3(r), nil)
		}
	}
	if want("fig6") {
		emit(bench.Fig6(scale, fig6Steps, fig6Readers))
	}
	if want("fig7") {
		emit(bench.Fig7(scale, fig7Size))
	}
	if want("fig8") {
		emit(bench.Fig8(scale, fig8Size, fig8Nodes))
		emit(bench.Fig8ScaleUp(scale, fig8Size, []int{4, 8, 16}))
	}
	if want("fig9") {
		emit(bench.Fig9(scale, fig9Sizes))
	}
	if want("faults") {
		t, fr, err := bench.RunFaults(scale, faultsSize, faultsRates, bench.FaultsSeed)
		if err != nil {
			emit(nil, err)
		}
		emit(t, nil)
		if *jsonPath != "" {
			writeJSON(*jsonPath, fr)
		}
	}
	if want("workflow") {
		emit(bench.Workflow(scale, wfSize, wfCompute))
	}
	if want("ablations") {
		emit(bench.AblationBlockGranularity(scale, ablSize))
		emit(bench.AblationVariableSubsetting(scale, ablSize))
		emit(bench.AblationWholeBlockRead(scale))
		emit(bench.AblationOverlap(scale, ablSize))
	}
	if want("query") {
		t, qr, err := bench.RunQuery(scale)
		if err != nil {
			emit(nil, err)
		}
		emit(t, nil)
		if *jsonPath != "" {
			writeJSON(*jsonPath, qr)
		}
	}

	if explainMode {
		fmt.Println("== post-run performance analysis ==")
		if err := analyze.Analyze(bench.Obs).WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "scidp-bench: analysis: %v\n", err)
			os.Exit(1)
		}
	}
	if *tracePath != "" {
		writeExport(*tracePath, bench.Obs.WriteChromeTrace)
	}
	if *metricsPath != "" {
		writeExport(*metricsPath, bench.Obs.WritePrometheus)
	}
}

// explainMode is the -explain flag: analyze the attached registry after
// the experiments and embed the analysis in any -json artifact. Runs
// that attach their own private registries (the faults sweep's
// per-run determinism digests) analyze as empty here; the global
// registry still covers every run routed through bench.Obs.
var explainMode bool

// writeJSON records an experiment's machine-readable result. With
// -explain the artifact is wrapped as {"experiment": ..., "analysis":
// ...} so downstream tooling gets the attribution summary alongside the
// sweep; without it the schema is unchanged.
func writeJSON(path string, v any) {
	if explainMode {
		v = map[string]any{"experiment": v, "analysis": analyze.Analyze(bench.Obs)}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scidp-bench: %s: %v\n", path, err)
		os.Exit(1)
	}
}

// writeExport streams one exporter into path.
func writeExport(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scidp-bench: %s: %v\n", path, err)
		os.Exit(1)
	}
}
