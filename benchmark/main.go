// Command benchmark is the repository's one benchmark: five named
// workloads, end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run. See README.md.
//
//	bash benchmark/run.sh --workload scidp-imgonly --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// pinnedProcs is this host's nproc; every number is recorded at it.
const pinnedProcs = 2

// envHeader is the one environment header every result file carries.
type envHeader struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GOGC       string  `json:"gogc"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output, in the form the driver
// reads.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run's result file: the verdict plus what a reader needs
// to compare two commits.
type result struct {
	Env      envHeader `json:"env"`
	Workload string    `json:"workload"`
	Traced   bool      `json:"traced"`
	verdict
	// Iterations is N, the measured iterations of this run.
	Iterations int             `json:"iterations"`
	Timings    map[string]dist `json:"timings,omitempty"`
	// InputDigest and OutputDigest identify the generated inputs and the
	// outputs of one rotation, so two commits can be compared.
	InputDigest  string   `json:"input_digest"`
	OutputDigest string   `json:"output_digest"`
	Events       []uint64 `json:"sim_events"`
	Problems     []string `json:"problems,omitempty"`
}

func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return ""
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	// Look for a repository in the working directory only, never above.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func header(seed int64, seconds float64, smoke bool) envHeader {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return envHeader{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GOGC: gogc, Commit: commit(), Seed: seed, Seconds: seconds, Smoke: smoke}
}

// runUntraced measures one workload and returns its end-to-end metrics.
func runUntraced(info workloadInfo, sz sizes, seed int64, seconds float64) (*result, error) {
	w := info.make(sz)
	// Set-up runs at least three times, and on for a tenth of the
	// measured time when it is cheap, so that its median is steady.
	var setups []float64
	for total := 0.0; len(setups) < 3 || (total < seconds/10 && len(setups) < 15); {
		start := time.Now()
		if err := w.setup(seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start).Seconds()
		setups = append(setups, d)
		total += d
	}
	loop, err := measure(w, 2, seconds)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	v := aggregate(loop.rotation)
	speedup, err := w.speedup(loop.rotation)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	wall := column(loop.samples, func(s sample) float64 { return s.wall })
	cpu := column(loop.samples, func(s sample) float64 { return s.cpu })
	values := map[string]float64{
		"jct_virtual_s":               v.jct,
		"speedup_vs_baseline":         speedup,
		"job_latency_virtual_p50_s":   v.p50,
		"job_latency_virtual_p95_s":   v.p95,
		"goodput_jobs_per_virtual_ks": v.goodput,
		"iter_wall_s_p50":             median(wall),
		"iter_cpu_s_p50":              median(cpu),
		"allocs_per_iter":             median(column(loop.samples, func(s sample) float64 { return s.mallocs })),
		"alloc_mb_per_iter":           median(column(loop.samples, func(s sample) float64 { return s.allocMB })),
		"peak_rss_mb":                 rss,
		"setup_s":                     median(setups),
	}
	res := newResult(info.Name, false, w, loop, len(loop.samples))
	res.Timings = map[string]dist{"iter_wall_s": distOf(wall), "iter_cpu_s": distOf(cpu), "setup_s": distOf(setups)}
	if err := res.fill(endToEnd, values); err != nil {
		return nil, err
	}
	return res, nil
}

func newResult(name string, traced bool, w workload, loop *loopResult, iterations int) *result {
	res := &result{Workload: name, Traced: traced, Iterations: iterations,
		InputDigest: w.inputDigest(), Problems: loop.problems}
	res.Attempted, res.Failed = loop.attempted, loop.failed
	res.Correct = loop.failed == 0
	var digests []string
	for _, o := range loop.rotation {
		digests = append(digests, o.digest)
		res.Events = append(res.Events, o.events)
	}
	res.OutputDigest = strings.Join(digests, ",")
	return res
}

// fill stores exactly the metrics defs names, refusing a missing or
// non-finite value.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func list() {
	fmt.Println("workloads:")
	for _, c := range catalog {
		fmt.Printf("  %-15s %s\n", c.Name, c.Why)
	}
	fmt.Println("end-to-end metrics (untraced run):")
	for _, m := range endToEnd {
		fmt.Printf("  %-36s %-10s %-6s bound %-5g %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Doc)
	}
	fmt.Println("per-layer metrics (traced run, no bound):")
	for _, m := range perLayer {
		fmt.Printf("  %-36s %-10s %-6s %s\n", m.Name, m.Unit, m.Better, m.Doc)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 = the traced run (per-layer metrics) instead of the untraced one")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for result files and trace artifacts")
	smoke := flag.Bool("smoke", false, "shrink every workload to well under a second (the unit test's sizes)")
	doList := flag.Bool("list", false, "print every workload and metric name")
	doCompare := flag.Bool("compare", false, "compare two result sets: -compare <a> <b> (files or -out directories)")
	flag.Parse()
	runtime.GOMAXPROCS(pinnedProcs)

	switch {
	case *doList:
		list()
		return
	case *doCompare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare <a> <b>")
			os.Exit(2)
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	info, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (see -list)\n", *name)
		os.Exit(2)
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	var res *result
	var err error
	suffix := ""
	if *trace != 0 {
		suffix = "-trace"
		res, err = runTraced(info, sz, *seed, filepath.Join(*out, info.Name))
	} else {
		res, err = runUntraced(info, sz, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.Env = header(*seed, *seconds, *smoke)
	if err := writeJSON(filepath.Join(*out, fmt.Sprintf("result-%s-seed%d%s.json", info.Name, *seed, suffix)), res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", p)
	}
	line, err := json.Marshal(res.verdict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
