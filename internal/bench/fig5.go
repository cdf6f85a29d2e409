package bench

import (
	"fmt"
	"sort"
	"strings"

	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/workloads"
)

// RunOne executes one solution over one sweep point on a fresh testbed.
func RunOne(s Scale, timestamps, nodes int, analysis solutions.AnalysisKind, name string) (*solutions.Report, error) {
	for _, d := range solutions.All() {
		if d.Name() == name {
			cfg := obsEnvConfig(s.EnvConfig(nodes), fmt.Sprintf("%s@%dts", name, timestamps))
			return run(s, cfg, timestamps, analysis, d.Run)
		}
	}
	return nil, fmt.Errorf("bench: unknown solution %q", name)
}

// run is one SciDP run: it installs the (cached) dataset for timestamps
// on a fresh testbed built from cfg, drives runner as process "driver",
// exports the kernel's resource metrics and closes the testbed. Each
// caller brings its own config: the testbed, registry, plan and tier.
func run(s Scale, cfg solutions.EnvConfig, timestamps int, analysis solutions.AnalysisKind,
	runner solutions.Runner) (*solutions.Report, error) {
	blobs, ds, err := dataset(s, timestamps)
	if err != nil {
		return nil, err
	}
	env := solutions.NewEnv(cfg)
	defer env.Close()
	workloads.Install(env.PFS, blobs)
	wl := &solutions.Workload{Dataset: ds, Var: "QR", Analysis: analysis}
	var rep *solutions.Report
	env.K.Go("driver", func(p *sim.Proc) {
		rep, err = runner(p, env, wl)
	})
	env.K.Run()
	env.ExportSimMetrics()
	return rep, err
}

// Fig5Result carries a full sweep for reuse by Table III.
type Fig5Result struct {
	// Sizes are the timestamp counts swept.
	Sizes []int
	// Totals[solution][size] is Figure 5's metric (copy+process).
	Totals map[string]map[int]float64
	// Reports keeps the full reports.
	Reports map[string]map[int]*solutions.Report
}

// RunFig5 sweeps the five solutions over the dataset sizes (the paper
// uses 96, 192, 384, 768 timestamps).
func RunFig5(s Scale, sizes []int) (*Fig5Result, error) {
	out := &Fig5Result{
		Sizes:   sizes,
		Totals:  map[string]map[int]float64{},
		Reports: map[string]map[int]*solutions.Report{},
	}
	for _, d := range solutions.All() {
		name := d.Name()
		out.Totals[name] = map[int]float64{}
		out.Reports[name] = map[int]*solutions.Report{}
		for _, ts := range sizes {
			rep, err := RunOne(s, ts, 0, solutions.AnalysisNone, name)
			if err != nil {
				return nil, fmt.Errorf("%s @%d: %w", name, ts, err)
			}
			out.Totals[name][ts] = rep.TotalSeconds
			out.Reports[name][ts] = rep
		}
	}
	return out, nil
}

// Fig5Table renders the sweep as the paper's Figure 5: per solution and
// size, the copy and processing components and the total. As in the
// paper, the naive solution is also shown at 1/8 of its actual time, and
// conversion time is excluded (reported in a note).
func Fig5Table(r *Fig5Result) *Table {
	t := &Table{
		ID:     "Figure 5",
		Title:  "Total execution time of SciDP and existing solutions (Img-only)",
		Header: []string{"solution", "timestamps", "copy(s)", "process(s)", "total(s)", "plotted"},
	}
	for _, d := range solutions.All() {
		name := d.Name()
		for _, ts := range r.Sizes {
			rep := r.Reports[name][ts]
			plotted := secs(rep.TotalSeconds)
			if name == "naive" {
				plotted = secs(rep.TotalSeconds/8) + " (1/8 actual)"
			}
			t.AddRow(name, fmt.Sprintf("%d", ts), secs(rep.CopySeconds), secs(rep.ProcessSeconds),
				secs(rep.TotalSeconds), plotted)
		}
	}
	var convs []string
	for _, d := range solutions.All() {
		rep := r.Reports[d.Name()][r.Sizes[len(r.Sizes)-1]]
		if rep.ConvertSeconds > 0 {
			convs = append(convs, fmt.Sprintf("%s=%.0fs", d.Name(), rep.ConvertSeconds))
		}
	}
	sort.Strings(convs)
	t.Notes = append(t.Notes,
		"conversion time excluded from totals (paper Section V-A); at the largest size: "+strings.Join(convs, ", "),
		"virtual seconds on the simulated 8-node testbed")
	return t
}

// Table3 derives the paper's Table III: SciDP's speedup over every
// existing solution at each dataset size.
func Table3(r *Fig5Result) *Table {
	t := &Table{
		ID:     "Table III",
		Title:  "Speedup of SciDP over existing solutions",
		Header: append([]string{"solution"}, sizesHeader(r.Sizes)...),
	}
	for _, d := range solutions.All() {
		name := d.Name()
		if name == "scidp" {
			continue
		}
		row := []string{name}
		for _, ts := range r.Sizes {
			row = append(row, ratio(r.Totals[name][ts]/r.Totals["scidp"][ts]))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper band: 6.58x (best existing) to 284.63x (naive)")
	return t
}

// Fig8 runs the scale-out sweep: SciDP Img-only at 4, 8, 16 nodes with 8
// tasks per node (32/64/128 parallel tasks), a fixed dataset size.
func Fig8(s Scale, timestamps int, nodes []int) (*Table, error) {
	t := &Table{
		ID:     "Figure 8",
		Title:  fmt.Sprintf("Scale-out evaluation of SciDP (Img-only, %d timestamps)", timestamps),
		Header: []string{"nodes", "parallel tasks", "total(s)", "speedup vs 4 nodes"},
	}
	base := -1.0
	for _, n := range nodes {
		rep, err := RunOne(s, timestamps, n, solutions.AnalysisNone, "scidp")
		if err != nil {
			return nil, err
		}
		if base < 0 {
			base = rep.TotalSeconds
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", n*8), secs(rep.TotalSeconds), ratio(base/rep.TotalSeconds))
	}
	t.Notes = append(t.Notes, "paper: time nearly halves when nodes double (near-optimal speedup)")
	return t, nil
}

// Fig8ScaleUp runs the scale-up companion the paper mentions ("Scale-up
// evaluation shows similar performance as scale-out results"): fixed 8
// nodes, growing per-node slot counts.
func Fig8ScaleUp(s Scale, timestamps int, slots []int) (*Table, error) {
	t := &Table{
		ID:     "Figure 8b",
		Title:  fmt.Sprintf("Scale-up evaluation of SciDP (Img-only, %d timestamps, 8 nodes)", timestamps),
		Header: []string{"slots/node", "parallel tasks", "total(s)", "speedup vs first"},
	}
	base := -1.0
	for _, sl := range slots {
		cfg := s.EnvConfig(8)
		cfg.SlotsPerNode = sl
		rep, err := run(s, obsEnvConfig(cfg, fmt.Sprintf("scidp@%dslots", sl)), timestamps, solutions.AnalysisNone, solutions.RunSciDP)
		if err != nil {
			return nil, err
		}
		if base < 0 {
			base = rep.TotalSeconds
		}
		t.AddRow(fmt.Sprintf("%d", sl), fmt.Sprintf("%d", 8*sl), secs(rep.TotalSeconds), ratio(base/rep.TotalSeconds))
	}
	t.Notes = append(t.Notes, "paper: scale-up shows similar performance as scale-out (Section V-E)")
	return t, nil
}

// Fig9 runs the Anlys workload cases across dataset sizes.
func Fig9(s Scale, sizes []int) (*Table, error) {
	t := &Table{
		ID:     "Figure 9",
		Title:  "Data analysis performance of SciDP (SQL query in each Map task)",
		Header: append([]string{"analysis"}, sizesHeader(sizes)...),
	}
	cases := []solutions.AnalysisKind{solutions.AnalysisNone, solutions.AnalysisHighlight, solutions.AnalysisTop1Pct}
	extra := map[solutions.AnalysisKind]int64{}
	for _, kind := range cases {
		row := []string{kind.String()}
		for _, ts := range sizes {
			rep, err := RunOne(s, ts, 0, kind, "scidp")
			if err != nil {
				return nil, err
			}
			row = append(row, secs(rep.TotalSeconds))
			extra[kind] = rep.AnalysisBytes
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("analysis bytes written to HDFS at largest size: highlight=%d, top1%%=%d (paper: top 1%% query result ~596 MB/variable)",
			extra[solutions.AnalysisHighlight], extra[solutions.AnalysisTop1Pct]),
		"paper: highlight ~= no analysis; top 1% slower due to extra HDFS writes and network transfer")
	return t, nil
}

// Fig7 decomposes per-task time into Read/Convert/Plot per (paper) level
// for each solution at one dataset size (the paper uses 384 files).
func Fig7(s Scale, timestamps int) (*Table, error) {
	t := &Table{
		ID:     "Figure 7",
		Title:  fmt.Sprintf("Task time decomposition per one-level data (%d files)", timestamps),
		Header: []string{"solution", "read(s/level)", "convert(s/level)", "plot(s/level)"},
	}
	ls := s.LevelScale()
	for _, d := range solutions.All() {
		name := d.Name()
		rep, err := RunOne(s, timestamps, 0, solutions.AnalysisNone, name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprintf("%.3f", rep.PerLevel("Read", ls)),
			fmt.Sprintf("%.3f", rep.PerLevel("Convert", ls)),
			fmt.Sprintf("%.3f", rep.PerLevel("Plot", ls)))
	}
	t.Notes = append(t.Notes,
		"paper: Convert dominates text-based solutions (read.table); Read ~2 s/task for existing, SciDP 0.035 s/level; Plot equal for vanilla/PortHadoop/SciDP, slightly lower for naive")
	return t, nil
}

// Table1 renders the paper's qualitative data-path matrix.
func Table1() *Table {
	t := &Table{
		ID:     "Table I",
		Title:  "Data path of existing solutions and SciDP",
		Header: []string{"solution", "conversion", "data copy", "processing"},
	}
	for _, row := range solutions.TableI() {
		conv := "No"
		if row.Conversion {
			conv = "Yes"
		}
		t.AddRow(row.Solution, conv, row.Copy, row.Processing)
	}
	return t
}

// Table2 renders the workload matrix.
func Table2() *Table {
	t := &Table{
		ID:     "Table II",
		Title:  "Representative workloads",
		Header: []string{"workload", "image plotting", "animation", "analysis"},
	}
	for _, w := range []workloads.WorkloadKind{workloads.ImgOnly, workloads.Anlys} {
		p, a, an := w.Phases()
		t.AddRow(w.String(), yn(p), yn(a), yn(an))
	}
	return t
}

func yn(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}

func sizesHeader(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("%d ts", s)
	}
	return out
}
