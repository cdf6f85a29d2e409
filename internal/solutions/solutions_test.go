package solutions

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"scidp/internal/chaos"
	"scidp/internal/obs"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// testSetup generates a small dataset and returns a fresh env+workload
// builder so each solution runs on its own kernel.
func testSetup(t *testing.T, timestamps int, analysis AnalysisKind) func() (*Env, *Workload, *sim.Kernel) {
	t.Helper()
	spec := workloads.NUWRFSpec{
		Timestamps: timestamps, Levels: 4, Lat: 24, Lon: 24, Vars: 6, Dir: "/nuwrf",
	}
	blobs, ds, err := workloads.GenerateBlobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	return func() (*Env, *Workload, *sim.Kernel) {
		cfg := DefaultEnvConfig(1000, 50.0/float64(spec.Levels))
		cfg.Nodes = 4
		cfg.SlotsPerNode = 2
		cfg.PlotRes = 24
		env := NewEnv(cfg)
		workloads.Install(env.PFS, blobs)
		return env, &Workload{Dataset: ds, Var: "QR", Analysis: analysis}, env.K
	}
}

// runSolution drives one runner to completion.
func runSolution(t *testing.T, mk func() (*Env, *Workload, *sim.Kernel), run Runner) *Report {
	t.Helper()
	env, wl, k := mk()
	var rep *Report
	var err error
	k.Go("driver", func(p *sim.Proc) {
		rep, err = run(p, env, wl)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestAllSolutionsProduceSameImages(t *testing.T) {
	mk := testSetup(t, 2, AnalysisNone)
	var reports []*Report
	var names []string
	for _, d := range All() {
		reports = append(reports, runSolution(t, mk, d.Run))
		names = append(names, d.Name())
	}
	want := 2 * 4 // timestamps x levels
	for i, rep := range reports {
		if rep.Images != want {
			t.Errorf("%s produced %d images, want %d", names[i], rep.Images, want)
		}
		if rep.TotalSeconds <= 0 {
			t.Errorf("%s total = %v", names[i], rep.TotalSeconds)
		}
	}
}

// TestImageBytesIdenticalAcrossSolutions: every data path reconstructs
// the exact same grids and stores the same results. Under each analysis
// case, each path's /results/<name> tree has SciDP's file set, byte for
// byte — the PNGs, the Anlys GIFs and the top-1 % CSV. The text paths
// match too: formatCSV writes nine significant digits, which round-trips
// every float32 exactly.
func TestImageBytesIdenticalAcrossSolutions(t *testing.T) {
	for _, analysis := range []AnalysisKind{AnalysisNone, AnalysisHighlight, AnalysisTop1Pct} {
		mk := testSetup(t, 2, analysis)
		trees := map[string]map[string][]byte{}
		for _, d := range All() {
			env, wl, k := mk()
			var err error
			k.Go("driver", func(p *sim.Proc) {
				if _, err = d.Run(p, env, wl); err != nil {
					return
				}
				dir := "/results/" + d.Name()
				files, err := env.HDFS.Walk(p, dir)
				if err != nil {
					t.Error(err)
					return
				}
				tree := map[string][]byte{}
				for _, f := range files {
					if tree[f.Path[len(dir):]], err = env.HDFS.ReadFile(p, env.BD.Node(0), f.Path); err != nil {
						t.Error(err)
						return
					}
				}
				trees[d.Name()] = tree
			})
			k.Run()
			if err != nil {
				t.Fatalf("%s, %v: %v", d.Name(), analysis, err)
			}
		}
		want := trees["scidp"]
		files := 2 * 4 // timestamps x levels
		if analysis != AnalysisNone {
			files += 2 // one GIF per timestamp
		}
		if analysis == AnalysisTop1Pct {
			files++ // analysis/top1pct.csv
		}
		if len(want) != files {
			t.Fatalf("%v: scidp stored %d files, want %d", analysis, len(want), files)
		}
		for name, got := range trees {
			if len(got) != len(want) {
				t.Errorf("%v: %s stored %d files, scidp %d", analysis, name, len(got), len(want))
			}
			for f, data := range want {
				if !bytes.Equal(got[f], data) {
					t.Errorf("%v: %s's %s differs from scidp's", analysis, name, f)
				}
			}
		}
	}
}

func TestSciDPFastestSciHadoopBeatsTextPaths(t *testing.T) {
	mk := testSetup(t, 4, AnalysisNone)
	totals := map[string]float64{}
	for _, d := range All() {
		totals[d.Name()] = runSolution(t, mk, d.Run).TotalSeconds
	}
	if totals["scidp"] >= totals["scihadoop"] {
		t.Errorf("scidp (%v) should beat scihadoop (%v)", totals["scidp"], totals["scihadoop"])
	}
	if totals["scidp"] >= totals["porthadoop"] {
		t.Errorf("scidp (%v) should beat porthadoop (%v)", totals["scidp"], totals["porthadoop"])
	}
	if totals["vanilla-hadoop"] >= totals["naive"] {
		t.Errorf("vanilla (%v) should beat naive (%v)", totals["vanilla-hadoop"], totals["naive"])
	}
	if totals["scidp"] >= totals["vanilla-hadoop"] {
		t.Errorf("scidp (%v) should beat vanilla (%v)", totals["scidp"], totals["vanilla-hadoop"])
	}
}

// TestDataPathProperties: each Table I row describes what its own path
// does. A row that says the path converts must have it pay conversion and
// produce text; a row that says it copies must have it move bytes onto
// HDFS, and one that says it does not must have it move none.
func TestDataPathProperties(t *testing.T) {
	mk := testSetup(t, 2, AnalysisNone)
	reps := map[string]*Report{}
	rows := TableI()
	for i, d := range All() {
		rep := runSolution(t, mk, d.Run)
		reps[d.Name()] = rep
		row := rows[i]
		if converted := rep.ConvertSeconds > 0 && rep.TextBytes > 0; converted != row.Conversion {
			t.Errorf("%s: row says conversion=%v, run converted=%v: %+v", row.Solution, row.Conversion, converted, rep)
		}
		if noCopy := rep.CopiedBytes == 0 && rep.CopySeconds == 0; noCopy != (row.Copy == "No") {
			t.Errorf("%s: row says copy=%q, run copied %d bytes in %vs", row.Solution, row.Copy, rep.CopiedBytes, rep.CopySeconds)
		}
	}
	// SciHadoop copies whole files (all 6 vars): bigger than the one-var
	// compressed payload SciDP touches.
	if reps["scihadoop"].CopiedBytes <= reps["vanilla-hadoop"].CopiedBytes/10 {
		t.Error("scihadoop copy unexpectedly small")
	}
	// Converted text is much larger than the compressed variable.
	ds := func() *workloads.Dataset { _, wl, _ := mk(); return wl.Dataset }()
	ratio := float64(reps["vanilla-hadoop"].TextBytes) / float64(int64(len(ds.Files))*ds.VarStoredBytes)
	if ratio < 4 {
		t.Errorf("text/compressed ratio = %.1f, want order-of-magnitude inflation", ratio)
	}
}

// TestTableIMatrix: the rows read off the paths are the paper's Table I,
// one per path in All()'s order.
func TestTableIMatrix(t *testing.T) {
	paper := []DataPathRow{
		{Solution: "Naive", Conversion: true, Copy: "Sequential", Processing: "Sequential"},
		{Solution: "Vanilla Hadoop", Conversion: true, Copy: "Parallel", Processing: "Parallel"},
		{Solution: "PortHadoop", Conversion: true, Copy: "No", Processing: "Parallel"},
		{Solution: "SciHadoop", Conversion: false, Copy: "Parallel", Processing: "Parallel"},
		{Solution: "SciDP", Conversion: false, Copy: "No", Processing: "Parallel"},
	}
	if rows := TableI(); !slices.Equal(rows, paper) {
		t.Fatalf("TableI() = %+v, want the paper's %+v", rows, paper)
	}
	for i, d := range All() {
		if d.title != paper[i].Solution {
			t.Errorf("path %d is %q, row %q", i, d.title, paper[i].Solution)
		}
	}
}

func TestAnalysisCases(t *testing.T) {
	imgOnly := runSolution(t, testSetup(t, 2, AnalysisNone), RunSciDP)
	highlight := runSolution(t, testSetup(t, 2, AnalysisHighlight), RunSciDP)
	top1 := runSolution(t, testSetup(t, 2, AnalysisTop1Pct), RunSciDP)

	// Figure 9: highlight costs about the same as no analysis; top 1%
	// writes more to HDFS and takes longer.
	if highlight.TotalSeconds < imgOnly.TotalSeconds {
		t.Errorf("highlight (%v) should not beat img-only (%v)", highlight.TotalSeconds, imgOnly.TotalSeconds)
	}
	if highlight.TotalSeconds > imgOnly.TotalSeconds*1.25 {
		t.Errorf("highlight (%v) should be close to img-only (%v)", highlight.TotalSeconds, imgOnly.TotalSeconds)
	}
	if top1.AnalysisBytes <= highlight.AnalysisBytes {
		t.Errorf("top1%% bytes (%d) should exceed highlight (%d)", top1.AnalysisBytes, highlight.AnalysisBytes)
	}
	if top1.TotalSeconds <= highlight.TotalSeconds {
		t.Errorf("top1%% (%v) should exceed highlight (%v)", top1.TotalSeconds, highlight.TotalSeconds)
	}
}

func TestSciDPRowsPerBlockAblation(t *testing.T) {
	mk := testSetup(t, 2, AnalysisNone)
	perVar := runSolution(t, mk, RunSciDP)
	perLevel := runSolution(t, mk, func(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
		return RunSciDPWith(p, env, wl, SciDPOptions{RowsPerBlock: 1})
	})
	// Finer granularity makes more tasks (more startup) but same images.
	if perLevel.Images != perVar.Images {
		t.Fatalf("image counts differ: %d vs %d", perLevel.Images, perVar.Images)
	}
}

func TestPerLevelDecomposition(t *testing.T) {
	mk := testSetup(t, 2, AnalysisNone)
	scidp := runSolution(t, mk, RunSciDP)
	vanilla := runSolution(t, mk, vanillaHadoop.Run)
	levelScale := 50.0 / 4.0
	// Figure 7: Convert dominates the text path; SciDP's convert is tiny.
	if vanilla.PerLevel("Convert", levelScale) <= scidp.PerLevel("Convert", levelScale) {
		t.Errorf("vanilla convert/level (%v) should dwarf scidp's (%v)",
			vanilla.PerLevel("Convert", levelScale), scidp.PerLevel("Convert", levelScale))
	}
	if scidp.PerLevel("Plot", levelScale) <= 0 {
		t.Error("scidp plot/level should be positive")
	}
}

// TestStagedReadWaveIsRetried: the staged ablation's read wave runs under
// the env's chaos plan and retry budget like its compute wave. A plan that
// kills every attempt launched up to half a second into the wave fails
// each read task once; the retries launch outside the window and the run
// completes.
func TestStagedReadWaveIsRetried(t *testing.T) {
	spec := workloads.NUWRFSpec{Timestamps: 2, Levels: 4, Lat: 16, Lon: 16, Vars: 4, Dir: "/nuwrf"}
	blobs, ds, err := workloads.GenerateBlobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	// run returns the report and the read wave's task attempts.
	run := func(plan *chaos.Plan) (*Report, []obs.SpanInfo) {
		cfg := DefaultEnvConfig(1000, 50.0/4)
		cfg.Nodes, cfg.SlotsPerNode, cfg.PlotRes = 4, 2, 16
		cfg.Obs, cfg.MaxAttempts, cfg.Chaos = obs.New(), 2, plan
		env := NewEnv(cfg)
		workloads.Install(env.PFS, blobs)
		var rep *Report
		var rerr error
		env.K.Go("driver", func(p *sim.Proc) {
			rep, rerr = RunSciDPStaged(p, env, &Workload{Dataset: ds, Var: "QR"})
		})
		env.K.Run()
		if rerr != nil {
			t.Fatal(rerr)
		}
		var wave obs.SpanInfo
		var reads []obs.SpanInfo
		for _, sp := range cfg.Obs.Spans() {
			switch {
			case sp.Name == "job:scidp-staged-read":
				wave = sp
			case strings.HasPrefix(sp.Name, "task:") && sp.End <= wave.End:
				reads = append(reads, sp)
			}
		}
		return rep, reads
	}
	_, clean := run(nil)
	if len(clean) != spec.Timestamps {
		t.Fatalf("%d read attempts with no faults, want %d", len(clean), spec.Timestamps)
	}
	rep, reads := run(&chaos.Plan{Seed: 1, Rules: []chaos.Rule{
		{Kind: chaos.KindTaskFail, Rate: 1, Until: clean[0].Start + 0.5},
	}})
	failed := 0
	for _, sp := range reads {
		if _, ok := sp.Arg("failed"); ok {
			failed++
		}
	}
	if failed != spec.Timestamps || len(reads) != 2*spec.Timestamps || rep.Images != spec.Timestamps*spec.Levels {
		t.Fatalf("%d of %d read attempts failed, %d images; want every read task failed once, retried, and %d images",
			failed, len(reads), rep.Images, spec.Timestamps*spec.Levels)
	}
}

// TestFlatBlockFailsTheRun: a non-scientific file beside the dataset
// reaches a SciDP map as a flat block. Both SciDP runs map whatever
// Dataset.Files lists; either returns an error for the flat block instead
// of panicking on it.
func TestFlatBlockFailsTheRun(t *testing.T) {
	mk := testSetup(t, 2, AnalysisNone)
	for name, run := range map[string]Runner{"scidp": RunSciDP, "scidp-staged": RunSciDPStaged} {
		env, wl, k := mk()
		readme := wl.Dataset.Spec.Dir + "/README.txt"
		ds := *wl.Dataset
		ds.Files = append(slices.Clone(ds.Files), readme)
		wl.Dataset = &ds
		var err error
		k.Go("driver", func(p *sim.Proc) {
			mount := env.Mount(env.BD.Node(0))
			if _, err = mount.Create(p, readme, 0, 0); err != nil {
				return
			}
			if err = mount.WriteAt(p, readme, []byte("generated NU-WRF run\n"), 0); err != nil {
				return
			}
			_, err = run(p, env, wl)
		})
		k.Run()
		if err == nil || !strings.Contains(err.Error(), "not a scientific slab") {
			t.Errorf("%s: err = %v, want the flat block reported", name, err)
		}
	}
}

func TestScaleOutReducesTime(t *testing.T) {
	spec := workloads.NUWRFSpec{Timestamps: 8, Levels: 4, Lat: 16, Lon: 16, Vars: 4, Dir: "/nuwrf"}
	blobs, ds, err := workloads.GenerateBlobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := func(nodes int) float64 {
		cfg := DefaultEnvConfig(1000, 50.0/4)
		cfg.Nodes = nodes
		cfg.SlotsPerNode = 2
		cfg.PlotRes = 16
		env := NewEnv(cfg)
		workloads.Install(env.PFS, blobs)
		var rep *Report
		env.K.Go("driver", func(p *sim.Proc) {
			var rerr error
			rep, rerr = RunSciDP(p, env, &Workload{Dataset: ds, Var: "QR"})
			if rerr != nil {
				t.Error(rerr)
			}
		})
		env.K.Run()
		return rep.TotalSeconds
	}
	t2, t4 := elapsed(2), elapsed(4)
	if t4 >= t2 {
		t.Fatalf("4 nodes (%v) should beat 2 nodes (%v)", t4, t2)
	}
}

func TestReportSummaryAndOrdering(t *testing.T) {
	mk := testSetup(t, 2, AnalysisNone)
	var lines []string
	for _, d := range All() {
		rep := runSolution(t, mk, d.Run)
		if rep.Solution != d.Name() {
			t.Errorf("%s reports as %q", d.Name(), rep.Solution)
		}
		lines = append(lines, fmt.Sprintf("%s:%s", d.Name(), rep.Summary()))
	}
	sort.Strings(lines)
	if len(lines) != 5 {
		t.Fatalf("lines = %v", lines)
	}
}

func TestAnlysProducesAnimations(t *testing.T) {
	rep := runSolution(t, testSetup(t, 2, AnalysisHighlight), RunSciDP)
	if rep.Animations != 2 {
		t.Fatalf("animations = %d, want one GIF per timestamp", rep.Animations)
	}
	imgOnly := runSolution(t, testSetup(t, 2, AnalysisNone), RunSciDP)
	if imgOnly.Animations != 0 {
		t.Fatalf("Img-only should not animate, got %d", imgOnly.Animations)
	}
}

func TestAnlysAnimationStoredOnHDFS(t *testing.T) {
	mk := testSetup(t, 1, AnalysisHighlight)
	env, wl, k := mk()
	var err error
	k.Go("driver", func(p *sim.Proc) {
		_, err = RunSciDP(p, env, wl)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	k.Go("check", func(p *sim.Proc) {
		data, rerr := env.HDFS.ReadFile(p, env.BD.Node(0), "/results/scidp/anim/t0000.gif")
		if rerr != nil {
			t.Error(rerr)
			return
		}
		if len(data) < 6 || string(data[:6]) != "GIF89a" {
			t.Errorf("stored animation is not a GIF: %q", data[:6])
		}
	})
	k.Run()
}
