package solutions

import (
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
	for name, run := range All() {
		rep := runSolution(t, mk, run)
		reports = append(reports, rep)
		names = append(names, name)
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

func TestImageBytesIdenticalAcrossSolutions(t *testing.T) {
	// Every data path must reconstruct the exact same grids: the PNGs in
	// HDFS must be byte-identical between SciDP and SciHadoop (and the
	// text paths, whose float formatting round-trips at 6 digits, must
	// produce the same image dimensions at minimum).
	mk := testSetup(t, 1, AnalysisNone)
	grab := func(run Runner, name string) map[string][]byte {
		env, wl, k := mk()
		var err error
		k.Go("driver", func(p *sim.Proc) {
			_, err = run(p, env, wl)
		})
		k.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		k.Go("collect", func(p *sim.Proc) {
			files, ferr := env.HDFS.Walk(p, "/results/"+name+"/img")
			if ferr != nil {
				t.Error(ferr)
				return
			}
			for _, f := range files {
				data, rerr := env.HDFS.ReadFile(p, env.BD.Node(0), f.Path)
				if rerr != nil {
					t.Error(rerr)
					return
				}
				// Strip the leading directory so keys align.
				out[f.Path[len("/results/"+name):]] = data
			}
		})
		k.Run()
		return out
	}
	scidp := grab(RunSciDP, "scidp")
	scihadoop := grab(RunSciHadoop, "scihadoop")
	if len(scidp) != 4 || len(scihadoop) != 4 {
		t.Fatalf("image counts: scidp=%d scihadoop=%d", len(scidp), len(scihadoop))
	}
	for k2, v := range scidp {
		if string(scihadoop[k2]) != string(v) {
			t.Fatalf("image %s differs between SciDP and SciHadoop", k2)
		}
	}
}

func TestSciDPFastestSciHadoopBeatsTextPaths(t *testing.T) {
	mk := testSetup(t, 4, AnalysisNone)
	totals := map[string]float64{}
	for name, run := range All() {
		totals[name] = runSolution(t, mk, run).TotalSeconds
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

func TestDataPathProperties(t *testing.T) {
	mk := testSetup(t, 2, AnalysisNone)
	reps := map[string]*Report{}
	for name, run := range All() {
		reps[name] = runSolution(t, mk, run)
	}
	// Conversion: text paths pay it; netCDF-aware paths do not.
	for _, name := range []string{"naive", "vanilla-hadoop", "porthadoop"} {
		if reps[name].ConvertSeconds <= 0 || reps[name].TextBytes <= 0 {
			t.Errorf("%s should require conversion: %+v", name, reps[name])
		}
	}
	for _, name := range []string{"scihadoop", "scidp"} {
		if reps[name].ConvertSeconds != 0 || reps[name].TextBytes != 0 {
			t.Errorf("%s should not convert: %+v", name, reps[name])
		}
	}
	// Copy: PortHadoop and SciDP move no data.
	for _, name := range []string{"porthadoop", "scidp"} {
		if reps[name].CopySeconds != 0 || reps[name].CopiedBytes != 0 {
			t.Errorf("%s should not copy: %+v", name, reps[name])
		}
	}
	for _, name := range []string{"naive", "vanilla-hadoop", "scihadoop"} {
		if reps[name].CopiedBytes <= 0 {
			t.Errorf("%s should copy data: %+v", name, reps[name])
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

func TestTableIMatrix(t *testing.T) {
	rows := TableI()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[4].Solution != "SciDP" || rows[4].Conversion || rows[4].Copy != "No" {
		t.Fatalf("SciDP row = %+v", rows[4])
	}
	if !rows[0].Conversion || rows[0].Copy != "Sequential" {
		t.Fatalf("Naive row = %+v", rows[0])
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
	vanilla := runSolution(t, mk, RunVanillaHadoop)
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
// reaches a SciDP map as a flat block. The staged run maps the whole
// directory and RunSciDP maps whatever Dataset.Files lists; either run
// returns an error for the flat block instead of panicking on it.
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
	for name, run := range All() {
		rep := runSolution(t, mk, run)
		lines = append(lines, fmt.Sprintf("%s:%s", name, rep.Summary()))
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
