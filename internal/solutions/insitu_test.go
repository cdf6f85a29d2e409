package solutions

import (
	"strings"
	"testing"

	"scidp/internal/obs"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// workflowSetup generates blobs but does NOT install them: the simulation
// phase writes them.
func workflowSetup(t *testing.T, timestamps int) (map[string][]byte, *workloads.Dataset) {
	t.Helper()
	spec := workloads.NUWRFSpec{
		Timestamps: timestamps, Levels: 4, Lat: 16, Lon: 16, Vars: 4, Dir: "/nuwrf",
	}
	blobs, ds, err := workloads.GenerateBlobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	return blobs, ds
}

func runWorkflow(t *testing.T, timestamps int, inSitu bool, compute float64) *WorkflowReport {
	t.Helper()
	cfg := DefaultEnvConfig(1000, 50.0/4)
	cfg.Nodes = 4
	cfg.SlotsPerNode = 2
	cfg.PlotRes = 16
	return runWorkflowOn(t, cfg, timestamps, inSitu, compute)
}

func runWorkflowOn(t *testing.T, cfg EnvConfig, timestamps int, inSitu bool, compute float64) *WorkflowReport {
	t.Helper()
	blobs, ds := workflowSetup(t, timestamps)
	env := NewEnv(cfg)
	var rep *WorkflowReport
	var err error
	env.K.Go("driver", func(p *sim.Proc) {
		rep, err = RunWorkflow(p, env, WorkflowConfig{
			Blobs: blobs, Dataset: ds, Var: "QR",
			ComputeSecondsPerStep: compute, HPCNodes: 4, InSitu: inSitu,
		})
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestWorkflowSimulationWritesFiles(t *testing.T) {
	blobs, ds := workflowSetup(t, 3)
	env := NewEnv(DefaultEnvConfig(1000, 1))
	var err error
	env.K.Go("driver", func(p *sim.Proc) {
		comm := workloads.NewComm(env.K, env.BD, env.PFS)
		err = workloads.SimulateRun(p, workloads.SimSpec{
			Comm: comm, FS: env.PFS, Blobs: blobs, Files: ds.Files, ComputeSeconds: 1,
		})
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ds.Files {
		got := env.PFS.Get(f)
		if string(got) != string(blobs[f]) {
			t.Fatalf("simulation output %s does not match blob", f)
		}
	}
	if env.K.Now() < 3 {
		t.Fatalf("simulation took %v, want >= 3 (compute phases)", env.K.Now())
	}
}

func TestWorkflowBothStrategiesProduceAllImages(t *testing.T) {
	offline := runWorkflow(t, 4, false, 5)
	insitu := runWorkflow(t, 4, true, 5)
	want := 4 * 4 // timestamps x levels
	if offline.Images != want || insitu.Images != want {
		t.Fatalf("images: offline=%d insitu=%d want %d", offline.Images, insitu.Images, want)
	}
	if offline.Strategy != "offline" || insitu.Strategy != "in-situ" {
		t.Fatalf("strategies: %s / %s", offline.Strategy, insitu.Strategy)
	}
}

func TestInSituHidesAnalysisBehindSimulation(t *testing.T) {
	// With generous compute time between outputs, in-situ analysis
	// overlaps the simulation: its end-to-end time should be much closer
	// to the bare simulation time than the offline pipeline's.
	offline := runWorkflow(t, 6, false, 60)
	insitu := runWorkflow(t, 6, true, 60)
	if insitu.EndToEndSeconds >= offline.EndToEndSeconds {
		t.Fatalf("in-situ (%v) should beat offline (%v)", insitu.EndToEndSeconds, offline.EndToEndSeconds)
	}
	if insitu.AnalysisLagSeconds >= offline.AnalysisLagSeconds {
		t.Fatalf("in-situ lag (%v) should be below offline lag (%v)",
			insitu.AnalysisLagSeconds, offline.AnalysisLagSeconds)
	}
	// The simulation is the same simulation: mapping a landed file is
	// the Hadoop side's work and is charged there.
	if insitu.SimulationSeconds != offline.SimulationSeconds {
		t.Fatalf("in-situ simulation took %v, offline's %v", insitu.SimulationSeconds, offline.SimulationSeconds)
	}
}

// TestInSituOnOneSlot: the whole Hadoop side is one slot, and the stage's
// feed spends most of the run waiting for the next file. File i lands no
// earlier than the end of compute phase i and file i+1 no earlier than the
// end of the next; task i must start between the two, so the waiting feed
// is not what holds the slot.
func TestInSituOnOneSlot(t *testing.T) {
	const steps, compute = 4, 60.0
	reg := obs.New()
	cfg := DefaultEnvConfig(1000, 50.0/4)
	cfg.Nodes, cfg.SlotsPerNode, cfg.PlotRes, cfg.Obs = 1, 1, 16, reg
	rep := runWorkflowOn(t, cfg, steps, true, compute)
	if rep.Images != steps*4 {
		t.Fatalf("images = %d, want %d", rep.Images, steps*4)
	}
	var starts []float64
	for _, sp := range reg.Spans() {
		if strings.HasPrefix(sp.Name, "task:") {
			starts = append(starts, sp.Start)
		}
	}
	if len(starts) != steps {
		t.Fatalf("%d task attempts, want %d", len(starts), steps)
	}
	for i, at := range starts {
		if at < compute*float64(i+1) || at >= compute*float64(i+2) {
			t.Errorf("task %d started at %v, want within [%v, %v)", i, at, compute*float64(i+1), compute*float64(i+2))
		}
	}
}

func TestWorkflowMissingBlobFails(t *testing.T) {
	env := NewEnv(DefaultEnvConfig(1000, 1))
	var err error
	env.K.Go("driver", func(p *sim.Proc) {
		comm := workloads.NewComm(env.K, env.BD, env.PFS)
		err = workloads.SimulateRun(p, workloads.SimSpec{
			Comm: comm, FS: env.PFS, Blobs: map[string][]byte{}, Files: []string{"/ghost.nc"},
		})
	})
	env.K.Run()
	if err == nil {
		t.Fatal("missing blob should fail")
	}
}

func TestSimulateRunValidation(t *testing.T) {
	env := NewEnv(DefaultEnvConfig(1000, 1))
	var err error
	env.K.Go("driver", func(p *sim.Proc) {
		err = workloads.SimulateRun(p, workloads.SimSpec{})
	})
	env.K.Run()
	if err == nil {
		t.Fatal("empty spec should fail")
	}
}
