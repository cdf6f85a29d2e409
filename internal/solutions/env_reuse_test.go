package solutions

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// reuseSetup builds a small env with the dataset installed on the PFS,
// ready for SciDP runs; the zero tier leaves the cache tier off.
func reuseSetup(t *testing.T, workers int, tier ioengine.TierConfig) (*Env, *Workload) {
	t.Helper()
	spec := workloads.NUWRFSpec{
		Timestamps: 2, Levels: 4, Lat: 16, Lon: 16, Vars: 2, Dir: "/nuwrf",
	}
	blobs, ds, err := workloads.GenerateBlobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEnvConfig(1000, 1)
	cfg.Nodes = 2
	cfg.SlotsPerNode = 2
	cfg.PlotRes = 16
	cfg.Workers = workers
	cfg.CacheTier = tier
	env := NewEnv(cfg)
	workloads.Install(env.PFS, blobs)
	return env, &Workload{Dataset: ds, Var: "QR", Analysis: AnalysisNone}
}

// TestEnvSequentialRuns is the reuse contract: one env must support any
// number of sequential pipeline runs (each under a distinct Name so the
// Data Mapper's virtual inodes do not collide), with no state leaking
// from one run into the next — the second run must produce the same
// result volume as the first.
func TestEnvSequentialRuns(t *testing.T) {
	env, wl := reuseSetup(t, 2, ioengine.TierConfig{})
	defer env.Close()
	reps := make([]*Report, 2)
	for i := range reps {
		var runErr error
		name := fmt.Sprintf("scidp-run%d", i)
		env.K.Go(name, func(p *sim.Proc) {
			reps[i], runErr = RunSciDPWith(p, env, wl, SciDPOptions{Name: name})
		})
		env.K.Run()
		if runErr != nil {
			t.Fatalf("run %d: %v", i, runErr)
		}
		if reps[i].TotalSeconds <= 0 || reps[i].Images <= 0 {
			t.Fatalf("run %d produced nothing: %+v", i, reps[i])
		}
	}
	if reps[0].Images != reps[1].Images {
		t.Errorf("second run leaked state: images %d vs %d",
			reps[0].Images, reps[1].Images)
	}
	// The second run starts at a later absolute virtual time, so the
	// elapsed-time subtraction rounds differently in the last ulp —
	// compare with a nanosecond tolerance, not bit equality.
	if d := reps[0].ProcessSeconds - reps[1].ProcessSeconds; d > 1e-9 || d < -1e-9 {
		t.Errorf("second run leaked state: process time %.9fs vs %.9fs",
			reps[0].ProcessSeconds, reps[1].ProcessSeconds)
	}
}

// TestRunAfterCloseFailsLoudly: a run attempted on a closed env must
// panic at the entry point with a message naming the mistake, not
// deadlock or die deep inside the data plane.
func TestRunAfterCloseFailsLoudly(t *testing.T) {
	env, wl := reuseSetup(t, 2, ioengine.TierConfig{})
	env.Close()
	panicked := false
	env.K.Go("driver", func(p *sim.Proc) {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("RunSciDP on closed env did not panic")
				return
			}
			if !strings.Contains(fmt.Sprint(r), "closed Env") {
				t.Errorf("panic message does not name the closed env: %v", r)
			}
			panicked = true
		}()
		_, _ = RunSciDP(p, env, wl)
	})
	env.K.Run()
	if !panicked {
		t.Fatal("driver never ran")
	}
	if !env.Closed() {
		t.Fatal("Closed() lies")
	}
}

// TestCloseIdempotent: Close twice is fine, and Closed flips exactly
// once.
func TestCloseIdempotent(t *testing.T) {
	env, _ := reuseSetup(t, 1, ioengine.TierConfig{})
	if env.Closed() {
		t.Fatal("fresh env reports closed")
	}
	env.Close()
	env.Close()
	if !env.Closed() {
		t.Fatal("closed env reports open")
	}
}

// TestCacheTierKeepsOutputs is the cache tier's pipeline-level contract:
// two epochs over the same files on one env write byte-identical outputs
// with the tier on or off and at any data-plane worker count, and the
// second epoch is served from the tier.
func TestCacheTierKeepsOutputs(t *testing.T) {
	epochs := func(workers int, tier ioengine.TierConfig) (digest string, secondEpochHits int64) {
		env, wl := reuseSetup(t, workers, tier)
		defer env.Close()
		var first ioengine.TierStats
		for i := 0; i < 2; i++ {
			var runErr error
			name := fmt.Sprintf("epoch%d", i)
			env.K.Go(name, func(p *sim.Proc) {
				_, runErr = RunSciDPWith(p, env, wl, SciDPOptions{Name: name})
			})
			env.K.Run()
			if runErr != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, runErr)
			}
			if i == 0 {
				first = env.Tier.Stats()
			}
		}
		last := env.Tier.Stats()
		h := sha256.New()
		env.K.Go("audit", func(p *sim.Proc) {
			files, err := env.HDFS.Walk(p, "/results")
			if err != nil {
				t.Error(err)
				return
			}
			if len(files) == 0 {
				t.Error("the epochs wrote no output files")
			}
			sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
			for _, f := range files {
				data, err := env.HDFS.ReadFile(p, env.BD.Node(0), f.Path)
				if err != nil {
					t.Error(err)
					return
				}
				fmt.Fprintf(h, "%s %d\n", f.Path, len(data))
				h.Write(data)
			}
		})
		env.K.Run()
		return fmt.Sprintf("%x", h.Sum(nil)),
			last.LocalHits + last.PeerHits - first.LocalHits - first.PeerHits
	}
	off, _ := epochs(1, ioengine.TierConfig{})
	for _, workers := range []int{-1, 1, 4} {
		on, hits := epochs(workers, ioengine.TierConfig{NodeBytes: 4 << 20, Policy: ioengine.PolicyCost})
		if on != off {
			t.Errorf("workers=%d: outputs with the tier on differ from the tier-off run", workers)
		}
		if hits <= 0 {
			t.Errorf("workers=%d: second epoch served no tier hits", workers)
		}
	}
}
