package chaos_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"scidp/internal/bench"
	"scidp/internal/chaos"
	"scidp/internal/obs"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/workloads"
)

// testPlan exercises every fault kind with windows sized for the quick
// geometry: a permanent DataNode crash, OST degradation, a short full
// OST outage (inside the read-retry budget), metadata latency spikes,
// and probabilistic flaky reads / stragglers / task failures.
const testPlan = `{
	"seed": 1234,
	"rules": [
		{"kind": "dn-crash", "at": 20, "target": 1},
		{"kind": "ost-degrade", "at": 10, "until": 60, "target": 3, "factor": 3},
		{"kind": "ost-outage", "at": 30, "until": 32, "target": 5},
		{"kind": "mds-latency", "at": 15, "until": 40, "factor": 4},
		{"kind": "nn-latency", "at": 15, "until": 40, "factor": 4},
		{"kind": "flaky-reads", "at": 18, "until": 70, "rate": 0.1, "corrupt": 0.3},
		{"kind": "straggler", "at": 5, "until": 70, "rate": 0.15, "factor": 4},
		{"kind": "task-fail", "at": 10, "until": 60, "rate": 0.05}
	]
}`

// chaosRun is one full pipeline execution under a plan on a fresh
// recovery-enabled testbed: it returns the sha256 over every /results
// file (read back in sorted order) and the raw export byte streams.
// workers sizes the data-plane compute pool (<= 0 = inline). Solution
// "scidp-anlys" is SciDP with the top-1 % analysis, so its reducers also
// write the analysis CSV and one GIF per timestamp.
func chaosRun(t *testing.T, solution string, plan *chaos.Plan, workers int) (digest string, trace, prom []byte) {
	t.Helper()
	s := bench.QuickScale()
	cfg := bench.FaultsEnvConfig(s)
	reg := obs.New()
	reg.SetProcess("chaos-test-" + solution)
	cfg.Obs = reg
	cfg.Chaos = plan
	cfg.Workers = workers
	env := solutions.NewEnv(cfg)
	defer env.Close()
	ds, err := workloads.Generate(env.PFS, s.Spec(16))
	if err != nil {
		t.Fatal(err)
	}
	wl := &solutions.Workload{Dataset: ds, Var: "QR"}
	if solution == "scidp-anlys" {
		wl.Analysis = solutions.AnalysisTop1Pct
	}
	var runErr error
	env.K.Go("driver", func(p *sim.Proc) {
		switch solution {
		case "scidp", "scidp-anlys":
			_, runErr = solutions.RunSciDP(p, env, wl)
		default:
			runErr = fmt.Errorf("unknown solution %q", solution)
			for _, d := range solutions.All() {
				if d.Name() == solution {
					_, runErr = d.Run(p, env, wl)
				}
			}
		}
		if runErr != nil {
			return
		}
		digest, runErr = resultsDigest(p, env)
	})
	env.K.Run()
	env.ExportSimMetrics()
	if runErr != nil {
		t.Fatalf("%s under chaos: %v", solution, runErr)
	}
	var tb, pb bytes.Buffer
	if err := reg.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	return digest, tb.Bytes(), pb.Bytes()
}

// resultsDigest reads every /results file back from node 0 in sorted
// order and folds (path, size, bytes) into a sha256.
func resultsDigest(p *sim.Proc, env *solutions.Env) (string, error) {
	files, err := env.HDFS.Walk(p, "/results")
	if err != nil {
		return "", err
	}
	var paths []string
	for _, f := range files {
		if !f.Virtual {
			paths = append(paths, f.Path)
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return "", fmt.Errorf("no result files to digest")
	}
	h := sha256.New()
	for _, path := range paths {
		data, err := env.HDFS.ReadFileRetry(p, env.BD.Node(0), path, 6, 0.05)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestDeterminismUnderChaos is the subsystem's headline guarantee: the
// same seed and plan produce byte-identical job output AND byte-identical
// observability exports across runs — for a PFS-direct workload (SciDP:
// striped netCDF reads, replica failover only on the result audit) and an
// HDFS-backed one (Vanilla Hadoop: distcp onto HDFS, replicated block
// reads in the map phase).
func TestDeterminismUnderChaos(t *testing.T) {
	for _, solution := range []string{"scidp", "vanilla-hadoop"} {
		t.Run(solution, func(t *testing.T) {
			plan, err := chaos.ParsePlan([]byte(testPlan))
			if err != nil {
				t.Fatal(err)
			}
			d1, trace1, prom1 := chaosRun(t, solution, plan, 0)
			d2, trace2, prom2 := chaosRun(t, solution, plan, 0)
			if d1 != d2 {
				t.Errorf("output digests differ across same-seed runs: %s vs %s", d1, d2)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Error("Chrome-trace exports differ across same-seed runs")
			}
			if !bytes.Equal(prom1, prom2) {
				t.Error("Prometheus exports differ across same-seed runs")
			}

			// The fault-free run must produce the same output bytes: the
			// chaos plan may only cost time, never change results.
			clean, _, _ := chaosRun(t, solution, nil, 0)
			if clean != d1 {
				t.Errorf("output under chaos differs from fault-free output: %s vs %s", d1, clean)
			}
		})
	}
}

// TestDeterminismAcrossWorkerCounts extends the headline guarantee to
// the two-plane executor: with the data plane enabled, the worker count
// is invisible — the inline pool (workers=-1), workers=1 and workers=4
// produce byte-identical output digests and observability exports, with
// and without a chaos plan (task failures, stragglers and speculation
// included), and two same-seed runs at workers=4 are byte-identical too.
// Plotting is a fork site (fork before the Plot charges, one join after),
// so this also pins that the join lands on the same event at every size;
// the Anlys leg does the same for the reducers' animation (forked before
// the PNG writes, joined before the GIF write).
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	plan, err := chaos.ParsePlan([]byte(testPlan))
	if err != nil {
		t.Fatal(err)
	}
	legs := []string{"scidp", "scidp-anlys"}
	digests := map[string]string{} // by plan name + "/" + solution
	for _, tc := range []struct {
		name string
		plan *chaos.Plan
	}{
		{"chaos", plan},
		{"clean", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, solution := range legs {
				t.Run(solution, func(t *testing.T) {
					d1, trace1, prom1 := chaosRun(t, solution, tc.plan, 1)
					for _, workers := range []int{-1, 4, 4} {
						// The second workers=4 leg is the same-seed repeat:
						// pooled runs are reproducible against themselves,
						// not just against workers=1.
						d, trace, prom := chaosRun(t, solution, tc.plan, workers)
						if d != d1 {
							t.Errorf("output digest at workers=%d differs from workers=1: %s vs %s", workers, d, d1)
						}
						if !bytes.Equal(trace, trace1) {
							t.Errorf("Chrome-trace export at workers=%d differs from workers=1", workers)
						}
						if !bytes.Equal(prom, prom1) {
							t.Errorf("Prometheus export at workers=%d differs from workers=1", workers)
						}
					}
					digests[tc.name+"/"+solution] = d1
				})
			}
		})
	}
	// Faults may only cost time: abandoned and discarded attempts leave no
	// trace in the pooled runs' output either.
	for _, solution := range legs {
		if chaosD, cleanD := digests["chaos/"+solution], digests["clean/"+solution]; chaosD != cleanD {
			t.Errorf("%s: pooled output under chaos differs from fault-free output: %s vs %s", solution, chaosD, cleanD)
		}
	}
}

// TestChaosInjectsAndRecovers asserts the plan actually bites: the run
// records injected faults and the recovery machinery does work.
func TestChaosInjectsAndRecovers(t *testing.T) {
	plan, err := chaos.ParsePlan([]byte(testPlan))
	if err != nil {
		t.Fatal(err)
	}
	s := bench.QuickScale()
	cfg := bench.FaultsEnvConfig(s)
	reg := obs.New()
	cfg.Obs = reg
	cfg.Chaos = plan
	env := solutions.NewEnv(cfg)
	ds, err := workloads.Generate(env.PFS, s.Spec(16))
	if err != nil {
		t.Fatal(err)
	}
	wl := &solutions.Workload{Dataset: ds, Var: "QR"}
	var runErr error
	env.K.Go("driver", func(p *sim.Proc) {
		_, runErr = solutions.RunSciDP(p, env, wl)
	})
	env.K.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	var injected float64
	for _, kind := range []string{
		chaos.KindOSTDegrade, chaos.KindOSTOutage, chaos.KindDNCrash,
		chaos.KindMDSLatency, chaos.KindNNLatency,
		chaos.KindFlakyReads, chaos.KindStraggler, chaos.KindTaskFail,
	} {
		injected += reg.Counter("chaos/faults_injected_total", obs.L("kind", kind)).Value()
	}
	if injected == 0 {
		t.Fatal("plan injected no faults")
	}
	var retries float64
	for _, kind := range []string{"flaky-read", "corrupt", "ost-down", "no-live-replica"} {
		retries += reg.Counter("core/read_retries_total", obs.L("kind", kind)).Value()
	}
	if retries == 0 {
		t.Fatal("no PFS read retries despite flaky reads in the plan")
	}
}
