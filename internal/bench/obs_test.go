package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/obs"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/workloads"
)

// exportRun executes one quick scidp run with a fresh registry attached
// and returns both export streams.
func exportRun(t *testing.T) (trace, prom []byte) {
	t.Helper()
	prev := Obs
	defer func() { Obs = prev }()
	Obs = obs.New()
	ioengine.RegisterObs(Obs)
	ClearCache() // a shared dataset blob cache would mask install-order effects
	if _, err := RunOne(QuickScale(), 4, 0, 0, "scidp"); err != nil {
		t.Fatal(err)
	}
	var tb, pb bytes.Buffer
	if err := Obs.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := Obs.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes()
}

// TestExportsDeterministicAcrossRuns is the acceptance check: two
// identical runs must produce byte-identical Chrome-trace and
// Prometheus exports.
func TestExportsDeterministicAcrossRuns(t *testing.T) {
	t1, p1 := exportRun(t)
	t2, p2 := exportRun(t)
	if !bytes.Equal(t1, t2) {
		t.Error("Chrome traces differ between identical runs")
	}
	if !bytes.Equal(p1, p2) {
		t.Error("Prometheus dumps differ between identical runs")
	}
}

// TestTraceCoversSpanTree parses the Chrome trace and asserts the span
// tree reaches every level the issue names: job, phase, task, reader
// call, and stripe flows, each linked to its parent.
func TestTraceCoversSpanTree(t *testing.T) {
	raw, prom := exportRun(t)
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	levels := map[string]int{}
	linked := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Name, "job:"):
			levels["job"]++
		case strings.HasPrefix(ev.Name, "phase:"):
			levels["phase"]++
		case strings.HasPrefix(ev.Name, "task:"):
			levels["task"]++
		case strings.HasPrefix(ev.Name, "PFSReader."):
			levels["read"]++
		case ev.Name == "pfs.ReadAt":
			levels["pfs"]++
		case ev.Name == "flow":
			levels["flow"]++
			if _, ok := ev.Args["flow"]; ok {
				linked++ // cross-reference into the kernel flow events
			}
		}
		if _, ok := ev.Args["parent"]; ok && ev.Name != "job:scidp" {
			continue
		}
	}
	for _, want := range []string{"job", "phase", "task", "read", "pfs", "flow"} {
		if levels[want] == 0 {
			t.Errorf("span tree missing %q level (have %v)", want, levels)
		}
	}
	if linked == 0 {
		t.Error("no flow span carries a kernel flow-id cross-reference")
	}

	for _, series := range []string{
		`pfs_ost_read_bytes_total{ost="ost-0"}`,
		"ioengine_cache_hit_ratio",
		`hdfs_block_reads_total{locality="local"}`,
		`hdfs_block_reads_total{locality="remote"}`,
		"sim_resource_bytes_total",
		"mr_task_seconds_bucket",
	} {
		if !strings.Contains(string(prom), series) {
			t.Errorf("metrics dump missing %s", series)
		}
	}
}

// exportRunMode is exportRun with the kernel's fair-share scheduler
// pinned to a mode: the full scidp pipeline runs on a fresh registry and
// both export streams are returned.
func exportRunMode(t *testing.T, mode sim.FairShareMode) (trace, prom []byte) {
	t.Helper()
	prev := Obs
	defer func() { Obs = prev }()
	Obs = obs.New()
	ioengine.RegisterObs(Obs)
	ClearCache()
	s := QuickScale()
	blobs, ds, err := dataset(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := obsEnvConfig(s.EnvConfig(0), "scidp@4ts")
	env := solutions.NewEnv(cfg)
	env.K.SetFairShareMode(mode)
	workloads.Install(env.PFS, blobs)
	wl := &solutions.Workload{Dataset: ds, Var: "QR"}
	var rerr error
	env.K.Go("driver", func(p *sim.Proc) {
		_, rerr = solutions.RunSciDP(p, env, wl)
	})
	env.K.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	env.ExportSimMetrics()
	var tb, pb bytes.Buffer
	if err := Obs.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := Obs.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes()
}

// TestExportsIdenticalAcrossSchedulerModes is the scale-out refactor's
// acceptance check: the incremental fair-share scheduler must reproduce
// the full-recompute oracle bit for bit at the pipeline level — the
// whole scidp run's Chrome trace and Prometheus dump byte-identical
// across modes.
func TestExportsIdenticalAcrossSchedulerModes(t *testing.T) {
	ti, pi := exportRunMode(t, sim.FairShareIncremental)
	tf, pf := exportRunMode(t, sim.FairShareFull)
	if !bytes.Equal(ti, tf) {
		t.Error("Chrome traces differ between incremental and full-recompute scheduling")
	}
	if !bytes.Equal(pi, pf) {
		t.Error("Prometheus dumps differ between incremental and full-recompute scheduling")
	}
}

// ClearCache drops memoized datasets (benchmarks that sweep many sizes
// can use it to bound memory).
func ClearCache() { blobCache = map[datasetKey]cachedDataset{} }
