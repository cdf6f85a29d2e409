// Command scidpd is the multi-tenant SciDP job service over the
// simulated cluster: tenants submit grep/sort/write jobs, admission
// control enforces per-tenant quotas, and a two-level weighted
// fair-share scheduler with preemption and backfill divides the
// cluster's task slots.
//
// Usage:
//
//	scidpd -replay trace.json [-fifo] [-workers N]
//	       [-nodes N] [-slots N] [-json out.json] [-metrics out.prom]
//	       [-trace out.json]
//	scidpd -http ADDR [same cluster flags]
//	scidpd -gen out.json [-seed N] [-horizon SECONDS]
//
// -replay runs a recorded arrival trace headlessly on the deterministic
// virtual-time kernel and prints the run summary JSON to stdout: same
// trace + same flags ⇒ byte-identical schedule, outputs, and exports at
// any -workers count (0 inline, 1, 4, 64 — all the same bytes). -fifo
// swaps the fair-share scheduler for the strict-FIFO baseline
// (head-of-line blocking, no preemption, no backfill) — the comparison
// arm for the fair-share scheduler.
//
// -http serves the control API (POST /jobs, GET /jobs, GET /jobs/{id},
// GET /tenants, GET /metrics) from real goroutines bridged onto the
// kernel: each request applies its mutations and runs the simulation to
// quiescence, so responses reflect the submitted job's completed
// future.
//
// -gen synthesizes a trace with the load generator's default tenant mix
// (Poisson arrivals, one diurnal class) and writes it where -replay can
// read it back.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"scidp/internal/obs"
	"scidp/internal/solutions"
	"scidp/internal/tenant"
	"scidp/internal/tenant/loadgen"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scidpd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	replayPath := flag.String("replay", "", "replay this arrival trace headlessly and print the summary JSON")
	httpAddr := flag.String("http", "", "serve the control API on this address")
	genPath := flag.String("gen", "", "synthesize a default-mix trace to this file and exit")
	seed := flag.Int64("seed", 1, "with -gen: load generator seed")
	horizon := flag.Float64("horizon", 120, "with -gen: arrival window in virtual seconds")
	nodes := flag.Int("nodes", 4, "cluster DataNodes")
	slots := flag.Int("slots", 2, "task slots per node")
	workers := flag.Int("workers", 1, "data-plane ComputePool workers (0 = inline; output is byte-identical at every count)")
	fifo := flag.Bool("fifo", false, "strict-FIFO baseline scheduler instead of fair share")
	jsonPath := flag.String("json", "", "also write the replay summary JSON to this file")
	metricsPath := flag.String("metrics", "", "write a Prometheus-style metrics dump to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	flag.Parse()

	if err := checkCluster(*nodes, *slots, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "scidpd: %v\nusage: scidpd -replay trace.json | -http ADDR [-nodes N>0] [-slots N>0] [-workers N>=0] [flags]\n", err)
		os.Exit(2)
	}
	if *genPath != "" {
		gen(*genPath, *seed, *horizon)
		return
	}
	if (*replayPath == "") == (*httpAddr == "") {
		fail("exactly one of -replay or -http (or -gen) is required")
	}

	cfg := tenant.Config{FIFO: *fifo}
	if *httpAddr != "" {
		env, _ := newEnv(*nodes, *slots, *workers)
		defer env.Close()
		svc := tenant.New(env, cfg)
		fmt.Fprintf(os.Stderr, "scidpd: serving control API on %s (virtual time, %d slots)\n",
			*httpAddr, svc.TotalSlots())
		// A client that never finishes its headers must not hold a
		// connection forever.
		srv := &http.Server{Addr: *httpAddr, Handler: tenant.NewServer(svc).Handler(), ReadHeaderTimeout: 10 * time.Second}
		if err := srv.ListenAndServe(); err != nil {
			fail("%v", err)
		}
		return
	}

	sum, reg, err := replay(*replayPath, *nodes, *slots, *workers, cfg)
	if err != nil {
		fail("%v", err)
	}

	if *tracePath != "" {
		writeExport(*tracePath, reg.WriteChromeTrace)
	}
	if *metricsPath != "" {
		writeExport(*metricsPath, reg.WritePrometheus)
	}
	out, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(out))
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
	}

	if !sum.WithinQuota {
		fail("a tenant exceeded its quota (admission or scheduler bug)")
	}
}

// checkCluster refuses cluster flags no cluster has, which
// solutions.NewEnv would otherwise replace with its default size.
func checkCluster(nodes, slots, workers int) error {
	switch {
	case nodes < 1:
		return fmt.Errorf("-nodes %d: need at least one node", nodes)
	case slots < 1:
		return fmt.Errorf("-slots %d: need at least one slot a node", slots)
	case workers < 0:
		return fmt.Errorf("-workers %d: need 0 (inline) or more", workers)
	}
	return nil
}

// newEnv builds the simulated cluster the service runs over, with a
// fresh registry attached under the fixed process label the exports
// carry at every worker count.
func newEnv(nodes, slots, workers int) (*solutions.Env, *obs.Registry) {
	reg := obs.New()
	reg.SetProcess("scidpd")
	return solutions.NewEnv(solutions.EnvConfig{
		Nodes: nodes, SlotsPerNode: slots, ByteScale: 1,
		Obs: reg, Workers: workers,
	}), reg
}

// replay runs the arrival trace at path through a fresh service and
// returns the run summary, export digest included, with the registry
// the run recorded into.
func replay(path string, nodes, slots, workers int, cfg tenant.Config) (*tenant.Summary, *obs.Registry, error) {
	tr, err := tenant.LoadTrace(path)
	if err != nil {
		return nil, nil, err
	}
	env, reg := newEnv(nodes, slots, workers)
	defer env.Close()
	sum, err := tenant.Replay(tenant.New(env, cfg), tr)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	if sum.ExportDigest, err = reg.Digest(); err != nil {
		return nil, nil, err
	}
	return sum, reg, nil
}

func writeExport(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fail("%s: %v", path, err)
	}
}

// gen writes the bundled default mix: an interactive tenant streaming
// small grep jobs, a batch tenant with diurnal sort/write load, and a
// bursty low-priority tenant.
func gen(path string, seed int64, horizon float64) {
	tr, err := loadgen.Generate(loadgen.TraceSpec{
		Name: fmt.Sprintf("gen-seed%d", seed), Seed: seed, Horizon: horizon,
		Classes: []loadgen.Class{
			{Name: "inter", Rate: 1.00, Kinds: []string{"grep"}, Priority: 1,
				Quota: tenant.Quota{MaxQueued: 16, MaxRunning: 4, SlotShare: 0.75, Weight: 3}},
			{Name: "batch", Rate: 0.35, Diurnal: 0.8,
				Kinds: []string{"sort", "write"}, Sizes: []string{"small", "medium"},
				Quota: tenant.Quota{MaxQueued: 8, MaxRunning: 2, Weight: 1}},
			{Name: "burst", Rate: 0.60, Kinds: []string{"write"},
				Quota: tenant.Quota{MaxQueued: 4, MaxRunning: 1, SlotShare: 0.25, Weight: 1}},
		},
	})
	if err != nil {
		fail("%v", err)
	}
	out, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "scidpd: wrote %d arrivals over %.0fs to %s\n",
		len(tr.Arrivals), horizon, path)
}
