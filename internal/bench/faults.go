package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"scidp/internal/chaos"
	"scidp/internal/core"
	"scidp/internal/mapreduce"
	"scidp/internal/obs"
	"scidp/internal/sim"
	"scidp/internal/solutions"
)

// FaultsRun is one sweep point's outcome: a SciDP processing job run
// under a chaos plan scaled to one fault rate, audited for output
// integrity and recovery activity.
type FaultsRun struct {
	// Rate is the probabilistic fault rate the plan was built with
	// (0 = baseline, no plan).
	Rate float64 `json:"rate"`
	// JCTSeconds is the job completion time (virtual seconds).
	JCTSeconds float64 `json:"jct_seconds"`
	// GoodputMBps is audited result bytes (logical) per JCT second.
	GoodputMBps float64 `json:"goodput_mbps"`
	// ResultBytes is the audited output volume (actual bytes).
	ResultBytes int64 `json:"result_bytes"`
	// OutputDigest is the sha256 over the sorted audited output files.
	OutputDigest string `json:"output_digest"`
	// ExportDigest is the sha256 over the Chrome-trace and Prometheus
	// exports of the run's private registry.
	ExportDigest string `json:"export_digest"`
	// Recovery activity observed in the run's metrics.
	Failovers      float64 `json:"failovers"`
	ReadRetries    float64 `json:"read_retries"`
	ReadArounds    float64 `json:"read_arounds"`
	TaskFailures   float64 `json:"task_failures"`
	SpecLaunched   float64 `json:"speculative_launched"`
	SpecWins       float64 `json:"speculative_wins"`
	SpecLosses     float64 `json:"speculative_losses"`
	FaultsInjected float64 `json:"faults_injected"`
	// OutputMatchesBaseline reports whether the audited output bytes are
	// identical to the fault-free baseline's.
	OutputMatchesBaseline bool `json:"output_matches_baseline"`
	// Deterministic reports whether a second run with the same seed and
	// plan reproduced both digests byte-for-byte.
	Deterministic bool `json:"deterministic"`
}

// FaultsResult is the `-exp faults` experiment's machine-readable output
// (scidp-bench -json).
type FaultsResult struct {
	// Solution is the data path under test.
	Solution string `json:"solution"`
	// Timestamps sizes the dataset (one map task per timestamp).
	Timestamps int `json:"timestamps"`
	// Seed drives every plan's PRNG.
	Seed int64 `json:"seed"`
	// BaselineJCT is the fault-free job completion time the plans'
	// windows are placed against.
	BaselineJCT float64 `json:"baseline_jct_seconds"`
	// Runs are the sweep points, baseline first.
	Runs []FaultsRun `json:"runs"`
}

// FaultsSeed is the default chaos seed for the faults experiment.
const FaultsSeed = 42

// faultsManifests is how many small replicated files the driver writes
// from node 1 before the job: node 1 is the DataNode every plan crashes,
// and the writer holds each block's first replica, so the post-job audit
// (reading from node 0) must fail over — exercising HDFS replica
// recovery even though SciDP's data path reads the PFS directly.
const faultsManifests = 8

func manifestBody(i int) []byte {
	line := fmt.Sprintf("chaos manifest %02d: first replica lives on node bd-1\n", i)
	var b bytes.Buffer
	for b.Len() < 2048 {
		b.WriteString(line)
	}
	return b.Bytes()
}

// FaultsPlan builds the chaos plan for one fault rate, with windows
// placed as fractions of the fault-free baseline duration d: a DataNode
// crash (permanent), an OST slowdown, a short full OST outage (shorter
// than the PFS Reader's total retry budget), metadata latency spikes on
// both file systems, and rate-scaled flaky reads, stragglers, and task
// failures.
func FaultsPlan(seed int64, d, rate float64) *chaos.Plan {
	if rate <= 0 {
		return nil
	}
	return &chaos.Plan{Seed: seed, Rules: []chaos.Rule{
		{Kind: chaos.KindDNCrash, At: 0.30 * d, Target: 1},
		{Kind: chaos.KindOSTDegrade, At: 0.20 * d, Until: 0.70 * d, Target: 2, Factor: 3},
		{Kind: chaos.KindOSTOutage, At: 0.40 * d, Until: 0.40*d + 2.0, Target: 5},
		{Kind: chaos.KindMDSLatency, At: 0.25 * d, Until: 0.60 * d, Factor: 5},
		{Kind: chaos.KindNNLatency, At: 0.25 * d, Until: 0.60 * d, Factor: 5},
		{Kind: chaos.KindFlakyReads, At: 0.35 * d, Until: 0.85 * d, Rate: rate, Corrupt: 0.25},
		{Kind: chaos.KindStraggler, At: 0.05 * d, Until: 0.80 * d, Rate: rate, Factor: 6},
		{Kind: chaos.KindTaskFail, At: 0.15 * d, Until: 0.75 * d, Rate: rate / 2},
	}}
}

// FaultsEnvConfig is the recovery-enabled testbed every faults run uses:
// 4 nodes x 2 slots (so the 16-task map phase runs in two waves and
// speculation has idle slots to place backups on), 2-way replication,
// 3 task attempts, map-task speculation, and a PFS read-retry budget
// whose backoff outlasts the plan's OST outage window.
func FaultsEnvConfig(s Scale) solutions.EnvConfig {
	cfg := s.EnvConfig(4)
	cfg.SlotsPerNode = 2
	cfg.Replication = 2
	cfg.MaxAttempts = 3
	cfg.Speculation = mapreduce.Speculation{Quantile: 0.75, Multiplier: 1.3, MinCompleted: 3, Interval: 0.25}
	cfg.ReadRetry = core.RetryPolicy{MaxRetries: 6, Backoff: 0.1}
	return cfg
}

// faultsOutcome is one run's raw measurements.
type faultsOutcome struct {
	rep          *solutions.Report
	outputDigest string
	exportDigest string
	resultBytes  int64
	reg          *obs.Registry
}

// faultsOneRun executes the SciDP pipeline once under the given plan on
// a fresh testbed with a private registry, then audits the output: every
// result and manifest file is read back from node 0 in sorted order and
// folded into a sha256.
func faultsOneRun(s Scale, timestamps int, plan *chaos.Plan, label string) (*faultsOutcome, error) {
	reg := obs.New()
	reg.SetProcess(label)
	cfg := FaultsEnvConfig(s)
	cfg.Obs = reg
	cfg.Chaos = plan
	out := &faultsOutcome{reg: reg}
	var err error
	out.rep, err = run(s, cfg, timestamps, solutions.AnalysisNone,
		func(p *sim.Proc, env *solutions.Env, wl *solutions.Workload) (*solutions.Report, error) {
			for i := 0; i < faultsManifests; i++ {
				path := fmt.Sprintf("/chaos-manifest/m%02d", i)
				if err := env.HDFS.WriteFile(p, env.BD.Node(1), path, manifestBody(i)); err != nil {
					return nil, err
				}
			}
			rep, err := solutions.RunSciDP(p, env, wl)
			if err != nil {
				return nil, err
			}
			out.outputDigest, out.resultBytes, err = auditDigest(p, env, "/results/scidp", "/chaos-manifest")
			return rep, err
		})
	if err != nil {
		return nil, fmt.Errorf("faults run %s: %w", label, err)
	}
	if out.exportDigest, err = reg.Digest(); err != nil {
		return nil, err
	}
	return out, nil
}

// auditDigest reads every file under the given directories back from
// node 0 in sorted path order and returns the sha256 over (path, size,
// bytes) plus the total byte count. Dead first replicas make this pass
// exercise HDFS failover.
func auditDigest(p *sim.Proc, env *solutions.Env, dirs ...string) (string, int64, error) {
	var paths []string
	for _, dir := range dirs {
		files, err := env.HDFS.Walk(p, dir)
		if err != nil {
			return "", 0, err
		}
		for _, f := range files {
			if f.Virtual {
				continue
			}
			paths = append(paths, f.Path)
		}
	}
	sort.Strings(paths)
	h := sha256.New()
	var total int64
	for _, path := range paths {
		data, err := env.HDFS.ReadFileRetry(p, env.BD.Node(0), path, 6, 0.05)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		total += int64(len(data))
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}

// counterSum reads one metric's value summed over a label's possible
// values (reading registers missing series at zero, so it must run only
// after the export digest is taken).
func counterSum(reg *obs.Registry, name, key string, vals ...string) float64 {
	if len(vals) == 0 {
		return reg.Counter(name).Value()
	}
	var sum float64
	for _, v := range vals {
		sum += reg.Counter(name, obs.L(key, v)).Value()
	}
	return sum
}

// recoverySeries are the eight recovery counters a fault plan moves, in
// the order the recovery table prints them: each is a metric summed over
// the label values it is recorded under, and fills one FaultsRun field.
var recoverySeries = []struct {
	label, name, key string
	vals             []string
	field            func(*FaultsRun) *float64
}{
	{"faults injected", "chaos/faults_injected_total", "kind", []string{
		chaos.KindOSTDegrade, chaos.KindOSTOutage, chaos.KindDNCrash,
		chaos.KindMDSLatency, chaos.KindNNLatency,
		chaos.KindFlakyReads, chaos.KindStraggler, chaos.KindTaskFail,
	}, func(fr *FaultsRun) *float64 { return &fr.FaultsInjected }},
	{"replica failovers", "hdfs/replica_failovers_total", "", nil, func(fr *FaultsRun) *float64 { return &fr.Failovers }},
	{"PFS read retries", "core/read_retries_total", "kind", []string{"flaky-read", "corrupt", "ost-down", "no-live-replica"}, func(fr *FaultsRun) *float64 { return &fr.ReadRetries }},
	{"PFS read-arounds", "core/read_around_total", "", nil, func(fr *FaultsRun) *float64 { return &fr.ReadArounds }},
	{"task failures", "mr/task_failures_total", "phase", []string{"map", "reduce"}, func(fr *FaultsRun) *float64 { return &fr.TaskFailures }},
	{"speculative launched", "mr/speculative_launched_total", "phase", []string{"map"}, func(fr *FaultsRun) *float64 { return &fr.SpecLaunched }},
	{"speculative wins", "mr/speculative_wins_total", "phase", []string{"map"}, func(fr *FaultsRun) *float64 { return &fr.SpecWins }},
	{"speculative losses", "mr/speculative_losses_total", "phase", []string{"map"}, func(fr *FaultsRun) *float64 { return &fr.SpecLosses }},
}

// fillCounters extracts the recovery counters from a run's registry.
func (fr *FaultsRun) fillCounters(reg *obs.Registry) {
	for _, rs := range recoverySeries {
		*rs.field(fr) = counterSum(reg, rs.name, rs.key, rs.vals...)
	}
}

// WriteRecovery prints the recovery table of a run under a fault plan:
// the eight recovery counters, one per line. Like fillCounters it reads
// missing series as zero by registering them.
func WriteRecovery(w io.Writer, reg *obs.Registry) {
	fmt.Fprintf(w, "\n== chaos & recovery counters ==\n")
	for _, rs := range recoverySeries {
		fmt.Fprintf(w, "%-22s %8.0f\n", rs.label, counterSum(reg, rs.name, rs.key, rs.vals...))
	}
}

// RunFaults sweeps the SciDP pipeline across injected fault rates: a
// fault-free baseline fixes the plan windows and the reference output
// digest, then each rate runs TWICE with the same seed — once for the
// measurement and once to verify that outputs and observability exports
// are byte-identical (the chaos subsystem's determinism guarantee).
func RunFaults(s Scale, timestamps int, rates []float64, seed int64) (*Table, *FaultsResult, error) {
	res := &FaultsResult{Solution: "scidp", Timestamps: timestamps, Seed: seed}

	base, err := faultsOneRun(s, timestamps, nil, "faults-rate-0")
	if err != nil {
		return nil, nil, err
	}
	res.BaselineJCT = base.rep.TotalSeconds

	sweep := append([]float64{0}, rates...)
	for _, rate := range sweep {
		plan := FaultsPlan(seed, res.BaselineJCT, rate)
		label := fmt.Sprintf("faults-rate-%g", rate)
		var out *faultsOutcome
		if rate == 0 {
			out = base
		} else if out, err = faultsOneRun(s, timestamps, plan, label); err != nil {
			return nil, nil, err
		}
		again, err := faultsOneRun(s, timestamps, plan, label)
		if err != nil {
			return nil, nil, err
		}
		fr := FaultsRun{
			Rate:                  rate,
			JCTSeconds:            out.rep.TotalSeconds,
			ResultBytes:           out.resultBytes,
			OutputDigest:          out.outputDigest,
			ExportDigest:          out.exportDigest,
			OutputMatchesBaseline: out.outputDigest == base.outputDigest,
			Deterministic: again.outputDigest == out.outputDigest &&
				again.exportDigest == out.exportDigest,
		}
		if fr.JCTSeconds > 0 {
			fr.GoodputMBps = float64(fr.ResultBytes) * s.ByteScale() / 1e6 / fr.JCTSeconds
		}
		fr.fillCounters(out.reg)
		res.Runs = append(res.Runs, fr)
	}

	t := &Table{
		ID:    "Faults",
		Title: "SciDP goodput and JCT vs. injected fault rate (chaos plans on the virtual clock)",
		Header: []string{"rate", "JCT (s)", "goodput (MB/s)", "slowdown",
			"failovers", "read retries", "read-arounds", "task failures",
			"spec wins", "faults injected", "output == baseline", "deterministic"},
		Notes: []string{
			fmt.Sprintf("testbed: 4 nodes x 2 slots, replication 2, 3 task attempts, map speculation, %d timestamps", timestamps),
			fmt.Sprintf("each plan: DN-1 crash + OST degrade/outage + MDS/NN latency + rate-scaled flaky reads, stragglers, task failures (seed %d)", seed),
			"every rate runs twice with the same seed; 'deterministic' checks output and export digests match byte-for-byte",
		},
	}
	for _, fr := range res.Runs {
		t.AddRow(
			fmt.Sprintf("%.2f", fr.Rate),
			secs(fr.JCTSeconds),
			fmt.Sprintf("%.1f", fr.GoodputMBps),
			ratio(fr.JCTSeconds/res.BaselineJCT),
			fmt.Sprintf("%.0f", fr.Failovers),
			fmt.Sprintf("%.0f", fr.ReadRetries),
			fmt.Sprintf("%.0f", fr.ReadArounds),
			fmt.Sprintf("%.0f", fr.TaskFailures),
			fmt.Sprintf("%.0f", fr.SpecWins),
			fmt.Sprintf("%.0f", fr.FaultsInjected),
			fmt.Sprintf("%v", fr.OutputMatchesBaseline),
			fmt.Sprintf("%v", fr.Deterministic),
		)
	}
	return t, res, nil
}
