// Package solutions implements the five data paths the paper compares
// (Table I): Naive, Vanilla Hadoop, PortHadoop, SciHadoop, and SciDP —
// each as a pipeline over the same two-cluster testbed. The workload is
// the NU-WRF analysis/visualization of Section IV: plot one image per
// level per timestamp of a selected variable, optionally followed by SQL
// analysis (highlight / top-1%), with outputs written to HDFS.
//
// Timing conventions follow the paper's evaluation:
//
//   - Conversion time (netCDF -> CSV text) is measured but EXCLUDED from
//     totals ("we do not count the conversion time into the total time in
//     any tests of this paper").
//   - Data copy is measured separately and included in the total, since
//     Naive/Vanilla/SciHadoop cannot overlap it with processing.
//   - Processing runs on the Hadoop cluster (or one node, for Naive).
package solutions

import (
	"fmt"

	"scidp/internal/chaos"
	"scidp/internal/cluster"
	"scidp/internal/core"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/mapreduce"
	"scidp/internal/obs"
	"scidp/internal/pfs"
	"scidp/internal/scifmt"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// CostModel holds the modeled CPU constants, expressed at PAPER scale
// (logical bytes / paper levels). Env applies the byte and level scale
// factors when charging.
type CostModel struct {
	// TaskStartup is the per-task container/JVM launch cost, seconds.
	TaskStartup float64
	// PlotPerLevel is the parallel image-plotting cost per (paper) level.
	PlotPerLevel float64
	// PlotPerLevelSeq is the Naive solution's per-level plot cost —
	// slightly lower, "without resource contention in memory and disk
	// bandwidth" (Section V-D).
	PlotPerLevelSeq float64
	// TextParsePerMB is read.table's cost per logical MB of CSV text —
	// the Convert bar that dominates Figure 7 for text-based solutions.
	TextParsePerMB float64
	// TextFormatPerMB is the netCDF-to-CSV conversion cost per logical
	// MB of produced text.
	TextFormatPerMB float64
	// TextIndexPerMB is PortHadoop's extra per-MB cost over raw text:
	// the scan-based indexing / boundary re-alignment pass a flat block
	// mapping needs because the converted text lost the netCDF metadata
	// ("PortHadoop addresses this issue by reading extra data across the
	// boundaries ... or by a scan-based indexing to align data records",
	// Section III-B).
	TextIndexPerMB float64
	// BinConvertPerMB is binary-to-R-structure conversion per logical
	// raw MB ("can be converted to R structure in a very short time").
	BinConvertPerMB float64
	// DecompressPerMB is DEFLATE inflation per logical raw MB.
	DecompressPerMB float64
	// AnalysisPerMB is SQL/statistical analysis per logical raw MB.
	AnalysisPerMB float64
}

// DefaultCostModel returns constants calibrated against the paper's
// Figure 7 (read ~2 s/task, Convert dominating text paths at ~3.5 s per
// level of text, Plot ~0.55 s/level, SciDP reading a 50-level variable in
// 1.75 s). The read path's two rates are core's, the one place they are
// spelled.
func DefaultCostModel() CostModel {
	read := core.DefaultCostModel()
	return CostModel{
		TaskStartup:     1.0,
		PlotPerLevel:    0.55,
		PlotPerLevelSeq: 0.45,
		TextParsePerMB:  0.06,
		TextFormatPerMB: 0.04,
		TextIndexPerMB:  0.055,
		BinConvertPerMB: read.ConvertPerRawMB,
		DecompressPerMB: read.DecompressPerRawMB,
		AnalysisPerMB:   0.002,
	}
}

// EnvConfig sizes the testbed.
type EnvConfig struct {
	// Nodes is the Hadoop node count (the paper defaults to 8).
	Nodes int
	// SlotsPerNode is the task-slot count (the paper runs 8).
	SlotsPerNode int
	// ByteScale divides every bandwidth: one actual byte in this run
	// stands for ByteScale logical bytes at paper scale.
	ByteScale float64
	// LevelScale is paper-levels per generated level (50 / spec.Levels).
	LevelScale float64
	// PlotRes is the real render resolution used for output PNGs.
	PlotRes int
	// Cost is the CPU cost model at paper scale.
	Cost CostModel
	// Obs, when non-nil, attaches the observability registry to the
	// testbed: the kernel's clock and span tracer, the PFS and HDFS
	// metric producers, and an unbounded flow tracer for resource
	// timelines. Runs stay metric-free (and pay no overhead beyond a nil
	// check) when it is nil.
	Obs *obs.Registry
	// Chaos, when non-nil, is the fault plan armed against this testbed:
	// its scheduled rules become kernel events and its injector becomes
	// every job's TaskFaults source.
	Chaos *chaos.Plan
	// Replication overrides the HDFS replica count (0 keeps the default
	// of 1; raise it so DataNode crashes leave survivors to fail over
	// to).
	Replication int
	// MaxAttempts bounds task attempts for every job run in this env
	// (0 keeps the engine default of 1 — no retry).
	MaxAttempts int
	// Speculation is the map-task backup policy for every job in this
	// env (zero disables).
	Speculation mapreduce.Speculation
	// ReadRetry is the PFS Reader recovery policy handed to SciDP input
	// formats (zero = fail fast).
	ReadRetry core.RetryPolicy
	// CacheTier, when enabled (NodeBytes > 0), provisions each Hadoop
	// node with a burst buffer and builds the cluster-wide cooperative
	// cache every PFS and HDFS read in this env consults.
	CacheTier ioengine.TierConfig
	// Workers is the number of OS workers in the data-plane compute pool;
	// <= 0 runs the byte work inline on the kernel thread. The event
	// schedule, and so every output, is the same at any value. Call
	// Env.Close when done with a pooled env.
	Workers int
}

// DefaultEnvConfig mirrors the paper's 8-node testbed at the given scale
// factors.
func DefaultEnvConfig(byteScale, levelScale float64) EnvConfig {
	return EnvConfig{
		Nodes:        8,
		SlotsPerNode: 8,
		ByteScale:    byteScale,
		LevelScale:   levelScale,
		PlotRes:      32,
		Cost:         DefaultCostModel(),
	}
}

// Env is one freshly built two-cluster testbed.
type Env struct {
	// K is the simulation kernel.
	K *sim.Kernel
	// BD is the Hadoop cluster.
	BD *cluster.Cluster
	// PFS is the parallel file system (Lustre stand-in).
	PFS *pfs.FS
	// HDFS runs over the BD cluster.
	HDFS *hdfs.FS
	// IL is the cross-cluster link.
	IL *cluster.Interlink
	// Registry holds the scientific formats.
	Registry *scifmt.Registry
	// Cfg is the building configuration.
	Cfg EnvConfig
	// Obs is the attached observability registry (nil when detached).
	Obs *obs.Registry
	// Tracer is the kernel flow tracer, attached only when Obs is —
	// feed it to Tracer.ExportResourceMetrics after K.Run for the
	// per-resource utilization series.
	Tracer *sim.Tracer
	// Chaos is the armed fault injector (nil when no plan was given).
	// It doubles as every job's TaskFaults source via Faults().
	Chaos *chaos.Injector
	// Tier is the cooperative cache tier over the BD nodes' burst
	// buffers (nil when Cfg.CacheTier is disabled). Shared by every job
	// and tenant of this env.
	Tier *ioengine.Tier

	// pool is the data-plane worker pool (nil when Workers <= 0).
	pool *sim.ComputePool
	// mounts holds each BD node's PFS mount, made on first use.
	mounts map[*cluster.Node]*pfs.Client
	// closed records Close: run entry points refuse a closed env.
	closed bool
}

// Close releases resources the env owns — today the data-plane worker
// pool, when one was attached — and marks the env closed: any later
// Run* call panics instead of silently simulating on released
// resources. Safe to call on any env, once or more.
func (e *Env) Close() {
	e.closed = true
	if e.pool != nil {
		e.pool.Close()
	}
}

// Closed reports whether Close has been called. An env stays reusable
// for any number of sequential runs until then.
func (e *Env) Closed() bool { return e.closed }

// ensureOpen is the loud-failure guard at every run entry point. A
// closed env may have a drained worker pool; starting a pipeline on it
// would either deadlock or panic deep inside the data plane, so fail
// at the boundary with a message that names the actual mistake.
func (e *Env) ensureOpen() {
	if e.closed {
		panic("solutions: run on closed Env (Close was already called)")
	}
}

// Faults returns the env's TaskFaults source for MapReduce jobs — the
// chaos injector when a plan is armed, nil otherwise. (A nil *Injector
// would satisfy the interface but still be inert; returning a typed nil
// into an interface field is avoided for clarity.)
func (e *Env) Faults() mapreduce.TaskFaults {
	if e.Chaos == nil {
		return nil
	}
	return e.Chaos
}

// job is the template every job this env runs starts from: its cluster
// (whose nodes carry the slot count), observability, task startup, retry
// budget and chaos injector. Speculation is not in it: only a job whose
// map tasks publish through Emit alone may run two attempts of one at
// once, and runProcessing's is the only such job.
func (e *Env) job(name string) *mapreduce.Job {
	return &mapreduce.Job{
		Name: name, Cluster: e.BD, Obs: e.Obs, TaskStartup: e.Cfg.Cost.TaskStartup,
		MaxAttempts: e.Cfg.MaxAttempts, Faults: e.Faults(),
	}
}

// pfsInput is SciDP's input format over the Data Mapper mirror under dir:
// each dummy block is resolved by a PFS Reader on its task's node, under
// the env's observability and read-retry policy. Callers add what the
// read costs the task's CPU.
func (e *Env) pfsInput(dir string) *core.InputFormat {
	return &core.InputFormat{
		HDFS: e.HDFS, Dir: dir, Registry: e.Registry, MountFor: e.Mount,
		Obs: e.Obs, Retry: e.Cfg.ReadRetry,
	}
}

// sciCost is the CPU a SciDP task pays per raw MB it read, at this env's
// byte scale: inflate, then binary-to-R conversion.
func (e *Env) sciCost() core.CostModel {
	return core.CostModel{
		DecompressPerRawMB: e.Cfg.Cost.DecompressPerMB * e.Cfg.ByteScale,
		ConvertPerRawMB:    e.Cfg.Cost.BinConvertPerMB * e.Cfg.ByteScale,
	}
}

// NewEnv builds the testbed: an 8-node (by default) Hadoop cluster with
// HDFS, the Lustre-like PFS (2 OSS x 12 OST), and a 2x10GbE interlink,
// all bandwidths divided by ByteScale.
func NewEnv(cfg EnvConfig) *Env {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 8
	}
	if cfg.SlotsPerNode <= 0 {
		cfg.SlotsPerNode = 8
	}
	if cfg.ByteScale <= 0 {
		cfg.ByteScale = 1
	}
	if cfg.LevelScale <= 0 {
		cfg.LevelScale = 1
	}
	if cfg.PlotRes <= 0 {
		cfg.PlotRes = 64
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	k := sim.NewKernel()
	bdCfg := cluster.DefaultHardware(cfg.Nodes, cfg.SlotsPerNode).Scaled(cfg.ByteScale)
	bdCfg.BurstBufferBytes = cfg.CacheTier.NodeBytes
	bd := cluster.New(k, "bd", bdCfg)
	pcfg := pfs.DefaultConfig().Scaled(cfg.ByteScale)
	pfsFS := pfs.New(k, pcfg)
	hcfg := hdfs.DefaultConfig()
	hcfg.BlockSize = int64(float64(hcfg.BlockSize) / cfg.ByteScale)
	if hcfg.BlockSize < 1024 {
		hcfg.BlockSize = 1024
	}
	if cfg.Replication > 0 {
		hcfg.Replication = cfg.Replication
	}
	hfs := hdfs.New(k, bd, hcfg)
	il := cluster.NewInterlink(2*1.25e9/cfg.ByteScale, 0.0002)
	env := &Env{
		K:        k,
		BD:       bd,
		PFS:      pfsFS,
		HDFS:     hfs,
		IL:       il,
		Registry: scifmt.Default(),
		Cfg:      cfg,
	}
	if cfg.CacheTier.Enabled() {
		env.Tier = ioengine.NewTier(cfg.CacheTier, bd, pfsFS.MeanQueueDepth)
		for _, n := range bd.Nodes {
			env.Tier.Register(n.Name, n.BurstBufferBytes)
		}
	}
	if cfg.Obs != nil {
		env.Obs = cfg.Obs
		k.SetObs(cfg.Obs)
		pfsFS.SetObs(cfg.Obs)
		hfs.SetObs(cfg.Obs)
		env.Tier.RegisterObs(cfg.Obs)
		env.Tracer = &sim.Tracer{}
		k.SetTracer(env.Tracer)
	}
	if cfg.Chaos != nil {
		env.Chaos = chaos.New(cfg.Chaos)
		env.Chaos.Arm(k, pfsFS, hfs, cfg.Obs)
	}
	if cfg.Workers > 0 {
		env.pool = sim.NewComputePool(cfg.Workers)
		k.SetComputePool(env.pool)
	}
	return env
}

// ExportSimMetrics derives the per-resource utilization series from the
// flow tracer into the attached registry. Call it after K.Run; no-op
// when the env was built without observability.
func (e *Env) ExportSimMetrics() {
	if e.Tracer != nil {
		e.Tracer.ExportResourceMetrics(e.Obs)
	}
}

// Mount returns a Hadoop node's PFS client, one per node: transfers cross the
// interlink and the node's NIC.
func (e *Env) Mount(n *cluster.Node) *pfs.Client {
	c := e.mounts[n]
	if c == nil {
		c = e.PFS.NewClient(e.IL.Link, n.NIC)
		if e.mounts == nil {
			e.mounts = map[*cluster.Node]*pfs.Client{}
		}
		e.mounts[n] = c
	}
	return c
}

// scaleMB converts actual bytes to logical MB for cost charging.
func (e *Env) scaleMB(actualBytes int) float64 {
	return float64(actualBytes) * e.Cfg.ByteScale / 1e6
}

// plotCharge is the modeled seconds to plot one generated level.
func (e *Env) plotCharge(sequential bool) float64 {
	per := e.Cfg.Cost.PlotPerLevel
	if sequential {
		per = e.Cfg.Cost.PlotPerLevelSeq
	}
	return per * e.Cfg.LevelScale
}

// AnalysisKind selects the Anlys workload's analysis (Figure 9).
type AnalysisKind int

// Figure 9's three cases.
const (
	// AnalysisNone is the Img-only baseline.
	AnalysisNone AnalysisKind = iota
	// AnalysisHighlight marks the top 10 data points on the images.
	AnalysisHighlight
	// AnalysisTop1Pct selects the top 1% of cells and stores them.
	AnalysisTop1Pct
)

// String names the analysis case as in Figure 9.
func (a AnalysisKind) String() string {
	switch a {
	case AnalysisNone:
		return "no analysis"
	case AnalysisHighlight:
		return "highlight"
	case AnalysisTop1Pct:
		return "top 1%"
	}
	return "unknown"
}

// Workload is one experiment's input.
type Workload struct {
	// Dataset is the generated NU-WRF run, already on the PFS.
	Dataset *workloads.Dataset
	// Var is the analyzed variable ("QR").
	Var string
	// Analysis selects the Anlys case (AnalysisNone = Img-only).
	Analysis AnalysisKind
}

// Report is one solution run's outcome.
type Report struct {
	// Solution names the data path.
	Solution string
	// ConvertSeconds is the text-conversion phase (excluded from Total).
	ConvertSeconds float64
	// CopySeconds is the PFS-to-HDFS copy phase.
	CopySeconds float64
	// ProcessSeconds is the Hadoop (or sequential) processing phase.
	ProcessSeconds float64
	// TotalSeconds is Copy + Process, the paper's Figure 5 metric.
	TotalSeconds float64
	// PhaseMeans are per-task mean seconds by phase name (Read, Convert,
	// Plot — Figure 7).
	PhaseMeans map[string]float64
	// LevelsPerTask converts task phases to per-level values.
	LevelsPerTask float64
	// Images is the number of PNGs produced.
	Images int
	// Animations is the number of animated GIFs assembled (Anlys only).
	Animations int
	// TextBytes is the converted text size (0 for conversion-free paths).
	TextBytes int64
	// CopiedBytes is the data moved into HDFS during the copy phase.
	CopiedBytes int64
	// AnalysisBytes is the analysis output written to HDFS.
	AnalysisBytes int64
}

// PerLevel returns a phase's mean seconds per PAPER level (Figure 7's
// unit), given the level scale used at generation.
func (r *Report) PerLevel(phase string, levelScale float64) float64 {
	if r.LevelsPerTask <= 0 {
		return 0
	}
	return r.PhaseMeans[phase] / (r.LevelsPerTask * levelScale)
}

// Summary formats the headline numbers.
func (r *Report) Summary() string {
	return fmt.Sprintf("%-14s copy=%8.1fs process=%8.1fs total=%8.1fs (convert=%8.1fs excluded)",
		r.Solution, r.CopySeconds, r.ProcessSeconds, r.TotalSeconds, r.ConvertSeconds)
}
