package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"scidp/internal/cluster"
	"scidp/internal/core"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/pfs"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/tenant"
	"scidp/internal/tenant/loadgen"
	"scidp/internal/workloads"
)

// sizes holds every size knob of the five workloads.
type sizes struct {
	// The scientific workloads: a synthetic NU-WRF run of timestamps
	// files, each vars variables of levels x lat x lon float32 cells.
	timestamps, levels, lat, lon, vars int
	// terasort: files of fileBytes random 100-byte records.
	teraFiles, teraFileBytes int
	// tenant-replay: subTraces traces of horizon virtual seconds at load
	// times the base arrival rates.
	horizon   float64
	load      float64
	subTraces int
	// The sim layer's kernel-only job and flow population.
	kernelNodes, kernelSplits, flows int
}

// fullSizes are the sizes every recorded number uses. 32 timestamps keep
// one set-up near 3 s, so three of them and ten measured seconds fit a
// 25 s run; the paper's smallest size (96) would not.
var fullSizes = sizes{
	timestamps: 32, levels: 10, lat: 40, lon: 40, vars: workloads.NUWRFVars,
	teraFiles: 16, teraFileBytes: 1 << 20,
	horizon: 240, load: 1.5, subTraces: 8,
	kernelNodes: 128, kernelSplits: 25600, flows: 10000,
}

// smokeSizes shrink every workload to well under a second for the test.
var smokeSizes = sizes{
	timestamps: 3, levels: 4, lat: 16, lon: 16, vars: 4,
	teraFiles: 4, teraFileBytes: 64 << 10,
	horizon: 30, load: 1.5, subTraces: 2,
	kernelNodes: 16, kernelSplits: 800, flows: 500,
}

type workloadInfo struct {
	Name, Why string
	make      func(sz sizes) workload
}

// catalog names the five workloads and why each is here. The same text
// is BENCHMARK.json's "why".
var catalog = []workloadInfo{
	{Name: "scidp-imgonly",
		Why: "the paper's headline path: Explorer, Mapper, PFS Reader, inflate, Image2D, shuffle, HDFS write; rsql and tenant do nothing here",
		make: func(sz sizes) workload {
			return &sciWorkload{sz: sz, analysis: solutions.AnalysisNone, epochs: 1}
		}},
	{Name: "scidp-anlys",
		Why: "the same pipeline with top-1% SQL analysis and GIF animation (Fig. 9): the only workload where rsql and rframe frames do work",
		make: func(sz sizes) workload {
			return &sciWorkload{sz: sz, analysis: solutions.AnalysisTop1Pct, epochs: 1}
		}},
	{Name: "epoch-reread",
		Why: "three epochs over the same files on one testbed with the cooperative cache tier on: the re-reference pattern, the only workload where the tier does anything",
		make: func(sz sizes) workload {
			return &sciWorkload{sz: sz, analysis: solutions.AnalysisNone, epochs: 3, readIntensive: true,
				tier: ioengine.TierConfig{NodeBytes: 4 << 20, Policy: ioengine.PolicyCost}}
		}},
	{Name: "terasort",
		Why:  "sort/merge shuffle, HDFS reads and writes and kernel flows with no scientific format and no plotting: the bypass for every netcdf, rframe, rsql and tier change",
		make: func(sz sizes) workload { return &teraWorkload{sz: sz} }},
	{Name: "tenant-replay",
		Why:  "the served system: admission, fair share, leases and backfill over hundreds of small jobs arriving on a schedule (open loop in virtual time)",
		make: func(sz sizes) workload { return &tenantWorkload{sz: sz} }},
}

func lookupWorkload(name string) (workloadInfo, bool) {
	for _, c := range catalog {
		if c.Name == name {
			return c, true
		}
	}
	return workloadInfo{}, false
}

func hashFile(h hash.Hash, n *hdfs.INode) int64 {
	var size int64
	for _, b := range n.Blocks {
		size += int64(len(b.Data()))
	}
	fmt.Fprintf(h, "%s %d\n", n.Path, size)
	for _, b := range n.Blocks {
		h.Write(b.Data())
	}
	return size
}

// ---- scidp-imgonly, scidp-anlys, epoch-reread

// The paper's per-variable raw size and level count: the generated grid
// stands for them through EnvConfig.ByteScale and LevelScale.
const (
	paperVarRawBytes = 298e6
	paperLevels      = 50
)

// sciWorkload runs the SciDP pipeline over a generated NU-WRF dataset on
// the paper's 8 nodes x 8 slots, once or for several epochs on one env.
type sciWorkload struct {
	sz       sizes
	analysis solutions.AnalysisKind
	epochs   int
	// readIntensive selects BENCH_cache's cost mix (light plotting), the
	// regime a read cache exists for.
	readIntensive bool
	tier          ioengine.TierConfig

	blobs map[string][]byte
	ds    *workloads.Dataset
}

// sciVariant is one configuration of the epochs; the zero value plus the
// workload's own tier is the measured one.
type sciVariant struct {
	tier ioengine.TierConfig
	// shift makes epochs after the first read the window files[shift:].
	shift int
	// jobCache shares one per-node CacheSet across the epochs.
	jobCache bool
	prefetch int
}

func (w *sciWorkload) inputs() int         { return 1 }
func (w *sciWorkload) defaultWorkers() int { return 2 }

func (w *sciWorkload) envConfig(o runOpts, tier ioengine.TierConfig) solutions.EnvConfig {
	raw := float64(w.sz.levels*w.sz.lat*w.sz.lon) * 4
	cfg := solutions.DefaultEnvConfig(paperVarRawBytes/raw, paperLevels/float64(w.sz.levels))
	if w.readIntensive {
		cfg.Cost.PlotPerLevel = 0.05
		cfg.Cost.PlotPerLevelSeq = 0.05
	}
	cfg.CacheTier = tier
	cfg.Workers = o.workers
	cfg.Obs = o.reg
	return cfg
}

func (w *sciWorkload) setup(seed int64, sp *tracer) error {
	var err error
	sp.do("setup.generate", func() {
		w.blobs, w.ds, err = workloads.GenerateBlobs(workloads.NUWRFSpec{
			Timestamps: w.sz.timestamps, Levels: w.sz.levels, Lat: w.sz.lat, Lon: w.sz.lon,
			Vars: w.sz.vars, Seed: seed,
		})
	})
	if err != nil {
		return err
	}
	var env *solutions.Env
	sp.do("env.build", func() { env = solutions.NewEnv(w.envConfig(runOpts{workers: 2}, w.tier)) })
	sp.do("setup.install", func() { workloads.Install(env.PFS, w.blobs) })
	env.Close()
	return nil
}

func (w *sciWorkload) inputDigest() string {
	h := sha256.New()
	for _, f := range w.ds.Files {
		fmt.Fprintf(h, "%s %d\n", f, len(w.blobs[f]))
		h.Write(w.blobs[f])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *sciWorkload) iterate(i int, o runOpts) (*outcome, error) {
	return w.run(o, sciVariant{tier: w.tier})
}

// run executes the epochs of one variant on a fresh env and audits them.
func (w *sciWorkload) run(o runOpts, v sciVariant) (*outcome, error) {
	o.m.start()
	var env *solutions.Env
	o.sp.do("env.build", func() { env = solutions.NewEnv(w.envConfig(o, v.tier)) })
	defer env.Close()
	o.sp.do("setup.install", func() { workloads.Install(env.PFS, w.blobs) })

	opts := solutions.SciDPOptions{Engine: core.EngineOptions{Prefetch: v.prefetch}}
	if v.jobCache {
		opts.Engine.CacheBytes = 4 << 20
		opts.Caches = ioengine.NewCacheSet(opts.Engine.CacheBytes)
	}
	window := *w.ds
	if v.shift > 0 && v.shift < len(w.ds.Files) {
		window.Files = w.ds.Files[v.shift:]
		window.Spec.Timestamps = len(window.Files)
	}
	type epoch struct {
		name string
		ds   *workloads.Dataset
		rep  *solutions.Report
	}
	epochs := make([]epoch, w.epochs)
	for e := range epochs {
		epochs[e] = epoch{name: fmt.Sprintf("epoch%d", e), ds: w.ds}
		if e > 0 {
			epochs[e].ds = &window
		}
	}
	var runErr error
	env.K.Go("driver", func(p *sim.Proc) {
		for e := range epochs {
			ep := &epochs[e]
			opts.Name = ep.name
			wl := &solutions.Workload{Dataset: ep.ds, Var: "QR", Analysis: w.analysis}
			if ep.rep, runErr = solutions.RunSciDPWith(p, env, wl, opts); runErr != nil {
				return
			}
		}
	})
	o.sp.do("pipeline.run", func() { env.K.Run() })
	o.m.stop()
	if runErr != nil {
		return nil, runErr
	}
	out := &outcome{events: env.K.EventsProcessed(), detail: env.Tier.Stats()}
	for _, ep := range epochs {
		out.jct += ep.rep.TotalSeconds
		out.latencies = append(out.latencies, ep.rep.TotalSeconds)
	}

	h := sha256.New()
	var auditErr error
	env.K.Go("audit", func(p *sim.Proc) {
		for _, ep := range epochs {
			files, err := env.HDFS.Walk(p, "/results/"+ep.name)
			if err != nil {
				auditErr = err
				return
			}
			csvRows := -1
			for _, f := range files {
				hashFile(h, f)
				if f.Path == "/results/"+ep.name+"/analysis/top1pct.csv" {
					csvRows = 0
					for _, b := range f.Blocks {
						csvRows += bytes.Count(b.Data(), []byte{'\n'})
					}
				}
			}
			out.problems = append(out.problems, w.check(ep.name, ep.ds, ep.rep, csvRows)...)
		}
	})
	o.sp.do("pipeline.audit", func() { env.K.Run() })
	if auditErr != nil {
		return nil, auditErr
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	if o.reg != nil {
		env.ExportSimMetrics()
	}
	return out, nil
}

// check compares one epoch's outputs with what its inputs imply.
func (w *sciWorkload) check(name string, ds *workloads.Dataset, rep *solutions.Report, csvRows int) []string {
	var problems []string
	files := len(ds.Files)
	if want := files * w.sz.levels; rep.Images != want {
		problems = append(problems, fmt.Sprintf("%s: %d images, want %d", name, rep.Images, want))
	}
	if w.analysis != solutions.AnalysisTop1Pct {
		return problems
	}
	if rep.Animations != files {
		problems = append(problems, fmt.Sprintf("%s: %d animations, want %d", name, rep.Animations, files))
	}
	// One task per file keeps the top 1% of its levels x lat x lon rows;
	// the CSV adds a header line.
	cells := w.sz.levels * w.sz.lat * w.sz.lon
	if want := files*int(math.Ceil(float64(cells)/100)) + 1; csvRows != want {
		problems = append(problems, fmt.Sprintf("%s: top1pct.csv has %d lines, want %d", name, csvRows, want))
	}
	return problems
}

// speedup compares against SciHadoop on the same data (Table III), or,
// for the epochs, against the same epochs with the tier off.
func (w *sciWorkload) speedup(rotation []*outcome) (float64, error) {
	if w.epochs > 1 {
		off, err := w.run(runOpts{workers: 2}, sciVariant{})
		if err != nil {
			return 0, err
		}
		if off.digest != rotation[0].digest {
			return 0, fmt.Errorf("tier changed the outputs: digest %.12s with, %.12s without", rotation[0].digest, off.digest)
		}
		return off.jct / rotation[0].jct, nil
	}
	env := solutions.NewEnv(w.envConfig(runOpts{workers: 2}, ioengine.TierConfig{}))
	defer env.Close()
	workloads.Install(env.PFS, w.blobs)
	var rep *solutions.Report
	var err error
	env.K.Go("driver", func(p *sim.Proc) {
		rep, err = solutions.RunSciHadoop(p, env, &solutions.Workload{Dataset: w.ds, Var: "QR", Analysis: w.analysis})
	})
	env.K.Run()
	if err != nil {
		return 0, err
	}
	if want := len(w.ds.Files) * w.sz.levels; rep.Images != want {
		return 0, fmt.Errorf("scihadoop: %d images, want %d", rep.Images, want)
	}
	return rep.TotalSeconds / rotation[0].jct, nil
}

// ---- terasort

// teraByteScale makes each 1 MiB file one 128-logical-MB HDFS block, the
// Figure 2 rig's shape.
const (
	teraByteScale = 128
	teraRecord    = 100
	teraReducers  = 8
)

type teraWorkload struct {
	sz     sizes
	files  [][]byte
	paths  []string
	digest string
}

func (w *teraWorkload) inputs() int         { return 1 }
func (w *teraWorkload) defaultWorkers() int { return 2 }
func (w *teraWorkload) inputDigest() string { return w.digest }

func (w *teraWorkload) miniConfig() workloads.MiniConfig {
	return workloads.MiniConfig{
		Files: w.sz.teraFiles, FileBytes: int64(w.sz.teraFileBytes), SplitSize: int64(w.sz.teraFileBytes),
		TaskStartup: 1.0, ScanPerMB: 0.01 * teraByteScale, // 0.01 s per logical MB
	}
}

// teraRig is one backend's Figure 2 testbed: 8 nodes x 8 slots,
// replication 1, HDFS blocks (or Lustre stripes) of one file each.
type teraRig struct {
	k      *sim.Kernel
	cl     *cluster.Cluster
	be     workloads.Backend
	fs     *hdfs.FS
	pool   *sim.ComputePool
	tracer *sim.Tracer
}

func (w *teraWorkload) newRig(o runOpts, lustre bool) *teraRig {
	k := sim.NewKernel()
	r := &teraRig{k: k, cl: cluster.New(k, "bd", cluster.DefaultHardware(8, 8).Scaled(teraByteScale))}
	r.pool = sim.NewComputePool(max(o.workers, 0)) // -1, the inline pool, is 0 here
	k.SetComputePool(r.pool)
	blockSize := int64(128 << 20 / teraByteScale)
	if lustre {
		pcfg := pfs.DefaultConfig().Scaled(teraByteScale)
		pcfg.OSSCount, pcfg.OSTsPerOSS = 2, 4
		pcfg.DefaultStripeCount = 8
		pcfg.DefaultStripeSize = blockSize
		fs := pfs.New(k, pcfg)
		r.be = &workloads.LustreBackend{FS: fs, SetupClient: fs.NewClient(),
			MountFor: func(n *cluster.Node) *pfs.Client { return fs.NewClient(r.cl.Fabric, n.NIC) }}
		return r
	}
	hcfg := hdfs.DefaultConfig()
	hcfg.BlockSize = blockSize
	hcfg.Replication = 1
	r.fs = hdfs.New(k, r.cl, hcfg)
	r.be = &workloads.HDFSBackend{FS: r.fs}
	if o.reg != nil {
		k.SetObs(o.reg)
		r.fs.SetObs(o.reg)
		r.tracer = &sim.Tracer{}
		k.SetTracer(r.tracer)
	}
	return r
}

// sortedBytes is what the reducers must see: every whole record.
func (w *teraWorkload) sortedBytes() int64 {
	return int64(w.sz.teraFiles * (w.sz.teraFileBytes / teraRecord) * teraRecord)
}

func (w *teraWorkload) setup(seed int64, sp *tracer) error {
	sp.do("setup.generate", func() {
		rng := rand.New(rand.NewSource(seed))
		h := sha256.New()
		w.files, w.paths = nil, nil
		for i := 0; i < w.sz.teraFiles; i++ {
			buf := make([]byte, w.sz.teraFileBytes)
			rng.Read(buf)
			h.Write(buf)
			w.files = append(w.files, buf)
			w.paths = append(w.paths, fmt.Sprintf("/mini/in/part-%04d", i))
		}
		w.digest = hex.EncodeToString(h.Sum(nil))
	})
	var rig *teraRig
	sp.do("env.build", func() { rig = w.newRig(runOpts{workers: 2}, false) })
	sp.do("setup.install", func() { w.install(rig) })
	rig.pool.Close()
	return nil
}

func (w *teraWorkload) install(rig *teraRig) {
	for i, p := range w.paths {
		rig.be.Put(p, w.files[i])
	}
}

func (w *teraWorkload) sort(o runOpts, lustre bool) (*teraRig, workloads.MiniResult, error) {
	var rig *teraRig
	o.sp.do("env.build", func() { rig = w.newRig(o, lustre) })
	o.sp.do("setup.install", func() { w.install(rig) })
	var res workloads.MiniResult
	var err error
	rig.k.Go("driver", func(p *sim.Proc) {
		res, err = workloads.RunTeraSort(p, rig.cl, rig.be, w.miniConfig(), w.paths, teraReducers)
	})
	o.sp.do("pipeline.run", func() { rig.k.Run() })
	return rig, res, err
}

func (w *teraWorkload) iterate(i int, o runOpts) (*outcome, error) {
	o.m.start()
	rig, res, err := w.sort(o, false)
	defer rig.pool.Close()
	o.m.stop()
	if err != nil {
		return nil, err
	}
	out := &outcome{jct: res.Seconds, latencies: []float64{res.Seconds}, events: rig.k.EventsProcessed()}
	h := sha256.New()
	fmt.Fprintf(h, "output %d\n", res.Output)
	var written int64
	var auditErr error
	rig.k.Go("audit", func(p *sim.Proc) {
		files, err := rig.fs.Walk(p, "/mini/sorted-hdfs")
		if err != nil {
			auditErr = err
			return
		}
		for _, f := range files {
			written += hashFile(h, f)
		}
	})
	o.sp.do("pipeline.audit", func() { rig.k.Run() })
	if auditErr != nil {
		return nil, auditErr
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	want := w.sortedBytes()
	if res.Output != want {
		out.problems = append(out.problems, fmt.Sprintf("reducers saw %d bytes, want %d", res.Output, want))
	}
	if perRed := want / teraReducers; written != perRed*teraReducers {
		out.problems = append(out.problems, fmt.Sprintf("output files hold %d bytes, want %d", written, perRed*teraReducers))
	}
	if rig.tracer != nil {
		rig.tracer.ExportResourceMetrics(o.reg)
	}
	return out, nil
}

// speedup is Figure 2's ratio: the same sort through the Lustre
// connector over native HDFS.
func (w *teraWorkload) speedup(rotation []*outcome) (float64, error) {
	rig, res, err := w.sort(runOpts{workers: 2}, true)
	rig.pool.Close()
	if err != nil {
		return 0, err
	}
	if want := w.sortedBytes(); res.Output != want {
		return 0, fmt.Errorf("lustre terasort: reducers saw %d bytes, want %d", res.Output, want)
	}
	return res.Seconds / rotation[0].jct, nil
}

// ---- tenant-replay

// The service cluster and job window of BENCH_mt: 12 slots, 3 running
// jobs, so the window and not the slot pool is scarce and backfill is
// load-bearing.
const (
	tenantNodes         = 6
	tenantSlotsPerNode  = 2
	tenantMaxConcurrent = 3
	// traceOversample is how much denser than wanted the loadgen trace
	// is drawn before it is thinned to fixed counts.
	traceOversample = 3
)

// tenantClasses is BENCH_mt's tenant mix at mult times the base rates:
// interactive grep, diurnal batch sort/write, bursty write.
func tenantClasses(mult float64) []loadgen.Class {
	return []loadgen.Class{
		{Name: "inter", Rate: 0.50 * mult, Kinds: []string{"grep"}, Sizes: []string{"small"}, Priority: 1,
			Quota: tenant.Quota{MaxQueued: 24, MaxRunning: 4, SlotShare: 0.75, Weight: 3}},
		{Name: "batch", Rate: 0.20 * mult, Diurnal: 0.7,
			Kinds: []string{"sort", "write"}, Sizes: []string{"small", "medium"},
			Quota: tenant.Quota{MaxQueued: 16, MaxRunning: 2, Weight: 1}},
		{Name: "burst", Rate: 0.30 * mult, Kinds: []string{"write"}, Sizes: []string{"small"},
			Quota: tenant.Quota{MaxQueued: 12, MaxRunning: 2, SlotShare: 0.5, Weight: 1}},
	}
}

// fixedMixTrace draws a loadgen trace and thins it to the expected number
// of arrivals per (tenant, kind, size). Thinning a Poisson process
// uniformly leaves a Poisson process conditioned on its count, so arrival
// times (and the diurnal shape) stay the generator's while every seed
// offers exactly the same work. Without it the job count and mix of a
// 240 s trace vary by 5-10 % between seeds, and so would every
// per-iteration cost.
func fixedMixTrace(seed int64, mult, horizon float64) (*tenant.Trace, error) {
	full, err := loadgen.Generate(loadgen.TraceSpec{
		Name: fmt.Sprintf("replay-%gx-%d", mult, seed), Seed: seed, Horizon: horizon,
		Classes: tenantClasses(mult * traceOversample),
	})
	if err != nil {
		return nil, err
	}
	byStratum := map[tenant.JobSpec][]int{}
	for i, a := range full.Arrivals {
		byStratum[a.Spec] = append(byStratum[a.Spec], i)
	}
	rng := rand.New(rand.NewSource(seed))
	keep := make([]bool, len(full.Arrivals))
	for _, c := range tenantClasses(mult) {
		want := int(math.Round(c.Rate * horizon / float64(len(c.Kinds)*len(c.Sizes))))
		for _, kind := range c.Kinds {
			for _, size := range c.Sizes {
				stratum := tenant.JobSpec{Tenant: c.Name, Kind: kind, Size: size, Priority: c.Priority}
				idx := byStratum[stratum]
				if len(idx) < want {
					return nil, fmt.Errorf("trace seed %d: %+v drew %d arrivals, need %d", seed, stratum, len(idx), want)
				}
				rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
				for _, i := range idx[:want] {
					keep[i] = true
				}
			}
		}
	}
	out := &tenant.Trace{Name: full.Name, Quotas: full.Quotas}
	for i, a := range full.Arrivals {
		if keep[i] {
			out.Arrivals = append(out.Arrivals, a)
		}
	}
	return out, nil
}

type tenantWorkload struct {
	sz     sizes
	seed   int64
	traces []*tenant.Trace
}

func (w *tenantWorkload) inputs() int         { return len(w.traces) }
func (w *tenantWorkload) defaultWorkers() int { return 1 } // the scidpd default

func (w *tenantWorkload) inputDigest() string {
	h := sha256.New()
	for _, tr := range w.traces {
		for _, a := range tr.Arrivals {
			fmt.Fprintf(h, "%.9f %s %s %s %d\n", a.At, a.Spec.Tenant, a.Spec.Kind, a.Spec.Size, a.Spec.Priority)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// subSeed derives sub-trace i's generator seed from the run's seed.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func (w *tenantWorkload) setup(seed int64, sp *tracer) error {
	w.seed = seed
	var err error
	sp.do("setup.generate", func() {
		w.traces = nil
		for i := 0; i < w.sz.subTraces && err == nil; i++ {
			var tr *tenant.Trace
			tr, err = fixedMixTrace(subSeed(seed, i), w.sz.load, w.sz.horizon)
			w.traces = append(w.traces, tr)
		}
	})
	if err != nil {
		return err
	}
	env, _ := w.newService(runOpts{workers: 1}, false)
	env.Close()
	return nil
}

func (w *tenantWorkload) newService(o runOpts, fifo bool) (*solutions.Env, *tenant.Service) {
	var env *solutions.Env
	o.sp.do("env.build", func() {
		env = solutions.NewEnv(solutions.EnvConfig{
			Nodes: tenantNodes, SlotsPerNode: tenantSlotsPerNode, ByteScale: 1,
			Workers: o.workers, Obs: o.reg,
		})
	})
	var svc *tenant.Service
	// tenant.New installs the shared read-only input pool.
	o.sp.do("setup.install", func() {
		svc = tenant.New(env, tenant.Config{FIFO: fifo, MaxConcurrent: tenantMaxConcurrent})
	})
	return env, svc
}

// tenantDetail is what the traced run reads off a replay.
type tenantDetail struct {
	sum             *tenant.Summary
	queueWait, runs []float64
}

// replay runs one trace through a fresh service and audits the summary.
func (w *tenantWorkload) replay(tr *tenant.Trace, o runOpts, fifo bool) (*outcome, error) {
	o.m.start()
	env, svc := w.newService(o, fifo)
	defer env.Close()
	var sum *tenant.Summary
	var err error
	o.sp.do("pipeline.run", func() { sum, err = tenant.Replay(svc, tr) })
	o.m.stop()
	if err != nil {
		return nil, err
	}
	out := &outcome{jct: sum.MakespanSeconds, jobs: len(tr.Arrivals), failedJobs: sum.Rejected + sum.Failed,
		events: env.K.EventsProcessed(), digest: sum.CompletionDigest}
	det := &tenantDetail{sum: sum}
	o.sp.do("pipeline.audit", func() {
		for _, j := range svc.Jobs() {
			if j.State == tenant.StateDone {
				out.latencies = append(out.latencies, j.DoneAt-j.SubmitAt)
				det.queueWait = append(det.queueWait, j.StartAt-j.SubmitAt)
				det.runs = append(det.runs, j.DoneAt-j.StartAt)
			}
		}
		if got := sum.Completed + sum.Rejected + sum.Failed; got != len(tr.Arrivals) || sum.Jobs != len(tr.Arrivals) {
			out.problems = append(out.problems, fmt.Sprintf("%d completed + %d rejected + %d failed of %d submitted, %d arrivals",
				sum.Completed, sum.Rejected, sum.Failed, sum.Jobs, len(tr.Arrivals)))
		}
		if !sum.WithinQuota {
			out.problems = append(out.problems, "a tenant exceeded its quota")
		}
	})
	out.detail = det
	return out, nil
}

func (w *tenantWorkload) iterate(i int, o runOpts) (*outcome, error) {
	return w.replay(w.traces[i%len(w.traces)], o, false)
}

// speedup is what fair share + backfill buy over the strict-FIFO
// scheduler: FIFO's median job latency over this scheduler's, pooled
// over the same sub-traces.
func (w *tenantWorkload) speedup(rotation []*outcome) (float64, error) {
	var fifo, fair []float64
	for i := range w.traces {
		out, err := w.replay(w.traces[i], runOpts{workers: 1}, true)
		if err != nil {
			return 0, err
		}
		if len(out.problems) > 0 {
			return 0, fmt.Errorf("fifo replay %d: %v", i, out.problems)
		}
		fifo = append(fifo, out.latencies...)
		fair = append(fair, rotation[i].latencies...)
	}
	return median(fifo) / median(fair), nil
}
