package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scidp/internal/cluster"
	"scidp/internal/core"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/mapreduce"
	"scidp/internal/netcdf"
	"scidp/internal/rframe"
	"scidp/internal/rsql"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/tenant"
	"scidp/internal/workloads"
)

// This file times calls into each module's public functions, replayed
// over the workload's own inputs, one benchmark-side span per batch of
// calls. Every section runs only on workloads that exercise its module;
// elsewhere its metrics stay 0.

// layerRun carries what the per-layer sections share.
type layerRun struct {
	sp   *tracer
	vals map[string]float64
	sz   sizes
	// iterWall is the untraced iteration's wall seconds, iterCPU the
	// traced iteration's CPU seconds (medians over the rounds).
	iterWall, iterCPU float64
	err               error
}

func (l *layerRun) fail(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// ops is the cost of a batch of calls.
type ops struct {
	wall           []float64 // seconds per call
	total          float64   // seconds for the whole batch
	mallocs, bytes float64   // per call
}

// timeOps runs fn n times inside one span, timing each call and counting
// allocations over the batch.
func (l *layerRun) timeOps(name string, n int, fn func(i int)) ops {
	var o ops
	l.sp.do(name, func() {
		o.wall = make([]float64, n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			t := time.Now()
			fn(i)
			o.wall[i] = time.Since(t).Seconds()
		}
		o.total = time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		o.mallocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		o.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	})
	return o
}

// inProc runs fn as a simulated process on k until quiescence.
func inProc(k *sim.Kernel, fn func(p *sim.Proc)) {
	k.Go("bench", fn)
	k.Run()
}

// ---- sim

// syntheticSplits streams map splits that prefer one host each (every
// seventh floats free) and read 32 MB off that host's disk: the kernel,
// the locality queue and the flow scheduler with no byte work at all.
type syntheticSplits struct {
	cl          *cluster.Cluster
	total, next int
}

const syntheticSplitBytes = 32e6

func (s *syntheticSplits) Splits(*sim.Proc) ([]*mapreduce.Split, error) {
	return nil, fmt.Errorf("syntheticSplits must stream")
}
func (s *syntheticSplits) SplitSource(*sim.Proc) (mapreduce.SplitSource, error) { return s, nil }

func (s *syntheticSplits) Next(*sim.Proc) (*mapreduce.Split, error) {
	if s.next >= s.total {
		return nil, nil
	}
	i := s.next
	s.next++
	sp := &mapreduce.Split{Label: fmt.Sprintf("blk-%d", i), Payload: i, Length: syntheticSplitBytes}
	if i%7 != 0 {
		sp.Locations = []string{s.cl.Node(i % len(s.cl.Nodes)).Name}
	}
	return sp, nil
}

func (s *syntheticSplits) ForEach(tc *mapreduce.TaskContext, sp *mapreduce.Split, fn func(string, any) error) error {
	home := s.cl.Node(sp.Payload.(int) % len(s.cl.Nodes))
	tc.Phase("Read", func() {
		if home == tc.Node() {
			tc.Proc().Transfer(syntheticSplitBytes, cluster.LocalReadPath(home)...)
		} else {
			tc.Proc().Transfer(syntheticSplitBytes, s.cl.RemoteReadPath(home, tc.Node())...)
		}
	})
	return fn(sp.Label, nil)
}

func (l *layerRun) simLayer() {
	nodes, tasks, flows := l.sz.kernelNodes, l.sz.kernelSplits, l.sz.flows
	l.sp.do("layer.sim.Kernel.Run/job", func() {
		k := sim.NewKernel()
		cl := cluster.New(k, "sc", cluster.Config{
			Nodes: nodes, SlotsPerNode: 2, DiskBW: 100e6, DiskLatency: 0.002,
			NICBW: 1.25e9, NetLatency: 0.0002, FabricBW: float64(nodes) * 1.25e9 / 2,
			NodesPerRack: 8, RacksPerZone: 4,
		})
		job := &mapreduce.Job{Name: "kernel-only", Cluster: cl, TaskStartup: 0.5, SplitWindow: 4096,
			Input: &syntheticSplits{cl: cl, total: tasks},
			Map: func(tc *mapreduce.TaskContext, key string, value any) error {
				tc.Charge("Compute", 0.01)
				return nil
			}}
		var res *mapreduce.Result
		var err error
		k.Go("driver", func(p *sim.Proc) { res, err = job.Run(p) })
		start := time.Now()
		k.Run()
		wall := time.Since(start).Seconds()
		if err == nil && len(res.MapStats) != tasks {
			err = fmt.Errorf("kernel-only job ran %d tasks, want %d", len(res.MapStats), tasks)
		}
		l.fail(err)
		l.vals["sim.kernel_events_per_wall_s"] = float64(k.EventsProcessed()) / wall
	})
	l.sp.do("layer.sim.Kernel.StartFlow", func() {
		const nRes = 64
		rng := rand.New(rand.NewSource(7))
		k := sim.NewKernel()
		res := make([]*sim.Resource, nRes)
		for i := range res {
			res[i] = sim.NewResource("r", 1000)
		}
		done := 0
		for i := 0; i < flows; i++ {
			at, bytes := rng.Float64()*2, 1000+rng.Float64()*9000
			r1, r2 := res[rng.Intn(nRes)], res[rng.Intn(nRes)]
			k.After(at, func() { k.StartFlow(bytes, func() { done++ }, r1, r2) })
		}
		start := time.Now()
		k.Run()
		wall := time.Since(start).Seconds()
		if done != flows {
			l.fail(fmt.Errorf("%d of %d flows completed", done, flows))
		}
		l.vals["sim.flows_per_wall_s"] = float64(flows) / wall
	})
	l.sp.do("layer.sim.Proc.Compute+Await", func() {
		n := flows * 2
		k := sim.NewKernel()
		pool := sim.NewComputePool(2)
		defer pool.Close()
		k.SetComputePool(pool)
		var wall float64
		inProc(k, func(p *sim.Proc) {
			start := time.Now()
			for i := 0; i < n; i++ {
				p.Await(p.Compute(func() {}))
			}
			wall = time.Since(start).Seconds()
		})
		l.vals["sim.forkjoin_us_per_task"] = wall / float64(n) * 1e6
	})
}

// ---- hdfs

func (l *layerRun) hdfsLayer() {
	env := solutions.NewEnv(solutions.EnvConfig{Nodes: 4, SlotsPerNode: 2, ByteScale: 1, Workers: 2})
	defer env.Close()
	const n = 32
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	perMB := func(o ops) float64 { return median(o.wall) * 1e6 / (float64(len(data)) / 1e6) }
	inProc(env.K, func(p *sim.Proc) {
		writer := env.BD.Node(0)
		w := l.timeOps("layer.hdfs.FS.WriteFile", n, func(i int) {
			l.fail(env.HDFS.WriteFile(p, writer, fmt.Sprintf("/bench/f%03d", i), data))
		})
		l.vals["hdfs.write_wall_us_per_mb"] = perMB(w)
		blocks := make([]*hdfs.Block, n)
		for i := range blocks {
			node, err := env.HDFS.Stat(p, fmt.Sprintf("/bench/f%03d", i))
			if err != nil || len(node.Blocks) == 0 || len(node.Blocks[0].Replicas) == 0 {
				l.fail(fmt.Errorf("hdfs layer: file %d not readable: %v", i, err))
				return
			}
			blocks[i] = node.Blocks[0]
		}
		read := func(name string, pick func(home *cluster.Node) *cluster.Node) ops {
			return l.timeOps(name, n, func(i int) {
				got, err := env.HDFS.ReadBlock(p, pick(blocks[i].Replicas[0].Node), blocks[i])
				if err == nil && len(got) != len(data) {
					err = fmt.Errorf("hdfs layer: read %d of %d bytes", len(got), len(data))
				}
				l.fail(err)
			})
		}
		local := read("layer.hdfs.FS.ReadBlock/local", func(home *cluster.Node) *cluster.Node { return home })
		remote := read("layer.hdfs.FS.ReadBlock/remote", func(home *cluster.Node) *cluster.Node {
			for _, cand := range env.BD.Nodes {
				if cand != home {
					return cand
				}
			}
			return home
		})
		l.vals["hdfs.readblock_local_wall_us_per_mb"] = perMB(local)
		l.vals["hdfs.readblock_remote_wall_us_per_mb"] = perMB(remote)
	})
}

// ---- mapreduce

// shuffleLayer sorts 100-byte records held in memory through Job.Run:
// map emit, partition, sort/merge and reduce with no file system.
func (l *layerRun) shuffleLayer() {
	rng := rand.New(rand.NewSource(1))
	splits := make([]*mapreduce.Split, l.sz.teraFiles)
	records := 0
	for i := range splits {
		buf := make([]byte, l.sz.teraFileBytes)
		rng.Read(buf)
		splits[i] = &mapreduce.Split{Label: fmt.Sprintf("mem-%d", i), Payload: buf, Length: int64(len(buf))}
		records += len(buf) / teraRecord
	}
	k := sim.NewKernel()
	pool := sim.NewComputePool(2)
	defer pool.Close()
	k.SetComputePool(pool)
	cl := cluster.New(k, "bd", cluster.DefaultHardware(8, 8).Scaled(teraByteScale))
	seen := 0
	job := &mapreduce.Job{Name: "shuffle", Cluster: cl, TaskStartup: 1, NumReducers: teraReducers,
		Input:     memSplits(splits),
		PairBytes: func(mapreduce.KV) int64 { return teraRecord },
		Partition: func(key string, n int) int { return int(key[0]) * n / 256 },
		Map: func(tc *mapreduce.TaskContext, key string, value any) error {
			data := value.([]byte)
			tc.Compute(func() {
				for off := 0; off+teraRecord <= len(data); off += teraRecord {
					tc.Emit(string(data[off:off+10]), data[off:off+teraRecord])
				}
			})
			return nil
		},
		Reduce: func(tc *mapreduce.TaskContext, key string, values []any) error {
			seen += len(values)
			return nil
		}}
	o := l.timeOps("layer.mapreduce.Job.Run", 1, func(int) {
		inProc(k, func(p *sim.Proc) {
			_, err := job.Run(p)
			l.fail(err)
		})
	})
	if seen != records {
		l.fail(fmt.Errorf("shuffle layer: reducers saw %d of %d records", seen, records))
	}
	l.vals["mapreduce.shuffle_records_per_wall_s"] = float64(records) / o.total
	l.vals["mapreduce.shuffle_allocs_per_record"] = o.mallocs / float64(records)
}

type memSplits []*mapreduce.Split

func (s memSplits) Splits(*sim.Proc) ([]*mapreduce.Split, error) { return s, nil }
func (s memSplits) ForEach(tc *mapreduce.TaskContext, sp *mapreduce.Split, fn func(string, any) error) error {
	return fn(sp.Label, sp.Payload)
}

// ---- the scientific layers: pfs, netcdf, core, rframe, rsql, ioengine

func (w *sciWorkload) layerMetrics(l *layerRun, first *outcome) {
	blob := w.blobs[w.ds.Files[0]]
	shape := []int{w.sz.levels, w.sz.lat, w.sz.lon}
	rawMB := float64(w.ds.VarRawBytes) / 1e6

	// netcdf
	open := l.timeOps("layer.netcdf.Open", 200, func(int) {
		_, err := netcdf.Open(netcdf.BytesReader(blob))
		l.fail(err)
	})
	l.vals["netcdf.open_us_p50"] = median(open.wall) * 1e6
	f, err := netcdf.Open(netcdf.BytesReader(blob))
	if err != nil {
		l.fail(err)
		return
	}
	var arr *netcdf.Array
	get := l.timeOps("layer.netcdf.File.GetVara", 200, func(int) {
		arr, err = f.GetVara("QR", []int{0, 0, 0}, shape)
		l.fail(err)
	})
	if l.err != nil {
		return
	}
	l.vals["netcdf.getvara_mb_per_s"] = rawMB / median(get.wall)
	l.vals["netcdf.getvara_allocs_per_op"] = get.mallocs
	l.vals["netcdf.getvara_alloc_kb_per_op"] = get.bytes / 1e3
	vals := arr.Float32s()
	put := l.timeOps("layer.netcdf.Writer.PutVarFloat32+Bytes", 50, func(int) {
		nw := netcdf.NewWriter()
		for i, d := range []string{"level", "lat", "lon"} {
			l.fail(nw.AddDim(d, shape[i]))
		}
		l.fail(nw.AddVar("QR", netcdf.Float32, []string{"level", "lat", "lon"},
			netcdf.Chunking{Shape: []int{1, w.sz.lat, w.sz.lon}, Deflate: 1}))
		l.fail(nw.PutVarFloat32("QR", vals))
		_, err := nw.Bytes()
		l.fail(err)
	})
	l.vals["netcdf.write_mb_per_s"] = rawMB / median(put.wall)

	// rframe plotting
	level := vals[:w.sz.lat*w.sz.lon]
	plot := rframe.PlotOpts{Width: 32, Height: 32}
	img := l.timeOps("layer.rframe.Image2D", 300, func(int) {
		_, err := rframe.Image2D(level, w.sz.lat, w.sz.lon, plot)
		l.fail(err)
	})
	l.vals["rframe.image2d_us_p50"] = median(img.wall) * 1e6
	l.vals["rframe.image2d_alloc_kb_per_op"] = img.bytes / 1e3

	w.storageLayers(l)
	if w.analysis != solutions.AnalysisNone {
		w.analysisLayers(l, vals)
	}
	if w.analysis == solutions.AnalysisNone && w.epochs == 1 {
		w.unattributedShare(l)
	}
	if w.tier.Enabled() {
		l.cacheLayer()
		tier := first.detail.(ioengine.TierStats)
		l.vals["ioengine.tier_local_hits"] = float64(tier.LocalHits)
		l.vals["ioengine.tier_peer_hits"] = float64(tier.PeerHits)
		l.vals["ioengine.tier_ost_reads"] = float64(tier.OSTReads)
		l.vals["ioengine.tier_evictions"] = float64(tier.Evictions)
		l.vals["ioengine.tier_promotions"] = float64(tier.Promotions)
		l.vals["ioengine.tier_hit_ratio"] = tier.HitRate()
		l.sp.top("run.variants")
		w.variants(l, first)
	}
}

// terasort exercises no module beyond the ones every workload does.
func (w *teraWorkload) layerMetrics(*layerRun, *outcome) {}

// analysisLayers times what only the Anlys pipeline calls: frame
// construction, the SQL engine and the animation encoder.
func (w *sciWorkload) analysisLayers(l *layerRun, vals []float32) {
	dims := [3]string{"level", "lat", "lon"}
	shape := [3]int{w.sz.levels, w.sz.lat, w.sz.lon}
	var df *rframe.Frame
	var err error
	frame := l.timeOps("layer.rframe.FromArray3D", 50, func(int) {
		df, err = rframe.FromArray3D(dims, [3]int{}, shape, vals, "value")
		l.fail(err)
	})
	l.vals["rframe.fromarray3d_us_p50"] = median(frame.wall) * 1e6
	if l.err != nil {
		return
	}
	l.fail(df.AddInt("t", make([]int64, df.NumRows())))
	tables := map[string]*rframe.Frame{"df": df}
	query := func(limit int) string {
		return fmt.Sprintf("SELECT t, level, lat, lon, value FROM df ORDER BY value DESC LIMIT %d", limit)
	}
	top1 := (df.NumRows() + 99) / 100
	q1 := l.timeOps("layer.rsql.Query/top1pct", 20, func(int) {
		got, err := rsql.Query(tables, query(top1))
		if err == nil && got.NumRows() != top1 {
			err = fmt.Errorf("rsql layer: %d rows, want %d", got.NumRows(), top1)
		}
		l.fail(err)
	})
	l.vals["rsql.query_top1pct_ms_p50"] = median(q1.wall) * 1e3
	l.vals["rsql.query_top1pct_allocs_per_op"] = q1.mallocs
	q10 := l.timeOps("layer.rsql.Query/top10", 20, func(int) {
		_, err := rsql.Query(tables, query(10))
		l.fail(err)
	})
	l.vals["rsql.query_top10_ms_p50"] = median(q10.wall) * 1e3
	cols := []rsql.ColumnInfo{{Name: "t", Int: true}, {Name: "level", Int: true},
		{Name: "lat", Int: true}, {Name: "lon", Int: true}, {Name: "value"}}
	compile := l.timeOps("layer.rsql.CompileArray", 500, func(int) {
		_, err := rsql.CompileArray(query(top1), cols)
		l.fail(err)
	})
	l.vals["rsql.compile_us_p50"] = median(compile.wall) * 1e6

	frames := make([][]byte, w.sz.levels)
	cells := w.sz.lat * w.sz.lon
	for i := range frames {
		frames[i], err = rframe.Image2D(vals[i*cells:(i+1)*cells], w.sz.lat, w.sz.lon, rframe.PlotOpts{Width: 32, Height: 32})
		l.fail(err)
	}
	gif := l.timeOps("layer.rframe.AnimateGIF", 20, func(int) {
		_, err := rframe.AnimateGIF(frames, 20)
		l.fail(err)
	})
	l.vals["rframe.animategif_ms_p50"] = median(gif.wall) * 1e3
}

// cacheLayer times the chunk cache at the size of one decoded level.
func (l *layerRun) cacheLayer() {
	const valueBytes, budget, keys = 6400, 4 << 20, 4096
	c := ioengine.NewCache(budget)
	val := make([]byte, valueBytes)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("/nuwrf/file-%04d/QR#%d", i/10, i%10)
	}
	put := l.timeOps("layer.ioengine.Cache.Put", 1, func(int) {
		for _, k := range names {
			c.Put(k, val)
		}
	})
	l.vals["ioengine.cache_put_ns"] = put.total / keys * 1e9
	resident := names[keys-budget/valueBytes/2:] // the most recent half budget is surely resident
	const gets = 200000
	misses := 0
	get := l.timeOps("layer.ioengine.Cache.Get", 1, func(int) {
		for i := 0; i < gets; i++ {
			if _, ok := c.Get(resident[i%len(resident)]); !ok {
				misses++
			}
		}
	})
	if misses > 0 {
		l.fail(fmt.Errorf("cache layer: %d of %d gets missed", misses, gets))
	}
	l.vals["ioengine.cache_get_hit_ns"] = get.total / gets * 1e9
}

// storageLayers times the PFS client and SciDP's own read path (File
// Explorer, Data Mapper, PFS Reader) over the installed dataset.
func (w *sciWorkload) storageLayers(l *layerRun) {
	env := solutions.NewEnv(w.envConfig(runOpts{workers: 2}, w.tier))
	defer env.Close()
	workloads.Install(env.PFS, w.blobs)
	inProc(env.K, func(p *sim.Proc) {
		client := env.Mount(env.BD.Node(0))
		path := w.ds.Files[0]
		size := int64(len(w.blobs[path]))
		n := int64(64 << 10)
		if n > size {
			n = size
		}
		read := l.timeOps("layer.pfs.Client.ReadAt", 256, func(i int) {
			off := int64(i) * n % (size - n + 1)
			got, err := client.ReadAt(p, path, off, n)
			if err == nil && int64(len(got)) != n {
				err = fmt.Errorf("pfs layer: read %d of %d bytes", len(got), n)
			}
			l.fail(err)
		})
		l.vals["pfs.readat_wall_us_per_op"] = median(read.wall) * 1e6

		explore := l.timeOps("layer.core.Explorer.ExplorePath", 1, func(int) {
			got, err := core.NewExplorer(env.Registry).ExplorePath(p, client, w.ds.Spec.Dir)
			if err == nil && len(got) != len(w.ds.Files) {
				err = fmt.Errorf("core layer: explored %d of %d files", len(got), len(w.ds.Files))
			}
			l.fail(err)
		})
		l.vals["core.explore_wall_ms"] = explore.total * 1e3
		var mapping *core.Mapping
		v0 := p.Now()
		mapPath := l.timeOps("layer.core.Mapper.MapPath", 1, func(int) {
			var err error
			mapping, err = core.NewMapper(env.HDFS, env.Registry, "/bench").MapPath(p, client, w.ds.Spec.Dir,
				core.MapOptions{Vars: []string{"QR"}, RowsPerBlock: w.sz.levels})
			l.fail(err)
		})
		l.vals["core.mappath_wall_ms"] = mapPath.total * 1e3
		l.vals["core.mappath_virtual_s"] = p.Now() - v0
		if l.err != nil {
			return
		}
		files, err := env.HDFS.Walk(p, mapping.Root)
		l.fail(err)
		var slabs []*core.SlabSource
		for _, f := range files {
			for _, b := range f.Blocks {
				if src, ok := b.Source.(*core.SlabSource); ok {
					slabs = append(slabs, src)
				}
			}
		}
		if len(slabs) != len(w.ds.Files) {
			l.fail(fmt.Errorf("core layer: %d slab blocks for %d files", len(slabs), len(w.ds.Files)))
			return
		}
		reader := core.NewPFSReader(env.Registry, client)
		slab := l.timeOps("layer.core.PFSReader.ReadSlab", len(slabs), func(i int) {
			_, err := reader.ReadSlab(p, slabs[i])
			l.fail(err)
		})
		l.vals["core.readslab_wall_us_p50"] = median(slab.wall) * 1e6
	})
}

// unattributedShare estimates the engine-overhead row of the iteration's
// CPU budget: what is left after the data plane's own work (inflate and
// plot, replayed over the iteration's slabs on one thread) and the
// kernel's events at the rate the kernel-only job measured. An estimate
// until spans exist inside the program. Runs after simLayer, whose rate
// it needs.
func (w *sciWorkload) unattributedShare(l *layerRun) {
	shape := []int{w.sz.levels, w.sz.lat, w.sz.lon}
	cells := w.sz.lat * w.sz.lon
	var cpu float64
	l.sp.do("layer.pipeline.decode+plot", func() {
		c0 := cpuSeconds()
		for _, path := range w.ds.Files {
			f, err := netcdf.Open(netcdf.BytesReader(w.blobs[path]))
			if err != nil {
				l.fail(err)
				return
			}
			arr, err := f.GetVara("QR", []int{0, 0, 0}, shape)
			if err != nil {
				l.fail(err)
				return
			}
			vals := arr.Float32s()
			for lv := 0; lv < w.sz.levels; lv++ {
				_, err := rframe.Image2D(vals[lv*cells:(lv+1)*cells], w.sz.lat, w.sz.lon, rframe.PlotOpts{Width: 32, Height: 32})
				l.fail(err)
			}
		}
		cpu = cpuSeconds() - c0
	})
	kernel := l.vals["sim.events"] / l.vals["sim.kernel_events_per_wall_s"]
	if l.iterCPU > 0 {
		l.vals["pipeline.unattributed_cpu_share"] = 1 - (cpu+kernel)/l.iterCPU
	}
}

// ---- tenant

func (w *tenantWorkload) layerMetrics(l *layerRun, first *outcome) {
	det := first.detail.(*tenantDetail)
	l.vals["tenant.replay_wall_us_per_job"] = l.iterWall / float64(first.jobs) * 1e6
	l.vals["tenant.queue_wait_virtual_p95_s"] = quantile(det.queueWait, 0.95)
	l.vals["tenant.run_virtual_p95_s"] = quantile(det.runs, 0.95)
	l.vals["tenant.preemptions"] = float64(det.sum.Preemptions)
	l.vals["tenant.backfills"] = float64(det.sum.Backfills)
	l.vals["tenant.rejected"] = float64(det.sum.Rejected)
	w.submitLayer(l)
	l.sp.top("run.variants")
	w.sweep(l)
}

func (w *tenantWorkload) submitLayer(l *layerRun) {
	env := solutions.NewEnv(solutions.EnvConfig{Nodes: tenantNodes, SlotsPerNode: tenantSlotsPerNode, ByteScale: 1, Workers: 1})
	defer env.Close()
	svc := tenant.New(env, tenant.Config{MaxConcurrent: tenantMaxConcurrent,
		DefaultQuota: tenant.Quota{MaxQueued: 1000}})
	const n = 100
	env.K.After(0, func() {
		submit := l.timeOps("layer.tenant.Service.Submit", n, func(i int) {
			j, err := svc.Submit(tenant.JobSpec{Tenant: fmt.Sprintf("t%d", i%4), Kind: "grep", Size: "small"})
			if err == nil && j.State != tenant.StateQueued {
				err = fmt.Errorf("tenant layer: job %d is %s", j.ID, j.State)
			}
			l.fail(err)
		})
		l.vals["tenant.submit_us_p50"] = median(submit.wall) * 1e6
	})
	l.sp.do("layer.tenant.drain", func() { env.K.Run() })
}

// sweep replays sub-trace 0's seed at each load and finds the highest
// one the service sustains: p95 within the limit, nothing rejected or
// failed.
func (w *tenantWorkload) sweep(l *layerRun) {
	const limit = 5.0
	sustained := 0.0
	holding := true
	for _, load := range []float64{1, 1.5, 2, 2.25, 2.5, 2.75, 3} {
		var out *outcome
		l.sp.do(fmt.Sprintf("layer.tenant.Replay/%gx", load), func() {
			tr, err := fixedMixTrace(subSeed(w.seed, 0), load, w.sz.horizon)
			if err == nil {
				out, err = w.replay(tr, runOpts{workers: 1}, false)
			}
			l.fail(err)
		})
		if out == nil {
			return
		}
		p95 := quantile(out.latencies, 0.95)
		if load == 2 {
			l.vals["tenant.latency_p95_at_2x_virtual_s"] = p95
		}
		// A backlog, once it starts, only grows with load: stop at the
		// first load that misses.
		if holding && p95 <= limit && out.failedJobs == 0 {
			sustained = load
		} else {
			holding = false
		}
	}
	l.vals["tenant.sustained_load_x"] = sustained
}

// variants re-runs the three epochs once each under other cache
// configurations. Virtual and exact; this is the evidence table for the
// tier's other regimes and for the per-job cache and readahead.
func (w *sciWorkload) variants(l *layerRun, measured *outcome) {
	workingSet := int64(len(w.ds.Files)) * w.ds.VarRawBytes
	half := workingSet / 2 / 8 // per node, 8 nodes: total capacity half the decoded working set
	const shift = 4
	runs := []struct {
		metric string
		v      sciVariant
		// sameOutputs: the variant reads what the measured run read, so a
		// cache may not change a byte of the outputs.
		sameOutputs bool
	}{
		{"ioengine.jct_tier_off_virtual_s", sciVariant{}, true},
		{"ioengine.jct_tier_lru_half_virtual_s", sciVariant{tier: ioengine.TierConfig{NodeBytes: half, Policy: ioengine.PolicyLRU}}, true},
		{"ioengine.jct_tier_cost_half_virtual_s", sciVariant{tier: ioengine.TierConfig{NodeBytes: half, Policy: ioengine.PolicyCost}}, true},
		{"ioengine.jct_tier_shifted_virtual_s", sciVariant{tier: w.tier, shift: shift}, false},
		{"ioengine.jct_tier_off_shifted_virtual_s", sciVariant{shift: shift}, false},
		{"ioengine.jct_jobcache_virtual_s", sciVariant{jobCache: true}, true},
		{"ioengine.jct_prefetch4_virtual_s", sciVariant{prefetch: 4}, true},
	}
	for _, r := range runs {
		var out *outcome
		l.sp.do("layer."+r.metric, func() {
			var err error
			out, err = w.run(runOpts{workers: 2}, r.v)
			l.fail(err)
		})
		if out == nil {
			return
		}
		if len(out.problems) > 0 {
			l.fail(fmt.Errorf("%s: %v", r.metric, out.problems))
		}
		if r.sameOutputs && out.digest != measured.digest {
			l.fail(fmt.Errorf("%s changed the outputs: digest %.12s, measured run %.12s", r.metric, out.digest, measured.digest))
		}
		l.vals[r.metric] = out.jct
	}
}
