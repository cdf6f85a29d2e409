package main

// metricDef describes one benchmark metric. The two tables below are the
// single source of truth: BENCHMARK.json, the README glossary, -list and
// -compare all follow them, and benchmark_test.go fails when they drift.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	// Layer is the module a per-layer metric belongs to (empty for
	// end-to-end metrics). A per-layer metric reads 0 on a workload that
	// does not exercise its layer.
	Layer string
	// Exact marks a virtual figure or a counter: it repeats bit-for-bit
	// for one seed at any worker count, so two commits compare exactly.
	Exact bool
	Doc   string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics an untraced run prints, for every workload.
// Bound is the share of the baseline median by which the metric may get
// worse before -compare (and the driver) calls it a regression. Virtual
// metrics repeat bit-for-bit for one seed; their bounds cover the spread
// across seeds, which the driver also checks.
var endToEnd = []metricDef{
	{Name: "jct_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Bound: 0.01,
		Doc: "virtual job-completion time of one iteration: Report.TotalSeconds; sum of the three epochs; MiniResult.Seconds; mean replay makespan"},
	{Name: "speedup_vs_baseline", Exact: true, Unit: "ratio", Better: higher, Bound: 0.06,
		Doc: "virtual time of the workload's reference configuration / this one: SciHadoop (Table III), tier off, Lustre connector (Fig. 2), FIFO scheduler (median job latency)"},
	{Name: "job_latency_virtual_p50_s", Exact: true, Unit: "virtual_s", Better: lower, Bound: 0.05,
		Doc: "median virtual latency over the jobs an iteration submits (DoneAt-SubmitAt on tenant-replay, pooled over the sub-traces; the job's own JCT elsewhere)"},
	{Name: "job_latency_virtual_p95_s", Exact: true, Unit: "virtual_s", Better: lower, Bound: 0.25,
		Doc: "p95 of the same latencies"},
	{Name: "goodput_jobs_per_virtual_ks", Exact: true, Unit: "jobs/ks", Better: higher, Bound: 0.01,
		Doc: "completed jobs per 1000 virtual seconds of makespan"},
	{Name: "iter_wall_s_p50", Unit: "s", Better: lower, Bound: 0.25,
		Doc: "median wall seconds per iteration (testbed build + input install + run to quiescence)"},
	{Name: "iter_cpu_s_p50", Unit: "s", Better: lower, Bound: 0.25,
		Doc: "median process user+sys CPU seconds per iteration"},
	{Name: "allocs_per_iter", Unit: "count", Better: lower, Bound: 0.02,
		Doc: "median runtime.MemStats.Mallocs delta per iteration"},
	{Name: "alloc_mb_per_iter", Unit: "MB", Better: lower, Bound: 0.02,
		Doc: "median runtime.MemStats.TotalAlloc delta per iteration, MB"},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25,
		Doc: "ru_maxrss when the measured loop ends"},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25,
		Doc: "input generation + first testbed build, median of at least three set-ups"},
}

// perLayer lists the metrics a traced run prints, for every workload.
// They have no bound: they explain a move of an end-to-end metric, they
// do not gate a change.
var perLayer = []metricDef{
	// sim
	{Name: "sim.events", Exact: true, Unit: "count", Better: lower, Layer: "sim", Doc: "Kernel.EventsProcessed per iteration"},
	{Name: "sim.compute_tasks", Exact: true, Unit: "count", Better: lower, Layer: "sim", Doc: "closures handed to the data plane per iteration (sim/compute_tasks_total)"},
	{Name: "sim.kernel_events_per_wall_s", Unit: "1/s", Better: higher, Layer: "sim", Doc: "kernel-only job: 128 nodes x 2 slots, 25600 streamed synthetic splits"},
	{Name: "sim.flows_per_wall_s", Unit: "1/s", Better: higher, Layer: "sim", Doc: "10000 concurrent StartFlows over 64 resources"},
	{Name: "sim.forkjoin_us_per_task", Unit: "us", Better: lower, Layer: "sim", Doc: "empty Compute+Await round trip, pool of 2"},
	{Name: "sim.pool_speedup", Unit: "ratio", Better: higher, Layer: "sim", Doc: "iteration wall with the inline pool (Workers -1) / with 2 workers"},
	{Name: "sim.pool_cpu_ratio", Unit: "ratio", Better: higher, Layer: "sim", Doc: "iteration CPU / wall at 2 workers; 2.0 is both cores busy"},
	// pfs
	{Name: "pfs.readat_wall_us_per_op", Unit: "us", Better: lower, Layer: "pfs", Doc: "Client.ReadAt of 64 KiB striped ranges"},
	{Name: "pfs.ost_read_bytes", Exact: true, Unit: "bytes", Better: lower, Layer: "pfs", Doc: "bytes read off all OSTs per iteration"},
	{Name: "pfs.ost_requests", Exact: true, Unit: "count", Better: lower, Layer: "pfs", Doc: "OST requests per iteration"},
	{Name: "pfs.mds_ops", Exact: true, Unit: "count", Better: lower, Layer: "pfs", Doc: "metadata operations per iteration"},
	{Name: "pfs.ost_busy_virtual_s_max", Exact: true, Unit: "virtual_s", Better: lower, Layer: "pfs", Doc: "busy time of the busiest OST"},
	// hdfs
	{Name: "hdfs.write_wall_us_per_mb", Unit: "us/MB", Better: lower, Layer: "hdfs", Doc: "FS.WriteFile of 1 MiB files"},
	{Name: "hdfs.readblock_local_wall_us_per_mb", Unit: "us/MB", Better: lower, Layer: "hdfs", Doc: "FS.ReadBlock from the replica's own node"},
	{Name: "hdfs.readblock_remote_wall_us_per_mb", Unit: "us/MB", Better: lower, Layer: "hdfs", Doc: "FS.ReadBlock across the fabric"},
	{Name: "hdfs.namenode_ops", Exact: true, Unit: "count", Better: lower, Layer: "hdfs", Doc: "NameNode RPCs per iteration"},
	{Name: "hdfs.read_bytes", Exact: true, Unit: "bytes", Better: lower, Layer: "hdfs", Doc: "bytes read from HDFS per iteration"},
	{Name: "hdfs.write_bytes", Exact: true, Unit: "bytes", Better: lower, Layer: "hdfs", Doc: "bytes written to HDFS per iteration"},
	// netcdf
	{Name: "netcdf.open_us_p50", Unit: "us", Better: lower, Layer: "netcdf", Doc: "header-only Open of one of the workload's files"},
	{Name: "netcdf.getvara_mb_per_s", Unit: "MB/s", Better: higher, Layer: "netcdf", Doc: "GetVara(QR) whole variable, raw MB per wall second"},
	{Name: "netcdf.getvara_allocs_per_op", Unit: "count", Better: lower, Layer: "netcdf", Doc: "mallocs per GetVara"},
	{Name: "netcdf.getvara_alloc_kb_per_op", Unit: "KB", Better: lower, Layer: "netcdf", Doc: "bytes allocated per GetVara"},
	{Name: "netcdf.write_mb_per_s", Unit: "MB/s", Better: higher, Layer: "netcdf", Doc: "PutVarFloat32 + Bytes at deflate 1, raw MB per wall second"},
	// ioengine
	{Name: "ioengine.cache_get_hit_ns", Unit: "ns", Better: lower, Layer: "ioengine", Doc: "Cache.Get hit, 6400-byte values, 4 MiB budget"},
	{Name: "ioengine.cache_put_ns", Unit: "ns", Better: lower, Layer: "ioengine", Doc: "Cache.Put with eviction, same sizes"},
	{Name: "ioengine.chunk_reads", Exact: true, Unit: "count", Better: lower, Layer: "ioengine", Doc: "chunk reads through Bound.ReadChunk per iteration"},
	{Name: "ioengine.tier_local_hits", Exact: true, Unit: "count", Better: higher, Layer: "ioengine", Doc: "tier reads served from the node's own buffer"},
	{Name: "ioengine.tier_peer_hits", Exact: true, Unit: "count", Better: higher, Layer: "ioengine", Doc: "tier reads fetched from a peer's buffer"},
	{Name: "ioengine.tier_ost_reads", Exact: true, Unit: "count", Better: lower, Layer: "ioengine", Doc: "tier reads that fell through to the PFS"},
	{Name: "ioengine.tier_evictions", Exact: true, Unit: "count", Better: lower, Layer: "ioengine", Doc: "tier evictions"},
	{Name: "ioengine.tier_promotions", Exact: true, Unit: "count", Better: lower, Layer: "ioengine", Doc: "hot-block replicas that landed"},
	{Name: "ioengine.tier_hit_ratio", Exact: true, Unit: "ratio", Better: higher, Layer: "ioengine", Doc: "(local + peer) / all tier-arbitrated reads"},
	{Name: "ioengine.jct_tier_off_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "ioengine", Doc: "the three epochs with the tier off"},
	{Name: "ioengine.jct_tier_lru_half_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "ioengine", Doc: "tier capacity half the decoded working set, LRU"},
	{Name: "ioengine.jct_tier_cost_half_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "ioengine", Doc: "same capacity, cost-aware eviction"},
	{Name: "ioengine.jct_tier_shifted_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "ioengine", Doc: "epochs 1-2 read a window shifted by 4 files (reads land on non-holders), tier on"},
	{Name: "ioengine.jct_tier_off_shifted_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "ioengine", Doc: "the shifted epochs with the tier off"},
	{Name: "ioengine.jct_jobcache_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "ioengine", Doc: "per-node CacheSet shared across the epochs, tier off"},
	{Name: "ioengine.jct_prefetch4_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "ioengine", Doc: "readahead depth 4, tier off"},
	// core
	{Name: "core.explore_wall_ms", Unit: "ms", Better: lower, Layer: "core", Doc: "Explorer.ExplorePath over the dataset directory"},
	{Name: "core.mappath_wall_ms", Unit: "ms", Better: lower, Layer: "core", Doc: "Mapper.MapPath, selected variable"},
	{Name: "core.mappath_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "core", Doc: "virtual seconds MapPath charges"},
	{Name: "core.readslab_wall_us_p50", Unit: "us", Better: lower, Layer: "core", Doc: "PFSReader.ReadSlab of one mapped block"},
	// mapreduce
	{Name: "mapreduce.sched_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "mapreduce", Doc: "critical-path seconds in the sched bucket, summed over the iteration's jobs (analyze.Analyze)"},
	{Name: "mapreduce.io_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "mapreduce", Doc: "critical-path seconds in the io bucket"},
	{Name: "mapreduce.compute_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "mapreduce", Doc: "critical-path seconds in the compute bucket"},
	{Name: "mapreduce.shuffle_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "mapreduce", Doc: "critical-path seconds in the shuffle bucket"},
	{Name: "mapreduce.task_attempts", Exact: true, Unit: "count", Better: lower, Layer: "mapreduce", Doc: "task attempts per iteration"},
	{Name: "mapreduce.shuffle_bytes", Exact: true, Unit: "bytes", Better: lower, Layer: "mapreduce", Doc: "intermediate bytes moved per iteration"},
	{Name: "mapreduce.shuffle_records_per_wall_s", Unit: "1/s", Better: higher, Layer: "mapreduce", Doc: "Job.Run over in-memory splits: 100-byte records, 8 reducers, no file system"},
	{Name: "mapreduce.shuffle_allocs_per_record", Unit: "count", Better: lower, Layer: "mapreduce", Doc: "mallocs per record in the same job"},
	// rframe
	{Name: "rframe.image2d_us_p50", Unit: "us", Better: lower, Layer: "rframe", Doc: "Image2D of one 40x40 level at 32 px"},
	{Name: "rframe.image2d_alloc_kb_per_op", Unit: "KB", Better: lower, Layer: "rframe", Doc: "bytes allocated per Image2D"},
	{Name: "rframe.fromarray3d_us_p50", Unit: "us", Better: lower, Layer: "rframe", Doc: "FromArray3D of one variable"},
	{Name: "rframe.animategif_ms_p50", Unit: "ms", Better: lower, Layer: "rframe", Doc: "AnimateGIF of one timestamp's levels"},
	// rsql
	{Name: "rsql.query_top1pct_ms_p50", Unit: "ms", Better: lower, Layer: "rsql", Doc: "ORDER BY value DESC LIMIT rows/100 over one variable's frame"},
	{Name: "rsql.query_top1pct_allocs_per_op", Unit: "count", Better: lower, Layer: "rsql", Doc: "mallocs per such query"},
	{Name: "rsql.query_top10_ms_p50", Unit: "ms", Better: lower, Layer: "rsql", Doc: "the same with LIMIT 10"},
	{Name: "rsql.compile_us_p50", Unit: "us", Better: lower, Layer: "rsql", Doc: "CompileArray: lex + parse + plan"},
	// tenant
	{Name: "tenant.submit_us_p50", Unit: "us", Better: lower, Layer: "tenant", Doc: "Service.Submit, admission included"},
	{Name: "tenant.replay_wall_us_per_job", Unit: "us", Better: lower, Layer: "tenant", Doc: "untraced replay wall / jobs"},
	{Name: "tenant.queue_wait_virtual_p95_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "tenant", Doc: "p95 of StartAt-SubmitAt"},
	{Name: "tenant.run_virtual_p95_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "tenant", Doc: "p95 of DoneAt-StartAt"},
	{Name: "tenant.preemptions", Exact: true, Unit: "count", Better: lower, Layer: "tenant", Doc: "task preemptions per replay"},
	{Name: "tenant.backfills", Exact: true, Unit: "count", Better: higher, Layer: "tenant", Doc: "backfilled job starts per replay"},
	{Name: "tenant.rejected", Exact: true, Unit: "count", Better: lower, Layer: "tenant", Doc: "jobs refused at admission per replay"},
	{Name: "tenant.sustained_load_x", Exact: true, Unit: "x", Better: higher, Layer: "tenant", Doc: "highest swept load with p95 <= 5 virtual s and no rejected or failed job"},
	{Name: "tenant.latency_p95_at_2x_virtual_s", Exact: true, Unit: "virtual_s", Better: lower, Layer: "tenant", Doc: "p95 job latency at 2x load, the point next to the knee"},
	// obs
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: lower, Layer: "obs", Doc: "traced iteration wall / untraced"},
	{Name: "obs.spans", Exact: true, Unit: "count", Better: lower, Layer: "obs", Doc: "spans recorded per traced iteration"},
	{Name: "obs.spans_dropped", Exact: true, Unit: "count", Better: lower, Layer: "obs", Doc: "spans dropped by the registry's cap"},
	{Name: "obs.analyze_wall_ms", Unit: "ms", Better: lower, Layer: "obs", Doc: "analyze.Analyze over one traced iteration"},
	// solutions / workloads / runtime / pipeline
	{Name: "solutions.newenv_wall_ms", Unit: "ms", Better: lower, Layer: "solutions", Doc: "testbed build (env.build span), median"},
	{Name: "workloads.install_wall_ms", Unit: "ms", Better: lower, Layer: "workloads", Doc: "input install (setup.install span), median"},
	{Name: "workloads.generate_s", Unit: "s", Better: lower, Layer: "workloads", Doc: "input generation (setup.generate span)"},
	{Name: "runtime.gc_cycles_per_iter", Unit: "count", Better: lower, Layer: "runtime", Doc: "NumGC delta per untraced iteration, median"},
	{Name: "runtime.gc_pause_ms_per_iter", Unit: "ms", Better: lower, Layer: "runtime", Doc: "PauseTotalNs delta per untraced iteration, median"},
	{Name: "pipeline.unattributed_cpu_share", Unit: "ratio", Better: lower, Layer: "pipeline", Doc: "1 - (decode + plot replayed over the iteration's slabs + kernel events at the measured rate) / iteration CPU; scidp-imgonly only"},
}
