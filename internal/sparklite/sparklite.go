// Package sparklite is a minimal Spark-like engine over the simulated
// cluster: lazily composed RDDs (map / reduceByKey / collect) executed
// as staged DAGs with narrow transformations fused into one task wave and
// shuffles between stages. The SciDP paper names Spark
// support as the designed extension path ("SciDP can be extended to
// support other BD frameworks, such as Spark and Impala"; SciSpark and
// H5Spark are the related systems) — this package demonstrates that the
// Data Mapper / PFS Reader design carries over: scidpsource.go provides
// an RDD whose partitions are SciDP dummy blocks resolved against the
// PFS.
//
// Below the RDD API the engine is MapReduce's stage runner: each stage is
// one mapreduce.RunStage call, so tasks get the same locality queue with
// rack and zone tiers, windowed feed, attempt-local commit and spans.
//
// The engine intentionally implements only what the workloads here need;
// it is an extension demonstration, not a Spark reimplementation.
package sparklite

import (
	"fmt"
	"slices"
	"strings"

	"scidp/internal/cluster"
	"scidp/internal/mapreduce"
	"scidp/internal/sim"
)

// Record is one element of a distributed dataset.
type Record struct {
	// K is the key ("" for un-keyed data).
	K string
	// V is the value.
	V any
}

// Partition is one parallel slice of an RDD's input.
type Partition struct {
	// Index is the partition number.
	Index int
	// Label names the partition for traces.
	Label string
	// Payload carries whatever the source needs to read the partition.
	Payload any
	// PreferredHosts biases scheduling (empty = anywhere).
	PreferredHosts []string
}

// Source produces an RDD's partitions and reads them.
type Source interface {
	// Partitions enumerates the input (metadata cost on p).
	Partitions(p *sim.Proc) ([]*Partition, error)
	// Read materializes one partition's records on the task's node,
	// charging I/O through the context.
	Read(tc *TaskCtx, part *Partition) ([]Record, error)
}

// TaskCtx is the execution context inside one task: the stage runner's
// task context, narrowed to what RDD code uses.
type TaskCtx struct{ tc *mapreduce.TaskContext }

// Proc returns the task's simulated process.
func (tc *TaskCtx) Proc() *sim.Proc { return tc.tc.Proc() }

// Node returns the machine the task runs on.
func (tc *TaskCtx) Node() *cluster.Node { return tc.tc.Node() }

// Charge blocks the task for d virtual seconds of modeled compute.
func (tc *TaskCtx) Charge(d float64) { tc.tc.Charge("Compute", d) }

// op is one narrow transformation in a stage's fused pipeline.
type op func(tc *TaskCtx, r Record) (Record, error)

// RDD is a lazily composed distributed dataset.
type RDD struct {
	sc     *Context
	source Source
	parent *RDD
	// shuffle marks a wide dependency: records are repartitioned by key
	// before this RDD's ops run.
	shuffle  bool
	reducer  func(tc *TaskCtx, key string, values []any) (any, error)
	reduceTo int
	ops      []op
}

// Context drives jobs on one cluster.
type Context struct {
	cluster *cluster.Cluster
	// TaskStartup is the per-task launch cost (Spark executors reuse
	// JVMs, so the default is far below Hadoop's). Zero takes the stage
	// runner's default, as on mapreduce.Job.
	TaskStartup float64
	// PairBytes sizes records for shuffle accounting.
	PairBytes func(r Record) int64
}

// NewContext builds a Spark-like context over the cluster.
func NewContext(cl *cluster.Cluster) *Context {
	return &Context{
		cluster:     cl,
		TaskStartup: 0.1,
		PairBytes:   func(r Record) int64 { return int64(len(r.K)) + 16 },
	}
}

// FromSource creates the root RDD of a lineage.
func (sc *Context) FromSource(src Source) *RDD { return &RDD{sc: sc, source: src} }

// Map applies f to every record; it derives a new RDD appending one narrow
// op to this one's stage.
func (r *RDD) Map(f func(tc *TaskCtx, rec Record) (Record, error)) *RDD {
	nr := *r
	nr.ops = append(append([]op(nil), r.ops...), f)
	return &nr
}

// ReduceByKey introduces a shuffle boundary: records are hashed to
// reducers partitions by key and each key's values are folded by f.
func (r *RDD) ReduceByKey(f func(tc *TaskCtx, key string, values []any) (any, error), reducers int) *RDD {
	if reducers <= 0 {
		reducers = len(r.sc.cluster.Nodes)
	}
	return &RDD{sc: r.sc, parent: r, shuffle: true, reducer: f, reduceTo: reducers}
}

// Collect executes the lineage from the driver process and returns the
// resulting records sorted by key (then insertion order).
func (r *RDD) Collect(p *sim.Proc) ([]Record, error) {
	recs, err := r.execute(p)
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(recs, func(a, b Record) int { return strings.Compare(a.K, b.K) })
	return recs, nil
}

// execute runs the DAG: recursively materialize the parent (previous
// stage), then this stage's wave.
func (r *RDD) execute(p *sim.Proc) ([]Record, error) {
	if r.shuffle {
		parentOut, err := r.parent.execute(p)
		if err != nil {
			return nil, err
		}
		return r.reduceStage(p, parentOut)
	}
	// Source stage: one task per partition, narrow ops fused.
	if r.source == nil {
		return nil, fmt.Errorf("sparklite: RDD has neither source nor parent")
	}
	parts, err := r.source.Partitions(p)
	if err != nil {
		return nil, err
	}
	return r.runWave(p, "scan", parts, func(tc *TaskCtx, part *Partition) ([]Record, error) {
		recs, err := r.source.Read(tc, part)
		if err != nil {
			return nil, err
		}
		return applyOps(tc, r.ops, recs)
	})
}

// reduceStage is the wave after a shuffle boundary: the parent's output
// is partitioned by key hash and each bucket's keys folded by the reducer.
// Where each bucket's bytes come from is approximated as uniform across
// nodes (the parent stage spread its tasks round-robin), so the shuffle
// charges (nodes-1)/nodes of the bytes across the fabric.
func (r *RDD) reduceStage(p *sim.Proc, parentOut []Record) ([]Record, error) {
	nodes := r.sc.cluster.Nodes
	buckets := make([][]Record, r.reduceTo)
	for _, rec := range parentOut {
		b := hashString(rec.K) % uint32(r.reduceTo)
		buckets[b] = append(buckets[b], rec)
	}
	parts := make([]*Partition, r.reduceTo)
	for i := range parts {
		parts[i] = &Partition{Index: i, Label: fmt.Sprintf("reduce-%d", i)}
	}
	return r.runWave(p, "reduce", parts, func(tc *TaskCtx, part *Partition) ([]Record, error) {
		i := part.Index
		// Shuffle fetch for this bucket.
		var bucketBytes int64
		for _, rec := range buckets[i] {
			bucketBytes += r.sc.PairBytes(rec)
		}
		remote := float64(bucketBytes) * float64(len(nodes)-1) / float64(len(nodes))
		if remote > 0 {
			src := nodes[(i+1)%len(nodes)]
			tc.Proc().Transfer(remote, r.sc.cluster.NetPath(src, tc.Node())...)
		}
		// Group and reduce.
		grouped := map[string][]any{}
		var order []string
		for _, rec := range buckets[i] {
			if _, ok := grouped[rec.K]; !ok {
				order = append(order, rec.K)
			}
			grouped[rec.K] = append(grouped[rec.K], rec.V)
		}
		var out []Record
		for _, k := range order {
			v, err := r.reducer(tc, k, grouped[k])
			if err != nil {
				return nil, err
			}
			out = append(out, Record{K: k, V: v})
		}
		// Post-shuffle narrow ops (rare but legal).
		return applyOps(tc, r.ops, out)
	})
}

// runWave runs one task per partition as one stage on the shared stage
// runner and returns their records concatenated in partition order. A
// body's records reach the result only when the runner commits its
// attempt, so a failed or discarded attempt leaves nothing behind.
func (r *RDD) runWave(p *sim.Proc, name string, parts []*Partition, body func(tc *TaskCtx, part *Partition) ([]Record, error)) ([]Record, error) {
	job := &mapreduce.Job{Name: "spark", Cluster: r.sc.cluster, TaskStartup: r.sc.TaskStartup}
	results := make([][]Record, len(parts))
	next := 0
	err := job.RunStage(p, name, func(*sim.Proc) (*mapreduce.Task, error) {
		if next == len(parts) {
			return nil, nil
		}
		i, part := next, parts[next]
		next++
		return &mapreduce.Task{Label: part.Label, Locations: part.PreferredHosts,
			Run: func(mtc *mapreduce.TaskContext) (func(), error) {
				recs, err := body(&TaskCtx{tc: mtc}, part)
				if err != nil {
					return nil, err
				}
				return func() { results[i] = recs }, nil
			}}, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(results...), nil
}

// applyOps runs a task's records through the stage's fused narrow
// pipeline, one op at a time.
func applyOps(tc *TaskCtx, ops []op, recs []Record) ([]Record, error) {
	for _, o := range ops {
		next := make([]Record, len(recs))
		for i, rec := range recs {
			var err error
			if next[i], err = o(tc, rec); err != nil {
				return nil, err
			}
		}
		recs = next
	}
	return recs, nil
}

// hashString is FNV-1a.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
