// Package sparklite is a minimal Spark-like binding over the MapReduce
// engine: lazily composed RDDs (map / reduceByKey / collect) whose
// lineage compiles into one mapreduce.Job, the way internal/rmr binds
// R-style code. The SciDP paper names Spark support as the designed
// extension path ("SciDP can be extended to support other BD frameworks,
// such as Spark and Impala"; SciSpark and H5Spark are the related
// systems) — this package demonstrates that the Data Mapper / PFS Reader
// design carries over: an RDD reads any mapreduce.InputFormat, so the
// same core.InputFormat a Hadoop job reads SciDP dummy blocks through is
// an RDD's input too.
//
// Narrow Map ops before the shuffle fuse into the job's Map; ReduceByKey's
// fold and the ops after it become the job's Reduce, fed by the engine's
// sort-merge shuffle. Tasks get the engine's locality queue, windowed
// feed, attempt-local commit and spans.
//
// The binding intentionally implements only what the workloads here need;
// it is an extension demonstration, not a Spark reimplementation.
package sparklite

import (
	"fmt"

	"scidp/internal/cluster"
	"scidp/internal/mapreduce"
	"scidp/internal/sim"
)

// Record is one element of a distributed dataset: K is its key ("" for
// un-keyed data), V its value.
type Record = mapreduce.KV

// taskStartup is the per-task launch cost: Spark executors reuse JVMs, so
// it is far below Hadoop's 1 s.
const taskStartup = 0.1

// op is one narrow transformation of a fused pipeline.
type op func(tc *mapreduce.TaskContext, r Record) (Record, error)

// RDD is a lazily composed distributed dataset.
type RDD struct {
	sc    *Context
	input mapreduce.InputFormat
	// pre is the fused pipeline every input record goes through (nil =
	// identity); post runs on each reduced record after the shuffle.
	pre, post op
	// reducer folds one key's values across the shuffle; nil for a
	// lineage without one.
	reducer  func(tc *mapreduce.TaskContext, key string, values []any) (any, error)
	reduceTo int
	err      error
}

// Context drives jobs on one cluster.
type Context struct{ cluster *cluster.Cluster }

// NewContext builds a Spark-like context over the cluster.
func NewContext(cl *cluster.Cluster) *Context { return &Context{cluster: cl} }

// FromInput creates the root RDD of a lineage: one record per record the
// input format reads.
func (sc *Context) FromInput(in mapreduce.InputFormat) *RDD { return &RDD{sc: sc, input: in} }

// Map applies f to every record; it derives a new RDD appending one narrow
// op to this one's pipeline.
func (r *RDD) Map(f func(tc *mapreduce.TaskContext, rec Record) (Record, error)) *RDD {
	nr := *r
	if r.reducer == nil {
		nr.pre = then(r.pre, f)
	} else {
		nr.post = then(r.post, f)
	}
	return &nr
}

// ReduceByKey introduces the shuffle boundary: records are hashed to
// reducers partitions by key and each key's values are folded by f. A
// lineage holds at most one shuffle; a second fails at Collect.
func (r *RDD) ReduceByKey(f func(tc *mapreduce.TaskContext, key string, values []any) (any, error), reducers int) *RDD {
	nr := *r
	if r.reducer != nil {
		nr.err = fmt.Errorf("sparklite: a lineage holds one shuffle; ReduceByKey after ReduceByKey is not supported")
	}
	if reducers <= 0 {
		reducers = len(r.sc.cluster.Nodes)
	}
	nr.reducer, nr.reduceTo = f, reducers
	return &nr
}

// Collect runs the lineage as one job from the driver process and returns
// the resulting records sorted by key (then insertion order).
func (r *RDD) Collect(p *sim.Proc) ([]Record, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.input == nil {
		return nil, fmt.Errorf("sparklite: RDD has no input")
	}
	job := &mapreduce.Job{Name: "spark", Cluster: r.sc.cluster, Input: r.input, TaskStartup: taskStartup,
		Map: func(tc *mapreduce.TaskContext, key string, value any) error {
			return emit(tc, r.pre, Record{K: key, V: value})
		}}
	if r.reducer != nil {
		job.NumReducers = r.reduceTo
		job.Reduce = func(tc *mapreduce.TaskContext, key string, values []any) error {
			v, err := r.reducer(tc, key, values)
			if err != nil {
				return err
			}
			return emit(tc, r.post, Record{K: key, V: v})
		}
	}
	res, err := job.Run(p)
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// then fuses b after a (a nil a is the identity).
func then(a, b op) op {
	if a == nil {
		return b
	}
	return func(tc *mapreduce.TaskContext, rec Record) (Record, error) {
		rec, err := a(tc, rec)
		if err != nil {
			return Record{}, err
		}
		return b(tc, rec)
	}
}

// emit sends rec through the fused pipeline f (nil = identity) and emits
// the result.
func emit(tc *mapreduce.TaskContext, f op, rec Record) error {
	if f != nil {
		var err error
		if rec, err = f(tc, rec); err != nil {
			return err
		}
	}
	tc.Emit(rec.K, rec.V)
	return nil
}
