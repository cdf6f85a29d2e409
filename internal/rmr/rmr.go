// Package rmr is the analogue of RHadoop's rmr2 package: it lets R-style
// user code — functions over rframe data frames — run as MapReduce jobs.
// The paper's point is that SciDP "only requires the rhdfs and rmr2
// package to work" (Section IV-E3); this package is the rmr2 half of that
// minimal contract, and the hdfs package's own client is the rhdfs half.
package rmr

import (
	"fmt"

	"scidp/internal/cluster"
	"scidp/internal/mapreduce"
	"scidp/internal/rframe"
	"scidp/internal/sim"
)

// Ctx wraps the engine's task context with frame-aware emission.
type Ctx struct {
	// TC is the underlying engine context (Charge, Phase, Proc all
	// available).
	TC *mapreduce.TaskContext
}

// Keyval emits a keyed data frame.
func (c *Ctx) Keyval(key string, df *rframe.Frame) { c.TC.Emit(key, df) }

// MapFn is an R-style map function: one input record (a keyed frame, or
// whatever the input format produces) in, keyed frames/bytes out.
type MapFn func(c *Ctx, key string, value any) error

// ReduceFn is an R-style reduce function over one key's grouped values.
type ReduceFn func(c *Ctx, key string, values []any) error

// Spec describes an rmr job.
type Spec struct {
	// Name labels the job.
	Name string
	// Cluster is the Hadoop cluster to run on.
	Cluster *cluster.Cluster
	// Input produces the records (SciDP's input format, an HDFS text
	// format, ...).
	Input mapreduce.InputFormat
	// Map is the user's map function.
	Map MapFn
	// Reduce is the user's reduce function (nil = map-only).
	Reduce ReduceFn
	// NumReducers is the reduce task count.
	NumReducers int
	// TaskStartup overrides the per-task launch cost.
	TaskStartup float64
	// MaxAttempts bounds task attempts (retries + speculative backups).
	MaxAttempts int
	// Faults is the engine's unified fault-injection point (the chaos
	// injector, or a test stub); nil injects nothing.
	Faults mapreduce.TaskFaults
	// Speculation enables backup attempts for straggling map tasks.
	Speculation mapreduce.Speculation
}

// MapReduce runs the job from the driver process p.
func MapReduce(p *sim.Proc, spec Spec) (*mapreduce.Result, error) {
	if spec.Map == nil {
		return nil, fmt.Errorf("rmr: spec needs a Map function")
	}
	job := &mapreduce.Job{
		Name:        spec.Name,
		Cluster:     spec.Cluster,
		Input:       spec.Input,
		NumReducers: spec.NumReducers,
		TaskStartup: spec.TaskStartup,
		MaxAttempts: spec.MaxAttempts,
		Faults:      spec.Faults,
		Speculation: spec.Speculation,
		PairBytes:   PairBytes,
		Map: func(tc *mapreduce.TaskContext, key string, value any) error {
			return spec.Map(&Ctx{TC: tc}, key, value)
		},
	}
	if spec.Reduce != nil {
		job.Reduce = func(tc *mapreduce.TaskContext, key string, values []any) error {
			return spec.Reduce(&Ctx{TC: tc}, key, values)
		}
	}
	return job.Run(p)
}

// PairBytes sizes intermediate pairs for shuffle accounting: frames by
// their CSV-equivalent footprint, byte slices by length.
func PairBytes(kv mapreduce.KV) int64 {
	switch v := kv.V.(type) {
	case *rframe.Frame:
		// Approximate: 12 bytes per numeric cell, actual length for
		// strings, plus the key.
		var b int64
		for _, c := range v.Columns() {
			if c.Kind == rframe.String {
				for _, s := range c.S {
					b += int64(len(s)) + 1
				}
			} else {
				b += int64(c.Len()) * 12
			}
		}
		return b + int64(len(kv.K))
	case []byte:
		return int64(len(v)) + int64(len(kv.K))
	case string:
		return int64(len(v)) + int64(len(kv.K))
	default:
		return int64(len(kv.K)) + 16
	}
}
