// Spark extension: the paper's stated future-work path ("SciDP can be
// extended to support other BD frameworks, such as Spark") demonstrated
// with this repository's Spark-like engine.
//
// The same Data Mapper output and input format that feed Hadoop jobs
// become an RDD's input: its splits are SciDP dummy blocks, resolved by
// PFS Readers on the executors. The pipeline below finds, per timestamp,
// the heaviest rainfall cell across all levels via map + reduceByKey —
// data never leaves the PFS.
//
// Run with: go run ./examples/spark-extension
package main

import (
	"fmt"
	"os"

	"scidp/internal/core"
	"scidp/internal/mapreduce"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/sparklite"
	"scidp/internal/workloads"
)

// cellMax is the per-slab maximum and its grid location.
type cellMax struct {
	value              float64
	level, lat, lon, t int
}

func main() {
	env := solutions.NewEnv(solutions.DefaultEnvConfig(1000, 5))
	spec := workloads.NUWRFSpec{Timestamps: 4, Levels: 10, Lat: 32, Lon: 32, Vars: 6, Dir: "/nuwrf"}
	if _, err := workloads.Generate(env.PFS, spec); err != nil {
		fail(err)
	}

	sc := sparklite.NewContext(env.BD)
	var out []sparklite.Record
	env.K.Go("driver", func(p *sim.Proc) {
		mapper := core.NewMapper(env.HDFS, env.Registry, "/scidp")
		// One split per level: finer-grained than the Hadoop runs, to
		// exercise Spark-style many-small-tasks execution.
		mapping, err := mapper.MapPath(p, env.Mount(env.BD.Node(0)), "/nuwrf", core.MapOptions{
			Vars: []string{"QR"}, RowsPerBlock: 1,
		})
		if err != nil {
			fail(err)
		}
		// The same input format a Hadoop job reads the mapping through.
		in := &core.InputFormat{
			HDFS: env.HDFS, Dir: mapping.Root,
			Registry: env.Registry, MountFor: env.Mount,
			Cost: core.CostModel{DecompressPerRawMB: 0.01},
		}
		rdd := sc.FromInput(in).
			Map(func(tc *mapreduce.TaskContext, r sparklite.Record) (sparklite.Record, error) {
				slab := r.V.(*core.Slab)
				vals, err := slab.Float32s()
				if err != nil {
					return sparklite.Record{}, err
				}
				best := cellMax{value: -1, t: workloads.TimestampIndex(slab.PFSPath)}
				nx := slab.Count[2]
				for i, v := range vals {
					if float64(v) > best.value {
						best.value = float64(v)
						best.level = slab.Start[0]
						best.lat = i / nx
						best.lon = i % nx
					}
				}
				return sparklite.Record{K: fmt.Sprintf("t%04d", best.t), V: best}, nil
			}).
			ReduceByKey(func(tc *mapreduce.TaskContext, key string, values []any) (any, error) {
				best := cellMax{value: -1}
				for _, v := range values {
					c := v.(cellMax)
					if c.value > best.value {
						best = c
					}
				}
				return best, nil
			}, len(env.BD.Nodes))
		var cerr error
		out, cerr = rdd.Collect(p)
		if cerr != nil {
			fail(cerr)
		}
	})
	env.K.Run()

	fmt.Println("heaviest rainfall cell per timestamp (Spark-like engine over SciDP dummy blocks):")
	for _, r := range out {
		c := r.V.(cellMax)
		fmt.Printf("  %s  value=%.4f at level=%d lat=%d lon=%d\n", r.K, c.value, c.level, c.lat, c.lon)
	}
	fmt.Printf("\nHDFS data bytes stored: %d; virtual time: %.1f s\n", env.HDFS.TotalUsed(), env.K.Now())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "spark-extension: %v\n", err)
	os.Exit(1)
}
