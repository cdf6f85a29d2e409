// CMIP-style model intercomparison — the motivating workflow of the
// paper's Section II ("CMIP-5/6 ... compares netCDF outputs from
// different MPI-based simulation models").
//
// Two synthetic "models" (different field seeds) write netCDF output to
// the PFS. SciDP maps both runs, and one MapReduce job reads matching
// timestamps from each model directly off the PFS, computes per-level
// RMS differences, and aggregates a comparison table — without ever
// copying either model's output to HDFS.
//
// Run with: go run ./examples/cmip-compare
package main

import (
	"fmt"
	"math"
	"os"
	"slices"

	"scidp/internal/core"
	"scidp/internal/mapreduce"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/workloads"
)

func main() {
	env := solutions.NewEnv(solutions.DefaultEnvConfig(1000, 5))

	spec := workloads.NUWRFSpec{Timestamps: 4, Levels: 8, Lat: 32, Lon: 32, Vars: 4}
	specA, specB := spec, spec
	specA.Dir, specA.Seed = "/modelA", 1
	specB.Dir, specB.Seed = "/modelB", 2
	dsA, err := workloads.Generate(env.PFS, specA)
	check(err)
	dsB, err := workloads.Generate(env.PFS, specB)
	check(err)
	fmt.Printf("two model runs on the PFS: %d + %d files\n", len(dsA.Files), len(dsB.Files))

	type cmp struct {
		t    int
		rms  float64
		bias float64
	}
	var results []cmp

	env.K.Go("driver", func(p *sim.Proc) {
		mapper := core.NewMapper(env.HDFS, env.Registry, "/scidp")
		mapA, err := mapper.MapPath(p, env.Mount(env.BD.Node(0)), "/modelA", core.MapOptions{
			Vars: []string{"QR"}, RowsPerBlock: spec.Levels,
		})
		check(err)
		mapB, err := mapper.MapPath(p, env.Mount(env.BD.Node(0)), "/modelB", core.MapOptions{
			Vars: []string{"QR"}, RowsPerBlock: spec.Levels,
		})
		check(err)
		// Model B's QR dummy block by source file (one a file: a block spans
		// every level), from the same mapping table model A's are served from.
		twins := map[string]*core.SlabSource{}
		for _, f := range mapB.Files {
			twins[f.PFSPath] = f.Vars[0].INode.Blocks[0].Source.(*core.SlabSource)
		}

		// One map task per model-A timestamp; each task pulls the twin
		// slab from model B through its own PFS Reader (cross-model join
		// inside the task — both reads go straight to the PFS).
		job := &mapreduce.Job{
			Name:    "cmip-compare",
			Cluster: env.BD,
			Input: &core.InputFormat{
				HDFS: env.HDFS, Dir: mapA.Root,
				Registry: env.Registry, MountFor: env.Mount,
				Cost: core.DefaultCostModel(),
			},
			Map: func(tc *mapreduce.TaskContext, key string, value any) error {
				slabA := value.(*core.Slab)
				t := workloads.TimestampIndex(slabA.PFSPath)
				reader := core.NewPFSReader(env.Registry, env.Mount(tc.Node()))
				slabB, err := reader.ReadSlab(tc.Proc(), twins[fmt.Sprintf("/modelB/%s", workloads.FileName(t))])
				if err != nil {
					return err
				}
				a, err := slabA.Float32s()
				if err != nil {
					return err
				}
				b, err := slabB.Float32s()
				if err != nil {
					return err
				}
				var sumSq, sum float64
				for i := range a {
					d := float64(a[i]) - float64(b[i])
					sumSq += d * d
					sum += d
				}
				n := float64(len(a))
				tc.Emit("cmp", cmp{t: t, rms: math.Sqrt(sumSq / n), bias: sum / n})
				return nil
			},
			Reduce: func(tc *mapreduce.TaskContext, key string, values []any) error {
				for _, v := range values {
					results = append(results, v.(cmp))
				}
				return nil
			},
		}
		_, err = job.Run(p)
		check(err)
	})
	env.K.Run()

	slices.SortFunc(results, func(a, b cmp) int { return a.t - b.t })
	fmt.Println("\nmodel A vs model B, variable QR:")
	fmt.Println("timestamp  RMS difference  mean bias")
	for _, r := range results {
		fmt.Printf("%9d  %14.5f  %9.5f\n", r.t, r.rms, r.bias)
	}
	fmt.Printf("\nHDFS data bytes stored: %d (both models stayed on the PFS)\n", env.HDFS.TotalUsed())
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmip-compare: %v\n", err)
		os.Exit(1)
	}
}
