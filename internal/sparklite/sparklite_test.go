package sparklite

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/core"
	"scidp/internal/mapreduce"
	"scidp/internal/rmr"
	"scidp/internal/sim"
	"scidp/internal/solutions"
	"scidp/internal/workloads"
)

func testCluster(k *sim.Kernel, nodes, slots int) *cluster.Cluster {
	return cluster.New(k, "bd", cluster.Config{
		Nodes: nodes, SlotsPerNode: slots,
		DiskBW: 1e6, NICBW: 1e6, FabricBW: 4e6,
	})
}

// memInput serves in-memory records split into parts splits.
type memInput struct {
	records []Record
	parts   int
}

func (m *memInput) Splits(*sim.Proc) ([]*mapreduce.Split, error) {
	out := make([]*mapreduce.Split, m.parts)
	for i := range out {
		out[i] = &mapreduce.Split{Label: fmt.Sprintf("mem-%d", i), Payload: i}
	}
	return out, nil
}

func (m *memInput) ForEach(tc *mapreduce.TaskContext, s *mapreduce.Split, fn func(key string, value any) error) error {
	n, i := len(m.records), s.Payload.(int)
	for _, r := range m.records[i*n/m.parts : (i+1)*n/m.parts] {
		if err := fn(r.K, r.V); err != nil {
			return err
		}
	}
	return nil
}

// parallelize feeds the RDD engine in-memory records split into n
// partitions.
func parallelize(sc *Context, records []Record, n int) *RDD {
	return sc.FromInput(&memInput{records: records, parts: n})
}

// collect runs the lineage from a driver proc.
func collect(t *testing.T, k *sim.Kernel, rdd *RDD) []Record {
	t.Helper()
	var out []Record
	var err error
	k.Go("driver", func(p *sim.Proc) {
		out, err = rdd.Collect(p)
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelizeMapCollect: two fused maps run over every partition and
// Collect returns the records in key order.
func TestParallelizeMapCollect(t *testing.T) {
	k := sim.NewKernel()
	sc := NewContext(testCluster(k, 2, 2))
	var recs []Record
	for i := 9; i >= 0; i-- {
		recs = append(recs, Record{K: fmt.Sprintf("k%02d", i), V: i})
	}
	double := func(tc *mapreduce.TaskContext, r Record) (Record, error) {
		return Record{K: r.K, V: r.V.(int) * 2}, nil
	}
	out := collect(t, k, parallelize(sc, recs, 4).Map(double).Map(double))
	if len(out) != 10 {
		t.Fatalf("out = %d records, want 10", len(out))
	}
	for i, r := range out {
		if r.K != fmt.Sprintf("k%02d", i) || r.V.(int) != 4*i {
			t.Fatalf("out[%d] = %+v", i, r)
		}
	}
}

func TestWordCountWithShuffle(t *testing.T) {
	k := sim.NewKernel()
	sc := NewContext(testCluster(k, 3, 2))
	var words []Record
	for _, w := range strings.Fields("a b a c b b a c c") {
		words = append(words, Record{V: w})
	}
	rdd := parallelize(sc, words, 4).
		Map(func(tc *mapreduce.TaskContext, r Record) (Record, error) {
			return Record{K: r.V.(string), V: 1}, nil
		}).
		ReduceByKey(func(tc *mapreduce.TaskContext, key string, values []any) (any, error) {
			sum := 0
			for _, v := range values {
				sum += v.(int)
			}
			return sum, nil
		}, 2)
	out := collect(t, k, rdd)
	want := map[string]int{"a": 3, "b": 3, "c": 3}
	if len(out) != 3 {
		t.Fatalf("out = %+v", out)
	}
	for _, r := range out {
		if r.V.(int) != want[r.K] {
			t.Errorf("%s = %v, want %d", r.K, r.V, want[r.K])
		}
	}
}

// TestStageErrorPropagates: a task that dies after producing some records
// fails the lineage, and — its commit never having run — leaves none of
// those records behind.
func TestStageErrorPropagates(t *testing.T) {
	k := sim.NewKernel()
	sc := NewContext(testCluster(k, 2, 1))
	rdd := parallelize(sc, []Record{{V: 1}, {V: 2}, {V: 3}}, 1).
		Map(func(tc *mapreduce.TaskContext, r Record) (Record, error) {
			if r.V.(int) == 3 {
				return Record{}, fmt.Errorf("boom")
			}
			return r, nil
		})
	var out []Record
	var err error
	k.Go("driver", func(p *sim.Proc) {
		out, err = rdd.Collect(p)
	})
	k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if out != nil {
		t.Fatalf("failed stage leaked partial records: %+v", out)
	}
}

// placedInput reports where and when each split ran: one record per
// split, keyed by label, valued "node@start".
type placedInput struct {
	hosts [][]string
	cost  float64
}

func (s *placedInput) Splits(*sim.Proc) ([]*mapreduce.Split, error) {
	out := make([]*mapreduce.Split, len(s.hosts))
	for i, h := range s.hosts {
		out[i] = &mapreduce.Split{Label: fmt.Sprintf("p%d", i), Locations: h}
	}
	return out, nil
}

func (s *placedInput) ForEach(tc *mapreduce.TaskContext, sp *mapreduce.Split, fn func(key string, value any) error) error {
	at := tc.Proc().Now()
	tc.Charge("Compute", s.cost)
	return fn(sp.Label, fmt.Sprintf("%s@%.1f", tc.Node().Name, at))
}

// TestPreferredHostsHonoured: with a free slot on each preferred node,
// every partition runs where it asked to — FIFO order would have crossed
// them.
func TestPreferredHostsHonoured(t *testing.T) {
	k := sim.NewKernel()
	sc := NewContext(testCluster(k, 2, 1))
	out := collect(t, k, sc.FromInput(&placedInput{hosts: [][]string{{"bd-1"}, {"bd-0"}}, cost: 1}))
	if len(out) != 2 || out[0].V != "bd-1@0.1" || out[1].V != "bd-0@0.1" {
		t.Fatalf("placement = %+v, want p0 on bd-1 and p1 on bd-0, both at 0.1", out)
	}
}

// TestPreferredHostsStolenAfterDelay: two partitions prefer the one slot
// of bd-0. Delay scheduling holds the second back for three 0.2 s beats,
// then bd-1 steals it rather than let it wait out the first.
func TestPreferredHostsStolenAfterDelay(t *testing.T) {
	k := sim.NewKernel()
	sc := NewContext(testCluster(k, 2, 1))
	out := collect(t, k, sc.FromInput(&placedInput{hosts: [][]string{{"bd-0"}, {"bd-0"}}, cost: 2}))
	if len(out) != 2 || out[0].V != "bd-0@0.1" || out[1].V != "bd-1@0.7" {
		t.Fatalf("placement = %+v, want p0 on bd-0 at 0.1 and p1 stolen by bd-1 at 0.7 (3 beats + startup)", out)
	}
}

func TestEmptyLineageFails(t *testing.T) {
	k := sim.NewKernel()
	rdd := &RDD{sc: NewContext(testCluster(k, 1, 1))}
	var err error
	k.Go("driver", func(p *sim.Proc) {
		_, err = rdd.Collect(p)
	})
	k.Run()
	if err == nil {
		t.Fatal("sourceless RDD should fail")
	}
}

func TestTasksRespectSlots(t *testing.T) {
	// 8 partitions, each charging 1 s: 1 node x 2 slots => >= 4 s; 4
	// nodes x 2 slots => ~1 s.
	elapsed := func(nodes int) float64 {
		k := sim.NewKernel()
		sc := NewContext(testCluster(k, nodes, 2))
		var recs []Record
		for i := 0; i < 8; i++ {
			recs = append(recs, Record{K: fmt.Sprintf("%d", i), V: i})
		}
		rdd := parallelize(sc, recs, 8).Map(func(tc *mapreduce.TaskContext, r Record) (Record, error) {
			tc.Charge("Compute", 1.0)
			return r, nil
		})
		var end float64
		k.Go("driver", func(p *sim.Proc) {
			rdd.Collect(p)
			end = p.Now()
		})
		k.Run()
		return end
	}
	one, four := elapsed(1), elapsed(4)
	if one < 3.9 {
		t.Fatalf("1 node took %v, want >= 4", one)
	}
	if four > one/2 {
		t.Fatalf("4 nodes (%v) should be well under 1 node (%v)", four, one)
	}
}

// TestSciDPInputEndToEnd: the paper's extension path — SciDP dummy
// blocks consumed by the Spark-like engine, computing per-timestamp sums
// through RDD transformations.
func TestSciDPInputEndToEnd(t *testing.T) {
	env := solutions.NewEnv(solutions.DefaultEnvConfig(1000, 10))
	spec := workloads.NUWRFSpec{Timestamps: 3, Levels: 4, Lat: 8, Lon: 8, Vars: 3, Dir: "/nuwrf"}
	ds, err := workloads.Generate(env.PFS, spec)
	if err != nil {
		t.Fatal(err)
	}
	_ = ds
	sc := NewContext(env.BD)
	var out []Record
	env.K.Go("driver", func(p *sim.Proc) {
		mapper := core.NewMapper(env.HDFS, env.Registry, "/scidp")
		mapping, err := mapper.MapPath(p, env.Mount(env.BD.Node(0)), "/nuwrf", core.MapOptions{
			Vars: []string{"QR"}, RowsPerBlock: spec.Levels,
		})
		if err != nil {
			t.Error(err)
			return
		}
		in := &core.InputFormat{
			HDFS: env.HDFS, Dir: mapping.Root,
			Registry: env.Registry, MountFor: env.Mount,
			Cost: core.CostModel{DecompressPerRawMB: 0.01},
		}
		rdd := sc.FromInput(in).
			Map(func(tc *mapreduce.TaskContext, r Record) (Record, error) {
				slab := r.V.(*core.Slab)
				vals, err := slab.Float32s()
				if err != nil {
					return Record{}, err
				}
				var sum float64
				for _, v := range vals {
					sum += float64(v)
				}
				return Record{K: slab.PFSPath, V: sum}, nil
			}).
			ReduceByKey(func(tc *mapreduce.TaskContext, key string, values []any) (any, error) {
				var sum float64
				for _, v := range values {
					sum += v.(float64)
				}
				return sum, nil
			}, 2)
		out, err = rdd.Collect(p)
		if err != nil {
			t.Error(err)
		}
	})
	env.K.Run()
	if len(out) != 3 {
		t.Fatalf("out = %d records, want 3 (one per timestamp)", len(out))
	}
	for _, r := range out {
		if r.V.(float64) <= 0 {
			t.Errorf("%s sum = %v, want positive rainfall", r.K, r.V)
		}
	}
	if env.HDFS.TotalUsed() != 0 {
		t.Fatal("spark path must also move no data into HDFS")
	}
}

func TestSciDPInputEmptyDirFails(t *testing.T) {
	env := solutions.NewEnv(solutions.DefaultEnvConfig(1000, 10))
	sc := NewContext(env.BD)
	var err error
	env.K.Go("driver", func(p *sim.Proc) {
		env.HDFS.Mkdir(p, "/empty")
		in := &core.InputFormat{HDFS: env.HDFS, Dir: "/empty", Registry: env.Registry, MountFor: env.Mount}
		_, err = sc.FromInput(in).Collect(p)
	})
	env.K.Run()
	if err == nil {
		t.Fatal("empty mapping should fail")
	}
}

// TestOneInputServesHadoopAndSpark: the paper's claim that SciDP "can be
// applied to any ABDS framework" — one core.InputFormat over one mapping
// drives an rmr job and an RDD, and both give the same per-timestamp sums.
func TestOneInputServesHadoopAndSpark(t *testing.T) {
	env := solutions.NewEnv(solutions.DefaultEnvConfig(1000, 10))
	spec := workloads.NUWRFSpec{Timestamps: 3, Levels: 4, Lat: 8, Lon: 8, Vars: 3, Dir: "/nuwrf"}
	if _, err := workloads.Generate(env.PFS, spec); err != nil {
		t.Fatal(err)
	}
	slabSum := func(value any) (string, float64, error) {
		slab := value.(*core.Slab)
		vals, err := slab.Float32s()
		var sum float64
		for _, v := range vals {
			sum += float64(v)
		}
		return slab.PFSPath, sum, err
	}
	fold := func(values []any) float64 {
		var sum float64
		for _, v := range values {
			sum += v.(float64)
		}
		return sum
	}
	var hadoop *mapreduce.Result
	var spark []Record
	var err error
	env.K.Go("driver", func(p *sim.Proc) {
		mapper := core.NewMapper(env.HDFS, env.Registry, "/scidp")
		mapping, merr := mapper.MapPath(p, env.Mount(env.BD.Node(0)), "/nuwrf", core.MapOptions{
			Vars: []string{"QR"}, RowsPerBlock: 1,
		})
		if merr != nil {
			err = merr
			return
		}
		in := &core.InputFormat{
			HDFS: env.HDFS, Dir: mapping.Root,
			Registry: env.Registry, MountFor: env.Mount,
			Cost: core.CostModel{DecompressPerRawMB: 0.01},
		}
		hadoop, err = rmr.MapReduce(p, rmr.Spec{Name: "sums", Cluster: env.BD, Input: in,
			Map: func(c *rmr.Ctx, key string, value any) error {
				k, sum, err := slabSum(value)
				c.TC.Emit(k, sum)
				return err
			},
			Reduce: func(c *rmr.Ctx, key string, values []any) error {
				c.TC.Emit(key, fold(values))
				return nil
			}})
		if err != nil {
			return
		}
		spark, err = NewContext(env.BD).FromInput(in).
			Map(func(tc *mapreduce.TaskContext, r Record) (Record, error) {
				k, sum, err := slabSum(r.V)
				return Record{K: k, V: sum}, err
			}).
			ReduceByKey(func(tc *mapreduce.TaskContext, key string, values []any) (any, error) {
				return fold(values), nil
			}, 2).
			Collect(p)
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(spark) != spec.Timestamps || !slices.Equal(spark, hadoop.Output) {
		t.Fatalf("rdd sums %v, rmr sums %v: want the same %d per-timestamp sums", spark, hadoop.Output, spec.Timestamps)
	}
}

// TestShuffleAfterShuffleFails: a lineage compiles into one job, so a
// second ReduceByKey is an error at Collect, not a silent second stage.
func TestShuffleAfterShuffleFails(t *testing.T) {
	k := sim.NewKernel()
	sc := NewContext(testCluster(k, 2, 1))
	count := func(tc *mapreduce.TaskContext, key string, values []any) (any, error) { return len(values), nil }
	rdd := parallelize(sc, []Record{{K: "a", V: 1}, {K: "b", V: 2}}, 2).ReduceByKey(count, 1).ReduceByKey(count, 1)
	var err error
	k.Go("driver", func(p *sim.Proc) { _, err = rdd.Collect(p) })
	k.Run()
	if err == nil || !strings.Contains(err.Error(), "one shuffle") {
		t.Fatalf("err = %v, want the one-shuffle error", err)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() string {
		k := sim.NewKernel()
		sc := NewContext(testCluster(k, 3, 2))
		var recs []Record
		for i := 0; i < 12; i++ {
			recs = append(recs, Record{K: fmt.Sprintf("k%d", i%4), V: i})
		}
		rdd := parallelize(sc, recs, 6).
			ReduceByKey(func(tc *mapreduce.TaskContext, key string, values []any) (any, error) {
				s := 0
				for _, v := range values {
					s += v.(int)
				}
				return s, nil
			}, 3)
		out := collect(t, k, rdd)
		var sb strings.Builder
		for _, r := range out {
			fmt.Fprintf(&sb, "%s=%v;", r.K, r.V)
		}
		fmt.Fprintf(&sb, "@%.4f", k.Now())
		return sb.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %s vs %s", a, b)
	}
}

// TestFilterErrorFailsTheStage: an error from a predicate evaluated in a
// map fails the lineage whichever record came with it — the zero record
// or the input passed through.
func TestFilterErrorFailsTheStage(t *testing.T) {
	for _, keep := range []bool{false, true} {
		k := sim.NewKernel()
		sc := NewContext(testCluster(k, 1, 1))
		rdd := parallelize(sc, []Record{{V: 1}}, 1).
			Map(func(tc *mapreduce.TaskContext, r Record) (Record, error) {
				if !keep {
					r = Record{}
				}
				return r, fmt.Errorf("bad predicate")
			})
		var err error
		k.Go("driver", func(p *sim.Proc) { _, err = rdd.Collect(p) })
		k.Run()
		if err == nil || !strings.Contains(err.Error(), "bad predicate") {
			t.Fatalf("keep %v: err = %v", keep, err)
		}
	}
}
