package rmr

import (
	"fmt"
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/mapreduce"
	"scidp/internal/rframe"
	"scidp/internal/sim"
)

func testCluster(k *sim.Kernel) *cluster.Cluster {
	return cluster.New(k, "bd", cluster.Config{
		Nodes: 2, SlotsPerNode: 2,
		DiskBW: 1e6, NICBW: 1e6, FabricBW: 1e6,
	})
}

// frameInput yields one keyed frame per split.
type frameInput struct {
	frames map[string]*rframe.Frame
}

func (fi *frameInput) Splits(p *sim.Proc) ([]*mapreduce.Split, error) {
	var keys []string
	for k := range fi.frames {
		keys = append(keys, k)
	}
	// Deterministic order.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var out []*mapreduce.Split
	for _, k := range keys {
		out = append(out, &mapreduce.Split{Label: k, Payload: k})
	}
	return out, nil
}

func (fi *frameInput) ForEach(tc *mapreduce.TaskContext, s *mapreduce.Split, fn func(key string, value any) error) error {
	key := s.Payload.(string)
	return fn(key, fi.frames[key])
}

func TestMapReduceOverFrames(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k)
	in := &frameInput{frames: map[string]*rframe.Frame{
		"t0": rframe.New().MustAddFloat("v", []float64{1, 2, 3}),
		"t1": rframe.New().MustAddFloat("v", []float64{10, 20}),
	}}
	var res *mapreduce.Result
	var err error
	k.Go("driver", func(p *sim.Proc) {
		res, err = MapReduce(p, Spec{
			Name: "mean", Cluster: cl, Input: in, TaskStartup: 0.1,
			Map: func(c *Ctx, key string, value any) error {
				df := value.(*rframe.Frame)
				st, e := df.Summary("v")
				if e != nil {
					return e
				}
				c.Keyval("sum", rframe.New().MustAddFloat("s", []float64{st.Mean * float64(st.N)}).MustAddFloat("n", []float64{float64(st.N)}))
				return nil
			},
			Reduce: func(c *Ctx, key string, values []any) error {
				var sum, n float64
				for _, v := range values {
					df := v.(*rframe.Frame)
					sum += df.Col("s").F[0]
					n += df.Col("n").F[0]
				}
				c.Keyval("mean", rframe.New().MustAddFloat("mean", []float64{sum / n}))
				return nil
			},
		})
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 {
		t.Fatalf("output = %+v", res.Output)
	}
	mean := res.Output[0].V.(*rframe.Frame).Col("mean").F[0]
	if mean != 36.0/5 {
		t.Fatalf("mean = %v, want 7.2", mean)
	}
}

func TestMapReduceRequiresMap(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k)
	var err error
	k.Go("driver", func(p *sim.Proc) {
		_, err = MapReduce(p, Spec{Name: "bad", Cluster: cl, Input: &frameInput{}})
	})
	k.Run()
	if err == nil {
		t.Fatal("missing Map should fail")
	}
}

func TestPairBytes(t *testing.T) {
	df := rframe.New().MustAddFloat("a", []float64{1, 2}).MustAddString("s", []string{"xy", "z"})
	got := PairBytes(mapreduce.KV{K: "k", V: df})
	want := int64(2*12 + 3 + 2 + 1) // 2 numeric cells + "xy"+1 + "z"+1 + key
	if got != want {
		t.Fatalf("frame PairBytes = %d, want %d", got, want)
	}
	if PairBytes(mapreduce.KV{K: "ab", V: []byte{1, 2, 3}}) != 5 {
		t.Fatal("bytes PairBytes wrong")
	}
	if PairBytes(mapreduce.KV{K: "ab", V: "xyz"}) != 5 {
		t.Fatal("string PairBytes wrong")
	}
	if PairBytes(mapreduce.KV{K: "ab", V: 7}) != 18 {
		t.Fatal("default PairBytes wrong")
	}
}

func TestShuffleUsesFrameSizes(t *testing.T) {
	// Big frames must account for proportionally bigger shuffles.
	shuffle := func(rows int) int64 {
		k := sim.NewKernel()
		// One slot a node puts the two maps on different nodes, so one of
		// them is remote from the reducer.
		cl := cluster.New(k, "bd", cluster.Config{Nodes: 2, SlotsPerNode: 1, DiskBW: 1e6, NICBW: 1e6, FabricBW: 1e6})
		vals := make([]float64, rows)
		in := &frameInput{frames: map[string]*rframe.Frame{
			"a": rframe.New().MustAddFloat("v", vals),
			"b": rframe.New().MustAddFloat("v", vals),
		}}
		var res *mapreduce.Result
		k.Go("driver", func(p *sim.Proc) {
			res, _ = MapReduce(p, Spec{
				Name: "s", Cluster: cl, Input: in, TaskStartup: 0.1,
				Map: func(c *Ctx, key string, value any) error {
					c.Keyval("all", value.(*rframe.Frame))
					return nil
				},
				Reduce: func(c *Ctx, key string, values []any) error { return nil },
			})
		})
		k.Run()
		if res == nil {
			t.Fatal("job failed")
		}
		return res.ShuffleBytes
	}
	small, big := shuffle(10), shuffle(1000)
	if big <= small {
		t.Fatalf("shuffle bytes %d (big) should exceed %d (small)", big, small)
	}
}

func TestMapErrorSurfacesWithJobName(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k)
	in := &frameInput{frames: map[string]*rframe.Frame{"a": rframe.New()}}
	var err error
	k.Go("driver", func(p *sim.Proc) {
		_, err = MapReduce(p, Spec{
			Name: "explode", Cluster: cl, Input: in, TaskStartup: 0.1,
			Map: func(c *Ctx, key string, value any) error {
				return fmt.Errorf("bad frame")
			},
		})
	})
	k.Run()
	if err == nil {
		t.Fatal("map error should surface")
	}
}
