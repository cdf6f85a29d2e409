package solutions

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"scidp/internal/mapreduce"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// gridInput is a one-split InputFormat handing Map a prebuilt grid.
type gridInput struct{ g *grid }

func (in gridInput) Splits(*sim.Proc) ([]*mapreduce.Split, error) {
	return []*mapreduce.Split{{Label: "grid"}}, nil
}

func (in gridInput) ForEach(_ *mapreduce.TaskContext, _ *mapreduce.Split, fn func(key string, value any) error) error {
	return fn("grid", in.g)
}

// killFirst is a SlotLease that revokes the first attempt's slot at its
// at-th revocation poll and leaves every later attempt alone.
type killFirst struct {
	next      uint64
	polls, at int
	killed    bool
}

func (l *killFirst) Available() bool { return true }
func (l *killFirst) Acquire() uint64 { l.next++; return l.next }
func (l *killFirst) Release(uint64)  {}
func (l *killFirst) Killed(token uint64) bool {
	if token != 1 {
		return false
	}
	l.polls++
	l.killed = l.polls >= l.at
	return l.killed
}

// TestPlotForkSurvivesPreemptedAttempt unwinds a map attempt between the
// plot fork and its join: the lease kills attempt 1 partway through its
// first Plot charge, after every level was forked onto a 4-worker pool
// and before the Await. The abandoned closures touch only that attempt's
// output slots and their own scratch, so the retry's images equal an
// undisturbed inline-pool run's byte for byte; `make race` runs this
// under the race detector.
func TestPlotForkSurvivesPreemptedAttempt(t *testing.T) {
	g := &grid{t: 3, levels: 6, ny: 16, nx: 16}
	g.vals = make([]float32, g.levels*g.ny*g.nx)
	for i := range g.vals {
		g.vals[i] = float32(math.Sin(float64(i) / 11))
	}
	plot := func(workers int, lease mapreduce.SlotLease) (images [][]byte, attempts int) {
		cfg := DefaultEnvConfig(1000, 1)
		cfg.Nodes, cfg.SlotsPerNode, cfg.PlotRes, cfg.Workers = 2, 1, 16, workers
		env := NewEnv(cfg)
		defer env.Close()
		var res *mapreduce.Result
		var err error
		env.K.Go("driver", func(p *sim.Proc) {
			job := &mapreduce.Job{
				Name: "plot", Cluster: env.BD, Input: gridInput{g}, Lease: lease,
				Map: func(tc *mapreduce.TaskContext, _ string, value any) error {
					attempts++
					out, err := processGrid(env, &Workload{Var: "QR"}, tc, value.(*grid), false)
					if err != nil {
						return err
					}
					for _, img := range out.imgs {
						tc.Emit(fmt.Sprintf("l%03d", img.level), img.png)
					}
					return nil
				},
			}
			res, err = job.Run(p)
		})
		env.K.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range res.Output {
			images = append(images, kv.V.([]byte))
		}
		return images, attempts
	}

	want, _ := plot(-1, nil)
	// Poll 1 follows container launch; the rest follow 0.25 s quanta of
	// the Plot charges, the first thing processGrid does after the fork.
	lease := &killFirst{at: 3}
	got, attempts := plot(4, lease)
	if !lease.killed || attempts != 2 {
		t.Fatalf("attempt 1 was not preempted mid-plot: killed=%v, map ran %d times", lease.killed, attempts)
	}
	if len(got) != g.levels || len(want) != g.levels {
		t.Fatalf("images: got %d, want %d, levels %d", len(got), len(want), g.levels)
	}
	for l := range want {
		if !bytes.Equal(got[l], want[l]) {
			t.Errorf("level %d: image after a preempted attempt differs from the clean run's", l)
		}
	}
}

// TestAnimationForkSurvivesFailedPNGWrite makes a reducer's PNG write
// fail after its GIF was forked onto a 4-worker pool: one PNG path
// already exists on HDFS. The job returns the write's "file exists" error,
// not anything from the animation, the abandoned closure writes only its
// own slots, and no GIF is stored for that timestamp; `make race` runs
// this under the race detector.
func TestAnimationForkSurvivesFailedPNGWrite(t *testing.T) {
	spec := workloads.NUWRFSpec{Timestamps: 2, Levels: 4, Lat: 16, Lon: 16, Vars: 2, Dir: "/nuwrf"}
	blobs, ds, err := workloads.GenerateBlobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEnvConfig(1000, 50.0/4)
	cfg.Nodes, cfg.SlotsPerNode, cfg.PlotRes, cfg.Workers = 4, 2, 16, 4
	env := NewEnv(cfg)
	defer env.Close()
	workloads.Install(env.PFS, blobs)
	const taken = "/results/scidp/img/t0001_l002.png"
	if _, err := env.HDFS.Put(taken, []byte("not a plot")); err != nil {
		t.Fatal(err)
	}
	var runErr error
	env.K.Go("driver", func(p *sim.Proc) {
		_, runErr = RunSciDP(p, env, &Workload{Dataset: ds, Var: "QR", Analysis: AnalysisTop1Pct})
	})
	env.K.Run()
	if want := "create " + taken + ": file exists"; runErr == nil || !strings.Contains(runErr.Error(), want) {
		t.Fatalf("job error = %v, want the PNG write's %q", runErr, want)
	}
	env.K.Go("check", func(p *sim.Proc) {
		files, err := env.HDFS.Walk(p, "/results/scidp/anim")
		if err != nil {
			t.Error(err)
			return
		}
		for _, f := range files {
			if strings.HasSuffix(f.Path, "t0001.gif") {
				t.Errorf("%s stored although a PNG write of its timestamp failed", f.Path)
			}
		}
	})
	env.K.Run()
}
