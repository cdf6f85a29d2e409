package workloads

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"scidp/internal/hdfs"
	"scidp/internal/mapreduce"
	"scidp/internal/sim"
)

// pooledRig is newMiniRig with a data plane: workers -1 is the inline
// pool, like solutions.EnvConfig.Workers.
func pooledRig(t *testing.T, workers int) *miniRig {
	t.Helper()
	r := newMiniRig(t)
	pool := sim.NewComputePool(max(workers, 0))
	t.Cleanup(pool.Close)
	r.k.SetComputePool(pool)
	return r
}

// hashBlocks digests every real HDFS block under dir: path, index, bytes.
func hashBlocks(t *testing.T, k *sim.Kernel, fs *hdfs.FS, dir string) string {
	t.Helper()
	h := sha256.New()
	k.Go("audit", func(p *sim.Proc) {
		files, err := fs.Walk(p, dir)
		if err != nil {
			t.Error(err)
			return
		}
		for _, f := range files {
			for i, b := range f.Blocks {
				fmt.Fprintf(h, "%s#%d %d\n", f.Path, i, b.Size)
				h.Write(b.Data())
			}
		}
	})
	k.Run()
	return fmt.Sprintf("%x", h.Sum(nil))
}

// randomRecords installs files of random bytes, so sort keys are
// distinct and every reducer gets work.
func randomRecords(be Backend, cfg MiniConfig) []string {
	rng := rand.New(rand.NewSource(5))
	var paths []string
	for i := 0; i < cfg.Files; i++ {
		buf := make([]byte, cfg.FileBytes)
		rng.Read(buf)
		paths = append(paths, fmt.Sprintf("/mini/in/part-%04d", i))
		be.Put(paths[i], buf)
	}
	return paths
}

// TestJobsNeverWriteToStoredBlocks is the write-once contract from the
// readers' side: sort and grep tasks share their input blocks with the
// file system (and with each other), so the blocks must read the same
// after the jobs as before, at any data-plane width. The same run yields
// terasort's determinism check: one output digest at every width.
func TestJobsNeverWriteToStoredBlocks(t *testing.T) {
	cfg := MiniConfig{Files: 4, FileBytes: 20000, SplitSize: 8192, TaskStartup: 0.1, ScanPerMB: 1}
	outputs := map[string]bool{}
	for _, workers := range []int{-1, 1, 4} {
		r := pooledRig(t, workers)
		in := randomRecords(r.h, cfg)
		before := hashBlocks(t, r.k, r.h.FS, "/mini/in")
		var sorted, grep MiniResult
		r.k.Go("driver", func(p *sim.Proc) {
			var err error
			if sorted, err = RunTeraSort(p, r.cl, r.h, cfg, in, 3); err != nil {
				t.Error(err)
			}
			if grep, err = RunGrep(p, r.cl, r.h, cfg, in, "a"); err != nil {
				t.Error(err)
			}
		})
		r.k.Run()
		if after := hashBlocks(t, r.k, r.h.FS, "/mini/in"); after != before {
			t.Errorf("workers=%d: input blocks changed under terasort + grep", workers)
		}
		outputs[fmt.Sprintf("%v %v %s", sorted, grep, hashBlocks(t, r.k, r.h.FS, "/mini/sorted-hdfs"))] = true
	}
	if len(outputs) != 1 {
		t.Errorf("terasort/grep results differ across worker counts: %v", outputs)
	}
	if !bytes.Equal(Zeros(64), make([]byte, 64)) {
		t.Error("the shared zero payload is no longer zero")
	}
}

// TestTeraSortOutputIsEveryWholeRecord is the clean-run identity on both
// backends: reducers see files x floor(bytes/100) x 100 bytes, counted
// from the committed reduce output.
func TestTeraSortOutputIsEveryWholeRecord(t *testing.T) {
	cfg := MiniConfig{Files: 3, FileBytes: 8150, SplitSize: 8192, TaskStartup: 0.1}
	r := newMiniRig(t)
	for _, be := range []Backend{r.h, r.l} {
		in := randomRecords(be, cfg)
		r.k.Go("driver", func(p *sim.Proc) {
			res, err := RunTeraSort(p, r.cl, be, cfg, in, 2)
			if err != nil {
				t.Error(err)
				return
			}
			if want := int64(cfg.Files) * (cfg.FileBytes / 100) * 100; res.Output != want {
				t.Errorf("%s: sorted bytes = %d, want %d", be.Name(), res.Output, want)
			}
		})
		r.k.Run()
	}
}

// emitted runs a map-only job over one block with the given map body and
// returns its pairs, values flattened to bytes.
func emitted(t *testing.T, block []byte, body func(tc *mapreduce.TaskContext, data []byte)) []string {
	t.Helper()
	r := newMiniRig(t)
	job := &mapreduce.Job{
		Name: "emit", Cluster: r.cl,
		Input: mapreduce.StaticInput{{Label: "s", Payload: block, Length: int64(len(block))}},
		Map: func(tc *mapreduce.TaskContext, key string, value any) error {
			body(tc, value.([]byte))
			return nil
		},
	}
	var res *mapreduce.Result
	r.k.Go("driver", func(p *sim.Proc) {
		var err error
		if res, err = job.Run(p); err != nil {
			t.Error(err)
		}
	})
	r.k.Run()
	var out []string
	for _, kv := range res.Output {
		switch v := kv.V.(type) {
		case *[]byte:
			out = append(out, fmt.Sprintf("%q=%x", kv.K, *v))
		case []byte:
			out = append(out, fmt.Sprintf("%q=%x", kv.K, v))
		default:
			out = append(out, fmt.Sprintf("%q=%v", kv.K, v))
		}
	}
	return out
}

// TestEmitRecordsMatchesPerRecordEmit: the slab helper emits exactly the
// pairs the per-record closures it replaced did — a partial trailing
// record dropped, an empty block emitting nothing.
func TestEmitRecordsMatchesPerRecordEmit(t *testing.T) {
	const rec = 100
	rng := rand.New(rand.NewSource(9))
	for _, size := range []int{0, 99, 100, 1234} {
		block := make([]byte, size)
		rng.Read(block)
		for _, value := range []any{nil, rec} {
			got := emitted(t, block, func(tc *mapreduce.TaskContext, data []byte) {
				EmitRecords(tc, data, rec, 10, value)
			})
			want := emitted(t, block, func(tc *mapreduce.TaskContext, data []byte) {
				for off := 0; off+rec <= len(data); off += rec {
					if value == nil {
						tc.Emit(string(data[off:off+10]), data[off:off+rec])
					} else {
						tc.Emit(string(data[off:off+10]), value)
					}
				}
			})
			if len(got) != size/rec || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("block of %d bytes, value %v: EmitRecords = %d pairs %v, per-record emit = %v", size, value, len(got), got, want)
			}
		}
	}
}
