//go:build !race

package workloads

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"scidp/internal/cluster"
	"scidp/internal/hdfs"
	"scidp/internal/sim"
)

// The race detector's shadow allocations and its lossy sync.Pool make
// byte and malloc counts meaningless under -race.

// allocatedBytes returns what fn allocates, by the runtime's own count.
func allocatedBytes(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestUntieredBlockReadDoesNotCloneBlock guards hdfsBlockInput.ForEach
// against building a tier admission (a whole-block clone) when there is
// no tier: Go evaluates Admit's arguments before its nil-receiver no-op.
func TestUntieredBlockReadDoesNotCloneBlock(t *testing.T) {
	r := newMiniRig(t)
	const blocks, blockSize = 64, 8192
	cfg := MiniConfig{Files: 1, FileBytes: blocks * blockSize, TaskStartup: 0.1}
	in := InstallTextInputs(r.h, cfg, "needle")
	r.k.Go("driver", func(p *sim.Proc) {
		if _, err := RunGrep(p, r.cl, r.h, cfg, in, "needle"); err != nil {
			t.Error(err)
		}
	})
	if got := allocatedBytes(r.k.Run); got > cfg.FileBytes/2 {
		t.Fatalf("grep over %d B of untiered HDFS blocks allocated %d B: a block is being copied per read", cfg.FileBytes, got)
	}
}

// TestTeraSortMallocsPerRecord is the end-to-end budget on the sort path:
// a whole RunTeraSort over 10 000 records — rig, install, map, shuffle,
// reduce, part files — stays under 0.1 mallocs per record. Two heap
// objects per record (a key string and a boxed slice header) put it at
// 2.09 before records were emitted from per-split slabs; it is 0.08 now.
func TestTeraSortMallocsPerRecord(t *testing.T) {
	const files, fileBytes, records = 4, 250000, 10000
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]byte, files)
	for i := range inputs {
		inputs[i] = make([]byte, fileBytes)
		rng.Read(inputs[i])
	}
	cfg := MiniConfig{Files: files, FileBytes: fileBytes, SplitSize: fileBytes, TaskStartup: 0.1}
	mallocs := testing.AllocsPerRun(3, func() {
		k := sim.NewKernel()
		cl := cluster.New(k, "bd", cluster.Config{Nodes: 4, SlotsPerNode: 2, DiskBW: 1e6, NICBW: 5e5, FabricBW: 2e6})
		be := &HDFSBackend{FS: hdfs.New(k, cl, hdfs.Config{BlockSize: fileBytes, Replication: 1, NNOpsPerSec: 1e9})}
		paths := make([]string, files)
		for i := range paths {
			paths[i] = fmt.Sprintf("/mini/in/part-%04d", i)
			be.Put(paths[i], inputs[i])
		}
		k.Go("driver", func(p *sim.Proc) {
			if res, err := RunTeraSort(p, cl, be, cfg, paths, 2); err != nil || res.Output != records*100 {
				t.Errorf("terasort = %+v, %v", res, err)
			}
		})
		k.Run()
	})
	if perRecord := mallocs / records; perRecord > 0.1 {
		t.Fatalf("terasort: %.0f mallocs for %d records = %.2f per record, want <= 0.1", mallocs, records, perRecord)
	}
}
