//go:build !race

package hdfs

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"scidp/internal/sim"
)

// The race detector's shadow allocations make byte counts meaningless.

// TestWriteFileDoesNotCopyPayload: writing 1 MiB allocates the blocks'
// bookkeeping, never the payload.
func TestWriteFileDoesNotCopyPayload(t *testing.T) {
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	fs := New(k, cl, Config{BlockSize: 128 << 10, Replication: 1, NNOpsPerSec: 1e9})
	data := make([]byte, 1<<20)
	var before, after runtime.MemStats
	run(k, func(p *sim.Proc) {
		runtime.ReadMemStats(&before)
		if err := fs.WriteFile(p, cl.Node(0), "/f", data); err != nil {
			t.Error(err)
		}
		runtime.ReadMemStats(&after)
	})
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<10 {
		t.Fatalf("WriteFile of 1 MiB allocated %d B, want < 8 KB", got)
	}
}

// TestWriteFileAllocs: a one-block file written into a directory that
// exists costs at most writeAllocs allocations: its INode, its block list,
// its Block, the Block's replica list and the pipeline's resource chains.
// A clean path and its parent are used as they are, and the pipeline's
// parts stay on the stack.
func TestWriteFileAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	k := sim.NewKernel()
	cl := testCluster(k, 4)
	fs := New(k, cl, Config{BlockSize: 1 << 10, Replication: 3, NNOpsPerSec: 1e9})
	data := make([]byte, 512)
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/out/part-%05d", i)
	}
	var got float64
	run(k, func(p *sim.Proc) {
		if err := fs.Mkdir(p, "/out"); err != nil {
			t.Fatal(err)
		}
		next := 0
		write := func() {
			if err := fs.WriteFile(p, cl.Node(0), paths[next], data); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for range len(paths) / 2 {
			write() // warm: the kernel's queues, the namespace map's room
		}
		got = testing.AllocsPerRun(len(paths)/2-1, write)
	})
	// Measured 5; before the clean-path and stack-parts changes, 8.
	const writeAllocs = 6
	if got > writeAllocs {
		t.Fatalf("WriteFile of a one-block file into an existing directory allocated %.0f times, want <= %d", got, writeAllocs)
	}
}
