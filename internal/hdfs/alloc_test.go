//go:build !race

package hdfs

import (
	"runtime"
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
