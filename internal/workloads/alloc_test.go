//go:build !race

package workloads

import (
	"runtime"
	"testing"

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
