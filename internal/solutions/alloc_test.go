//go:build !race

package solutions

import (
	"runtime"
	"testing"

	"scidp/internal/rsql"
)

// The race detector's shadow allocations make byte counts meaningless
// under -race.

// allocatedBytes returns what fn allocates a call, averaged over n calls,
// by the runtime's own count.
func allocatedBytes(n int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestGridQueryBytes: the top-1 % query over a 10 × 40 × 40 grid read in
// place allocates its ORDER BY key vector (16 000 float64s) and its
// 160-row answer, not the five 16 000-row columns of the grid's frame.
func TestGridQueryBytes(t *testing.T) {
	g := anlysGrid(40)
	sql := top1PctSQL(g.NumRows())
	inPlace := allocatedBytes(20, func() {
		if _, err := rsql.QueryChunk(g, gridCols, sql); err != nil {
			t.Fatal(err)
		}
	})
	framed := allocatedBytes(20, func() {
		if _, err := rsql.Query(gridFrameOf(t, g), sql); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("top-1%% query: %d B in place, %d B over the frame", inPlace, framed)
	if inPlace > 160<<10 || framed < 640<<10 {
		t.Fatalf("top-1%% query allocates %d B in place (want <= 160 KB) and %d B over the frame (want >= 640 KB)", inPlace, framed)
	}
}
