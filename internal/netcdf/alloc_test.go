//go:build !race

package netcdf

import "testing"

// TestOpenAllocation guards the per-variable slabs: Open makes one chunk
// index, one ChunkStats slab and one grid per variable and derives no
// per-chunk geometry, 323 allocations for this file. A ChunkStats object per chunk once made it
// 945, and a per-chunk grid coordinate 392.
func TestOpenAllocation(t *testing.T) {
	blob := nuwrfShaped(t)
	got := testing.AllocsPerRun(10, func() {
		if _, err := Open(BytesReader(blob)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 330 {
		t.Fatalf("Open of a 23-variable file makes %v allocations, want <= 330", got)
	}
}
