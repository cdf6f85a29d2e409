//go:build !race

package netcdf

import "testing"

// TestOpenAllocation guards the per-variable slabs: an Index slice and a
// ChunkStats object per chunk made Open of this file 945 allocations.
func TestOpenAllocation(t *testing.T) {
	blob := nuwrfShaped(t)
	got := testing.AllocsPerRun(10, func() {
		if _, err := Open(BytesReader(blob)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 480 {
		t.Fatalf("Open of a 23-variable file makes %v allocations, want <= 480", got)
	}
}
