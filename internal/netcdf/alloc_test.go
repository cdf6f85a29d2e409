//go:build !race

package netcdf

import "testing"

// openAllocs is what one Open of blob allocates.
func openAllocs(t *testing.T, blob []byte) float64 {
	return testing.AllocsPerRun(10, func() {
		if _, err := Open(BytesReader(blob)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOpenAllocation guards the per-file slabs: Open makes one chunk index
// per variable and a few slabs per file — the variables, their names, their
// dimensions, attributes and extents, the zone maps. A slice per field and
// a string per name made it 323 allocations for this file, a ChunkStats
// object per chunk 945.
func TestOpenAllocation(t *testing.T) {
	if got := openAllocs(t, nuwrfShaped(t)); got > 50 {
		t.Fatalf("Open of a 23-variable file makes %v allocations, want <= 50", got)
	}
}

// TestOpenAllocationScales: a variable costs its chunk index and next to
// nothing else, so doubling the variable count adds at most two
// allocations per added variable.
func TestOpenAllocationScales(t *testing.T) {
	one, two := openAllocs(t, nuwrfVars(t, 23)), openAllocs(t, nuwrfVars(t, 46))
	if per := (two - one) / 23; per > 2 {
		t.Fatalf("Open of 23 variables makes %v allocations and of 46 %v: %.1f per added variable, want <= 2", one, two, per)
	}
}
