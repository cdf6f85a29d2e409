//go:build !race

package rsql

import (
	"testing"

	"scidp/internal/rframe"
)

// The race detector instruments allocation, so these counts exist only
// without it.

func queryAllocs(t *testing.T, tables map[string]*rframe.Frame, sql string) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		if _, err := Query(tables, sql); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTopKQueryAllocation guards the workload's query against a return to
// per-row work: the row-at-a-time executor made one allocation per row
// (16 191 over 16 000 rows). Sorting keys, not rows, and stopping at k
// makes the count a property of the query, not of the frame.
func TestTopKQueryAllocation(t *testing.T) {
	const sql = "SELECT t, level, lat, lon, value FROM df ORDER BY value DESC LIMIT 160"
	small, large := queryAllocs(t, benchGrid(t, 20), sql), queryAllocs(t, benchGrid(t, 40), sql)
	if large > 64 || small != large {
		t.Fatalf("top-1%% query makes %v allocations over 4 000 rows and %v over 16 000, want the same and <= 64", small, large)
	}
}

// TestProjectionAllocation: a bare projection allocates per column.
func TestProjectionAllocation(t *testing.T) {
	const sql = "SELECT value, lat FROM df"
	small, large := queryAllocs(t, benchGrid(t, 20), sql), queryAllocs(t, benchGrid(t, 40), sql)
	if large > 32 || small != large {
		t.Fatalf("projection makes %v allocations over 4 000 rows and %v over 16 000, want the same and <= 32", small, large)
	}
}
