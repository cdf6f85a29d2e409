package ioengine

import (
	"bytes"
	"math"
	"testing"
)

// TestChunkStatsRecord pins the record both formats write: four
// little-endian 8-byte fields, Min, Max, Count, Fill — the bytes netcdf's
// and hdf5lite's own encoders produced before they shared this one.
func TestChunkStatsRecord(t *testing.T) {
	st := SummarizeChunk(5, func(i int) float64 { return []float64{2, math.NaN(), -1.5, 7, math.NaN()}[i] })
	if want := (ChunkStats{Min: -1.5, Max: 7, Count: 5, Fill: 2}); st != want || st.AllFill() {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	rec := st.Append([]byte{0xAA})
	want := []byte{0xAA,
		0, 0, 0, 0, 0, 0, 0xF8, 0xBF, // -1.5
		0, 0, 0, 0, 0, 0, 0x1C, 0x40, // 7
		5, 0, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(rec, want) || len(rec)-1 != ChunkStatsSize {
		t.Fatalf("record % x, want % x", rec, want)
	}
	if got := DecodeChunkStats(rec[1:]); got != st {
		t.Fatalf("decoded %+v, want %+v", got, st)
	}
	// Nothing but fill: the empty interval every range predicate excludes.
	fill := SummarizeChunk(3, func(int) float64 { return math.NaN() })
	if !fill.AllFill() || !math.IsInf(fill.Min, 1) || !math.IsInf(fill.Max, -1) {
		t.Fatalf("all-fill stats %+v", fill)
	}
}
