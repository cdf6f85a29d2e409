package hdf5lite

import (
	"math"
	"math/rand"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
)

// TestChunkStatsProperty checks each dataset chunk's recorded zone map
// against brute-force recomputation, including NaN handling and an
// all-NaN chunk, across both typed datasets in a nested group tree.
func TestChunkStatsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows, cols = 9, 5 // chunkRows=4 -> partial final chunk
	fvals := make([]float32, rows*cols)
	for i := range fvals {
		fvals[i] = float32(rng.NormFloat64() * 3)
		if rng.Intn(6) == 0 {
			fvals[i] = float32(math.NaN())
		}
	}
	// Rows 4..7 form the middle chunk; make it all fill.
	for i := 4 * cols; i < 8*cols; i++ {
		fvals[i] = float32(math.NaN())
	}
	ivals := make([]int32, rows*cols)
	for i := range ivals {
		ivals[i] = int32(rng.Intn(2000) - 1000)
	}

	w := NewWriter()
	g := w.Root().EnsureGroup("model/physics")
	if _, err := g.AddFloat32("QR", []int{rows, cols}, 4, 2, fvals); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddInt32("steps", []int{rows, cols}, 4, 0, ivals); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(netcdf.BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}

	check := func(path string, at func(i int) float64) {
		d, err := f.Find(path)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Grid()
		for ci, c := range d.Chunks {
			start, extent := g.Box(ci)
			if c.Stats == nil {
				t.Fatalf("%s chunk %d: no stats", path, ci)
			}
			want := ioengine.ChunkStats{Min: math.Inf(1), Max: math.Inf(-1)}
			for i := start[0] * cols; i < (start[0]+extent[0])*cols; i++ {
				want.Count++
				v := at(i)
				if math.IsNaN(v) {
					want.Fill++
				} else {
					want.Min = math.Min(want.Min, v)
					want.Max = math.Max(want.Max, v)
				}
			}
			if *c.Stats != want {
				t.Fatalf("%s chunk %d: stats %+v, brute force %+v", path, ci, *c.Stats, want)
			}
		}
	}
	check("model/physics/QR", func(i int) float64 { return float64(fvals[i]) })
	check("model/physics/steps", func(i int) float64 { return float64(ivals[i]) })

	// The deliberately all-NaN chunk must carry the empty interval.
	d, _ := f.Find("model/physics/QR")
	mid := d.Chunks[1]
	if mid.Stats.Count != mid.Stats.Fill || !math.IsInf(mid.Stats.Min, 1) || !math.IsInf(mid.Stats.Max, -1) {
		t.Fatalf("all-fill chunk stats %+v", *mid.Stats)
	}
}

// TestLegacyFileWithoutStats checks the compatibility path: a writer with
// stats disabled yields the old layout, which still opens and reads, with
// nil Stats on every chunk.
func TestLegacyFileWithoutStats(t *testing.T) {
	build := func(noStats bool) []byte {
		w := NewWriter()
		if noStats {
			w.DisableChunkStats()
		}
		g := w.Root().EnsureGroup("m")
		if _, err := g.AddFloat32("v", []int{6, 2}, 2, 1, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err != nil {
			t.Fatal(err)
		}
		blob, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	legacy := build(true)
	tagged := build(false)
	if len(legacy) >= len(tagged) {
		t.Fatal("stats section should add bytes")
	}
	f, err := Open(netcdf.BytesReader(legacy))
	if err != nil {
		t.Fatalf("legacy open: %v", err)
	}
	d, err := f.Find("m/v")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Chunks {
		if c.Stats != nil {
			t.Fatal("legacy chunks should have nil Stats")
		}
	}
	raw, err := readAll(f, d)
	if err != nil {
		t.Fatal(err)
	}
	got := ioengine.Float32s(raw)
	if got[0] != 1 || got[11] != 12 {
		t.Fatalf("legacy data mismatch: %v", got)
	}

	f2, err := Open(netcdf.BytesReader(tagged))
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := f2.Find("m/v")
	if st := d2.Chunks[0].Stats; st == nil || st.Min != 1 || st.Max != 4 || st.Count != 4 || st.Fill != 0 {
		t.Fatalf("tagged stats wrong: %+v", st)
	}
}
