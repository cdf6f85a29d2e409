package hdf5lite

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
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
			if c.Stats != want {
				t.Fatalf("%s chunk %d: stats %+v, brute force %+v", path, ci, c.Stats, want)
			}
		}
	}
	check("model/physics/QR", func(i int) float64 { return float64(fvals[i]) })
	check("model/physics/steps", func(i int) float64 { return float64(ivals[i]) })

	// The deliberately all-NaN chunk must carry the empty interval.
	d, _ := f.Find("model/physics/QR")
	mid := d.Chunks[1]
	if mid.Stats.Count != mid.Stats.Fill || !math.IsInf(mid.Stats.Min, 1) || !math.IsInf(mid.Stats.Max, -1) {
		t.Fatalf("all-fill chunk stats %+v", mid.Stats)
	}
}

// TestFileWithoutZoneMapsRefused: the zone-map trailer is part of every
// header. A header that ends where the group tree does or inside the tag,
// carries another tag, or holds a record too few in a section is refused
// with an error naming the trailer.
func TestFileWithoutZoneMapsRefused(t *testing.T) {
	blob := smallFile(t)
	f, err := Open(netcdf.BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	trailer := trailerLen(f)
	at := int(f.Header.Bytes) - trailer // the tag
	altered, fewer := bytes.Clone(blob), bytes.Clone(blob)
	altered[at] ^= 0xff
	binary.LittleEndian.PutUint32(fewer[at+4:], binary.LittleEndian.Uint32(fewer[at+4:])-1)
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		{"tag cut off", shortenHeader(blob, trailer), "no zone-map trailer tag"},
		{"tag cut in half", shortenHeader(blob, trailer-2), "no zone-map trailer tag"},
		{"tag altered", altered, "no zone-map trailer tag"},
		{"last section one record short", shortenHeader(blob, ioengine.ChunkStatsSize), "zone-map trailer section"},
		{"first section counts one record fewer", fewer, "zone-map trailer section"},
	} {
		if _, err := Open(netcdf.BytesReader(c.blob)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open: %v; want an error containing %q", c.name, err, c.want)
		}
	}
}

// trailerLen is the length of f's zone-map trailer, the last bytes of its
// header: the tag, then per dataset a count and its records.
func trailerLen(f *File) int {
	n := 4
	for _, d := range datasetsDF(f.Root()) {
		n += 4 + ioengine.ChunkStatsSize*len(d.Chunks)
	}
	return n
}

// shortenHeader returns blob with its declared header length n bytes
// shorter, its last n header bytes left as a gap before the payloads, so
// every payload stays where its index says.
func shortenHeader(blob []byte, n int) []byte {
	b := bytes.Clone(blob)
	binary.LittleEndian.PutUint64(b[4:], binary.LittleEndian.Uint64(b[4:])-uint64(n))
	return b
}
