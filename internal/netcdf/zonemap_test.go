package netcdf

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scidp/internal/ioengine"
)

// TestChunkStatsProperty writes random arrays under random geometries and
// checks every recorded zone map against a brute-force pass over the
// chunk's elements.
func TestChunkStatsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		rank := 1 + rng.Intn(3)
		shape := make([]int, rank)
		cs := make([]int, rank)
		for i := range shape {
			shape[i] = 1 + rng.Intn(7)
			cs[i] = 1 + rng.Intn(shape[i]) // may not divide evenly: partial edge chunks
		}
		typ := []Type{Byte, Int32, Int64, Float32, Float64}[rng.Intn(5)]
		n := 1
		for _, s := range shape {
			n *= s
		}
		es := typ.Size()
		raw := make([]byte, n*es)
		vals := make([]float64, n)
		for i := range vals {
			var v float64
			switch typ {
			case Byte:
				v = float64(rng.Intn(256))
				raw[i] = byte(v)
			case Int32:
				v = float64(int32(rng.Int63()))
				putInt32Raw(raw[i*4:], int32(v))
			case Int64:
				iv := rng.Int63() - rng.Int63()
				v = float64(iv)
				putInt64Raw(raw[i*8:], iv)
			case Float32:
				f := float32(rng.NormFloat64() * 10)
				if rng.Intn(5) == 0 {
					f = float32(math.NaN())
				}
				v = float64(f)
				putFloat32Raw(raw[i*4:], f)
			case Float64:
				v = rng.NormFloat64() * 10
				if rng.Intn(5) == 0 {
					v = math.NaN()
				}
				putFloat64Raw(raw[i*8:], v)
			}
			vals[i] = v
		}

		w := NewWriter()
		dims := make([]string, rank)
		for i := range dims {
			dims[i] = []string{"x", "y", "z"}[i]
			if err := w.AddDim(dims[i], shape[i]); err != nil {
				t.Fatal(err)
			}
		}
		deflate := rng.Intn(2)
		if err := w.AddVar("v", typ, dims, Chunking{Shape: cs, Deflate: deflate}); err != nil {
			t.Fatal(err)
		}
		if err := w.PutVarBytes("v", raw); err != nil {
			t.Fatal(err)
		}
		blob, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		f, err := Open(BytesReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Var("v")
		if err != nil {
			t.Fatal(err)
		}
		str := ioengine.Strides(shape)
		for ci := range v.Chunks {
			st := v.Chunks[ci].Stats
			start, extent := v.Grid().Box(ci)
			want := ioengine.ChunkStats{Min: math.Inf(1), Max: math.Inf(-1)}
			estr := ioengine.Strides(extent)
			for k := 0; k < ioengine.Volume(extent); k++ {
				flat := 0
				for d := range extent {
					flat += (start[d] + k/estr[d]%extent[d]) * str[d]
				}
				want.Count++
				x := vals[flat]
				if math.IsNaN(x) {
					want.Fill++
				} else {
					want.Min = math.Min(want.Min, x)
					want.Max = math.Max(want.Max, x)
				}
			}
			if st != want {
				t.Fatalf("trial %d chunk %d (type %s, shape %v, chunk %v): stats %+v, brute force %+v",
					trial, ci, typ, shape, cs, st, want)
			}
		}
	}
}

func putInt32Raw(b []byte, v int32)     { binary.LittleEndian.PutUint32(b, uint32(v)) }
func putInt64Raw(b []byte, v int64)     { binary.LittleEndian.PutUint64(b, uint64(v)) }
func putFloat32Raw(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) }
func putFloat64Raw(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

// TestGetVaraPartialChunksWithStats reads hyperslabs crossing partial
// edge chunks of a stats-bearing file and checks the data against the
// original values.
func TestGetVaraPartialChunksWithStats(t *testing.T) {
	const ny, nx = 5, 7
	w := NewWriter()
	if err := w.AddDim("y", ny); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDim("x", nx); err != nil {
		t.Fatal(err)
	}
	// 2x3 chunks over a 5x7 array: partial chunks on both edges.
	if err := w.AddVar("v", Float64, []string{"y", "x"}, Chunking{Shape: []int{2, 3}, Deflate: 1}); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, ny*nx)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	if err := w.PutVarFloat64("v", vals); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := f.Var("v")
	for _, c := range v.Chunks {
		if c.Stats.Fill != 0 || c.Stats.Count == 0 {
			t.Fatalf("unexpected stats %+v", c.Stats)
		}
	}
	// Slabs chosen to cross chunk boundaries including the partial edges.
	slabs := [][2][]int{
		{{1, 2}, {3, 4}}, // interior crossing 4 chunks
		{{3, 5}, {2, 2}}, // touches both partial edge chunks
		{{0, 0}, {ny, nx}},
		{{4, 6}, {1, 1}}, // the corner partial chunk alone
	}
	for _, s := range slabs {
		start, count := s[0], s[1]
		arr, err := f.GetVara("v", start, count)
		if err != nil {
			t.Fatalf("GetVara(%v,%v): %v", start, count, err)
		}
		for yy := 0; yy < count[0]; yy++ {
			for xx := 0; xx < count[1]; xx++ {
				got := arr.Float64At(yy*count[1] + xx)
				want := vals[(start[0]+yy)*nx+(start[1]+xx)]
				if got != want {
					t.Fatalf("slab %v+%v at (%d,%d): got %v want %v", start, count, yy, xx, got, want)
				}
			}
		}
	}
}

// TestFileWithoutZoneMapsRefused: the zone-map trailer is part of every
// header. A header that ends where the variables do or inside the tag,
// carries another tag, or holds a record too few in a section is refused
// with an error naming the trailer.
func TestFileWithoutZoneMapsRefused(t *testing.T) {
	blob := smallFile(t)
	f, err := Open(BytesReader(blob))
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
		if _, err := Open(BytesReader(c.blob)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open: %v; want an error containing %q", c.name, err, c.want)
		}
	}
}

// trailerLen is the length of f's zone-map trailer, the last bytes of its
// header: the tag, then per variable a count and its records.
func trailerLen(f *File) int {
	n := 4
	for _, v := range f.Vars() {
		n += 4 + ioengine.ChunkStatsSize*len(v.Chunks)
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
