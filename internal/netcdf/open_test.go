package netcdf

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// nuwrfShaped builds a file of the benchmark's NU-WRF shape, the way
// workloads.GenerateBlobs does: 23 float32 variables of 10 × 40 × 40, one
// deflated chunk per level, zone maps on.
func nuwrfShaped(tb testing.TB) []byte { return nuwrfVars(tb, 23) }

// nuwrfVars is nuwrfShaped with nvars variables.
func nuwrfVars(tb testing.TB, nvars int) []byte { return nuwrfGrid(tb, nvars, 10, 40, 40) }

// nuwrfGrid is nuwrfVars on a levels × lat × lon grid, one chunk a level.
func nuwrfGrid(tb testing.TB, nvars, levels, lat, lon int) []byte {
	tb.Helper()
	w := NewWriter()
	w.AddDim("level", levels)
	w.AddDim("lat", lat)
	w.AddDim("lon", lon)
	w.GlobalAttr(StringAttr("model", "NU-WRF"))
	w.GlobalAttr(Int64Attr("timestamp", 0))
	vals := make([]float32, levels*lat*lon)
	for v := 0; v < nvars; v++ {
		name := fmt.Sprintf("VAR%02d", v)
		err := w.AddVar(name, Float32, []string{"level", "lat", "lon"},
			Chunking{Shape: []int{1, lat, lon}, Deflate: 1}, StringAttr("units", "kg/kg"))
		if err != nil {
			tb.Fatal(err)
		}
		for i := range vals {
			vals[i] = float32(math.Sin(float64(i+v) / 37.0))
		}
		if err := w.PutVarFloat32(name, vals); err != nil {
			tb.Fatal(err)
		}
	}
	blob, err := w.Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// TestOpenSharesChunkSlabs: every variable's chunk index is one slab with
// no spare capacity (TestOpenAllocation counts them), every chunk carries
// its zone map, and the grid built from the header places chunk j at
// level j, whole in the other two dimensions.
func TestOpenSharesChunkSlabs(t *testing.T) {
	f, err := Open(BytesReader(nuwrfShaped(t)))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f.Vars() {
		if len(v.Chunks) != 10 || cap(v.Chunks) != 10 {
			t.Fatalf("%s: %d chunks in room for %d, want 10 in 10", v.Name, len(v.Chunks), cap(v.Chunks))
		}
		g := v.Grid()
		for j, c := range v.Chunks {
			if start, extent := g.Box(j); fmt.Sprint(start, extent) != fmt.Sprint([]int{j, 0, 0}, []int{1, 40, 40}) {
				t.Fatalf("%s chunk %d: box %v+%v", v.Name, j, start, extent)
			}
			if c.Stats.Count != 40*40 {
				t.Fatalf("%s chunk %d: stats %+v", v.Name, j, c.Stats)
			}
		}
	}
}

// TestOpenCorruptChunkCount: a header that claims 2³¹ chunks is refused as
// truncated, having allocated for the chunks the header has bytes for and
// not for the count it declares.
func TestOpenCorruptChunkCount(t *testing.T) {
	blob, _ := buildFile(t, 2, 3, 3, 1)
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	// The chunk count is the u32 right before the first chunk's offset.
	v := f.Vars()[0]
	var first [8]byte
	binary.LittleEndian.PutUint64(first[:], uint64(v.Chunks[0].Offset))
	at := strings.Index(string(blob[:f.Header.Bytes]), string(first[:])) - 4
	if at < 0 || binary.LittleEndian.Uint32(blob[at:]) != uint32(len(v.Chunks)) {
		t.Fatalf("chunk count not found at %d", at)
	}
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[at:], 1<<31)
	var opened *File
	allocs := testing.AllocsPerRun(1, func() { opened, err = Open(BytesReader(bad)) })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Open = %v, %v; want a truncated-header error", opened, err)
	}
	if allocs > 100 {
		t.Fatalf("refusing the header took %v allocations", allocs)
	}
}

var openSink *File

// BenchmarkOpen parses the header of one NU-WRF-shaped file: what the
// Explorer and then each map task pay per file.
func BenchmarkOpen(b *testing.B) {
	blob := nuwrfShaped(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Open(BytesReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		openSink = f
	}
}

// TestOpenUnknownElementType: the element type is one byte of the header,
// and Type.Size panics on a value it does not know — on the parent a file
// with type 9 opened cleanly and GetVar (or a query's accessor on a pool
// worker) panicked. Open refuses the header instead.
func TestOpenUnknownElementType(t *testing.T) {
	blob, _ := buildFile(t, 2, 3, 3, 1)
	name := "\x02\x00\x00\x00QR" // the variable's name; its type byte follows
	at := strings.Index(string(blob), name) + len(name)
	if at < len(name) || Type(blob[at]) != Float32 {
		t.Fatalf("type byte not found at %d", at)
	}
	for _, typ := range []byte{0, 9, 255} {
		bad := append([]byte(nil), blob...)
		bad[at] = typ
		if _, err := Open(BytesReader(bad)); err == nil || !strings.Contains(err.Error(), "unknown element type") {
			t.Errorf("type %d: Open: %v; want an unknown-element-type error", typ, err)
		}
	}
}

var getvaraSink *Array

// BenchmarkGetVara reads one whole variable of the NU-WRF-shaped file —
// ten deflated chunks inflated and scattered — what a map task pays per
// dummy block after Open.
func BenchmarkGetVara(b *testing.B) {
	f, err := Open(BytesReader(nuwrfShaped(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(10 * 40 * 40 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr, err := f.GetVara("VAR07", []int{0, 0, 0}, []int{10, 40, 40})
		if err != nil {
			b.Fatal(err)
		}
		getvaraSink = arr
	}
}

// TestOpenNamesOutgrowFirstBlock: 300 variables with 40-byte names take
// twelve times the names Builder's first block, so Open moves on to
// larger blocks many times over. Every name it handed out before each
// move is still the name in the header, and none is the caller's bytes:
// the blob is overwritten after Open returns.
func TestOpenNamesOutgrowFirstBlock(t *testing.T) {
	name := func(i int) string { return fmt.Sprintf("%040d", i) }
	w := NewWriter()
	w.AddDim("x", 2)
	for i := range 300 {
		if err := w.AddVar(name(i), Int32, []string{"x"}, Chunking{}, StringAttr("units", name(i)[20:])); err != nil {
			t.Fatal(err)
		}
		if err := w.PutVarBytes(name(i), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = 'Z'
	}
	if len(f.Vars()) != 300 {
		t.Fatalf("%d variables, want 300", len(f.Vars()))
	}
	for i, v := range f.Vars() {
		if v.Name != name(i) || v.Dims[0].Name != "x" || v.Attrs[0].Name != "units" || v.Attrs[0].Str != name(i)[20:] {
			t.Fatalf("variable %d: %q dims %+v attrs %+v", i, v.Name, v.Dims, v.Attrs)
		}
		if got, err := f.Var(name(i)); err != nil || got != v {
			t.Fatalf("Var(%q) = %v, %v", name(i), got, err)
		}
	}
}

// TestOpenSlicesDoNotShareRoom: the variables' Dims, Attrs and ChunkShape
// are carved from shared blocks, each capped at its own length, so an
// append to one variable's slice leaves the next variable's alone.
func TestOpenSlicesDoNotShareRoom(t *testing.T) {
	f, err := Open(BytesReader(nuwrfShaped(t)))
	if err != nil {
		t.Fatal(err)
	}
	first, next := f.Vars()[0], f.Vars()[1]
	want := fmt.Sprint(next.Dims, next.Attrs, next.ChunkShape, next.Grid())
	_ = append(first.Dims, Dim{Name: "extra", Len: 9})
	_ = append(first.Attrs, StringAttr("extra", "x"))
	_ = append(first.ChunkShape, 9)
	if got := fmt.Sprint(next.Dims, next.Attrs, next.ChunkShape, next.Grid()); got != want {
		t.Fatalf("after appends to %s: %s is %s, was %s", first.Name, next.Name, got, want)
	}
}
