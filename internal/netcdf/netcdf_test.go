package netcdf

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"scidp/internal/ioengine"
)

// buildFile assembles a small 3-D float32 file resembling one NU-WRF
// timestamp: var QR[level][lat][lon], chunked one level per chunk.
func buildFile(t *testing.T, nz, ny, nx, deflate int) ([]byte, []float32) {
	t.Helper()
	w := NewWriter()
	for _, d := range []struct {
		n string
		l int
	}{{"level", nz}, {"lat", ny}, {"lon", nx}} {
		if err := w.AddDim(d.n, d.l); err != nil {
			t.Fatal(err)
		}
	}
	w.GlobalAttr(StringAttr("model", "NU-WRF"))
	err := w.AddVar("QR", Float32, []string{"level", "lat", "lon"},
		Chunking{Shape: []int{1, ny, nx}, Deflate: deflate},
		StringAttr("units", "kg/kg"), Float64Attr("scale", 1.0))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, nz*ny*nx)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 37.0))
	}
	if err := w.PutVarFloat32("QR", vals); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob, vals
}

// TestGridCannotAliasTheIndex: Open builds each variable's grid once, for
// its chunk index; Grid hands out a fresh copy, so a caller that writes to
// it changes nothing the index reads by.
func TestGridCannotAliasTheIndex(t *testing.T) {
	blob, vals := buildFile(t, 4, 3, 5, 1)
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.Var("QR")
	if err != nil {
		t.Fatal(err)
	}
	g := v.Grid()
	for d := range g.Shape {
		g.Shape[d], g.Chunk[d] = 1, 1
	}
	for _, got := range []ioengine.Grid{f.ChunkIndex(v).Grid, v.Grid()} {
		if !slices.Equal(got.Shape, []int{4, 3, 5}) || !slices.Equal(got.Chunk, []int{1, 3, 5}) {
			t.Fatalf("grid after a caller's write: %+v", got)
		}
	}
	arr, err := f.GetVar("QR")
	if err != nil {
		t.Fatal(err)
	}
	if got := arr.Float32s(); !slices.Equal(got, vals) {
		t.Fatal("GetVar after a caller's write to Grid differs from the written values")
	}
}

func TestDetect(t *testing.T) {
	blob, _ := buildFile(t, 2, 4, 4, 0)
	if !Detect(BytesReader(blob)) {
		t.Fatal("Detect should accept a valid file")
	}
	if Detect(BytesReader([]byte("not a netcdf file"))) {
		t.Fatal("Detect should reject garbage")
	}
	if Detect(BytesReader(nil)) {
		t.Fatal("Detect should reject empty input")
	}
}

func TestOpenParsesMetadata(t *testing.T) {
	blob, _ := buildFile(t, 3, 5, 7, 1)
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Dims()) != 3 || f.Dims()[0].Name != "level" || f.Dims()[0].Len != 3 {
		t.Fatalf("dims = %+v", f.Dims())
	}
	if len(f.GlobalAttrs()) != 1 || f.GlobalAttrs()[0].Str != "NU-WRF" {
		t.Fatalf("gattrs = %+v", f.GlobalAttrs())
	}
	v, err := f.Var("QR")
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != Float32 || len(v.Chunks) != 3 || v.Deflate != 1 {
		t.Fatalf("var = %+v", v)
	}
	if u, ok := v.Attr("units"); !ok || u.Str != "kg/kg" {
		t.Fatalf("units attr = %+v, %v", u, ok)
	}
	if v.RawBytes() != 3*5*7*4 {
		t.Fatalf("RawBytes = %d", v.RawBytes())
	}
	if _, err := f.Var("nope"); err == nil {
		t.Fatal("missing var should error")
	}
}

func TestHeaderOnlyOpenIsCheap(t *testing.T) {
	blob, _ := buildFile(t, 50, 64, 64, 1)
	cr := &ioengine.Stats{R: BytesReader(blob)}
	f, err := Open(cr)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Calls != 2 {
		t.Fatalf("Open used %d reads, want 2", cr.Calls)
	}
	if cr.BytesRead > int64(len(blob))/10 {
		t.Fatalf("Open read %d of %d bytes; header must be a small fraction", cr.BytesRead, len(blob))
	}
	if f.Header.Bytes != cr.BytesRead {
		t.Fatalf("Header.Bytes=%d, counted=%d", f.Header.Bytes, cr.BytesRead)
	}
}

func TestGetVarRoundtrip(t *testing.T) {
	for _, deflate := range []int{0, 1, 6} {
		blob, vals := buildFile(t, 4, 6, 8, deflate)
		f, err := Open(BytesReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		arr, err := f.GetVar("QR")
		if err != nil {
			t.Fatal(err)
		}
		got := arr.Float32s()
		if len(got) != len(vals) {
			t.Fatalf("deflate=%d: len=%d want %d", deflate, len(got), len(vals))
		}
		for i := range got {
			if got[i] != vals[i] {
				t.Fatalf("deflate=%d: elem %d = %v want %v", deflate, i, got[i], vals[i])
			}
		}
	}
}

func TestCompressionShrinks(t *testing.T) {
	raw, _ := buildFile(t, 8, 32, 32, 0)
	comp, _ := buildFile(t, 8, 32, 32, 6)
	if len(comp) >= len(raw) {
		t.Fatalf("deflate did not shrink: %d >= %d", len(comp), len(raw))
	}
	f, _ := Open(BytesReader(comp))
	v, _ := f.Var("QR")
	if v.StoredBytes() >= v.RawBytes() {
		t.Fatalf("StoredBytes %d >= RawBytes %d", v.StoredBytes(), v.RawBytes())
	}
}

func TestGetVaraSingleLevel(t *testing.T) {
	blob, vals := buildFile(t, 5, 4, 3, 1)
	f, _ := Open(BytesReader(blob))
	arr, err := f.GetVara("QR", []int{2, 0, 0}, []int{1, 4, 3})
	if err != nil {
		t.Fatal(err)
	}
	got := arr.Float32s()
	want := vals[2*12 : 3*12]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("level slab wrong at %d", i)
		}
	}
}

func TestGetVaraReadsOnlyNeededChunks(t *testing.T) {
	blob, _ := buildFile(t, 50, 16, 16, 1)
	cr := &ioengine.Stats{R: BytesReader(blob)}
	f, err := Open(cr)
	if err != nil {
		t.Fatal(err)
	}
	headerBytes := cr.BytesRead
	if _, err := f.GetVara("QR", []int{10, 0, 0}, []int{1, 16, 16}); err != nil {
		t.Fatal(err)
	}
	v, _ := f.Var("QR")
	dataRead := cr.BytesRead - headerBytes
	if dataRead != v.Chunks[10].StoredSize {
		t.Fatalf("read %d data bytes, want exactly chunk 10's %d", dataRead, v.Chunks[10].StoredSize)
	}
}

func TestGetVaraCrossChunk(t *testing.T) {
	// Chunk shape that does NOT align with the slab, including partial
	// edge chunks: 3x5x7 var with 2x2x2 chunks.
	w := NewWriter()
	w.AddDim("z", 3)
	w.AddDim("y", 5)
	w.AddDim("x", 7)
	if err := w.AddVar("v", Float32, []string{"z", "y", "x"}, Chunking{Shape: []int{2, 2, 2}, Deflate: 1}); err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, 3*5*7)
	for i := range vals {
		vals[i] = float32(i)
	}
	w.PutVarFloat32("v", vals)
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	start, count := []int{1, 1, 2}, []int{2, 3, 4}
	arr, err := f.GetVara("v", start, count)
	if err != nil {
		t.Fatal(err)
	}
	got := arr.Float32s()
	for z := 0; z < count[0]; z++ {
		for y := 0; y < count[1]; y++ {
			for x := 0; x < count[2]; x++ {
				want := vals[(z+start[0])*35+(y+start[1])*7+(x+start[2])]
				if got[z*12+y*4+x] != want {
					t.Fatalf("slab[%d,%d,%d] = %v, want %v", z, y, x, got[z*12+y*4+x], want)
				}
			}
		}
	}
}

func TestGetVaraValidation(t *testing.T) {
	blob, _ := buildFile(t, 2, 3, 4, 0)
	f, _ := Open(BytesReader(blob))
	cases := [][2][]int{
		{{0, 0}, {1, 1}},        // wrong rank
		{{0, 0, 0}, {3, 3, 4}},  // count too big
		{{-1, 0, 0}, {1, 1, 1}}, // negative start
		{{0, 0, 0}, {0, 1, 1}},  // zero count
		{{2, 0, 0}, {1, 1, 1}},  // start at edge
	}
	for i, c := range cases {
		if _, err := f.GetVara("QR", c[0], c[1]); err == nil {
			t.Errorf("case %d: slab %v/%v should be rejected", i, c[0], c[1])
		}
	}
}

func TestContiguousStorage(t *testing.T) {
	w := NewWriter()
	w.AddDim("n", 10)
	if err := w.AddVar("v", Float64, []string{"n"}, Chunking{}); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 10)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	w.PutVarFloat64("v", vals)
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := Open(BytesReader(blob))
	v, _ := f.Var("v")
	if v.ChunkShape != nil || len(v.Chunks) != 1 {
		t.Fatalf("contiguous var: chunks=%d shape=%v", len(v.Chunks), v.ChunkShape)
	}
	arr, err := f.GetVara("v", []int{3}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if arr.Float64At(i) != vals[3+i] {
			t.Fatalf("elem %d = %v", i, arr.Float64At(i))
		}
	}
}

func TestMultipleVariables(t *testing.T) {
	w := NewWriter()
	w.AddDim("n", 6)
	w.AddVar("a", Int32, []string{"n"}, Chunking{Shape: []int{2}})
	w.AddVar("b", Float32, []string{"n"}, Chunking{Deflate: 3})
	w.PutVarInt32("a", []int32{1, 2, 3, 4, 5, 6})
	w.PutVarFloat32("b", []float32{1, 4, 9, 16, 25, 36})
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := Open(BytesReader(blob))
	if len(f.Vars()) != 2 {
		t.Fatalf("vars = %d", len(f.Vars()))
	}
	a, err := f.GetVar("a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Float64At(4) != 5 {
		t.Fatalf("a[4] = %v", a.Float64At(4))
	}
	b, _ := f.GetVar("b")
	if b.Float64At(5) != 36 {
		t.Fatalf("b[5] = %v", b.Float64At(5))
	}
}

func TestWriterValidation(t *testing.T) {
	w := NewWriter()
	if err := w.AddDim("n", 0); err == nil {
		t.Error("zero-length dim should fail")
	}
	w.AddDim("n", 4)
	if err := w.AddDim("n", 5); err == nil {
		t.Error("redeclared dim with new length should fail")
	}
	if err := w.AddDim("n", 4); err != nil {
		t.Error("identical redeclare should be a no-op")
	}
	if err := w.AddVar("v", Float32, []string{"missing"}, Chunking{}); err == nil {
		t.Error("unknown dim should fail")
	}
	if err := w.AddVar("v", Float32, nil, Chunking{}); err == nil {
		t.Error("scalar var should fail")
	}
	w.AddVar("v", Float32, []string{"n"}, Chunking{})
	if err := w.AddVar("v", Float32, []string{"n"}, Chunking{}); err == nil {
		t.Error("duplicate var should fail")
	}
	if err := w.AddVar("w", Float32, []string{"n"}, Chunking{Shape: []int{9}}); err == nil {
		t.Error("chunk bigger than dim should fail")
	}
	if err := w.AddVar("x", Float32, []string{"n"}, Chunking{Deflate: 11}); err == nil {
		t.Error("deflate 11 should fail")
	}
	if err := w.PutVarFloat32("v", []float32{1}); err == nil {
		t.Error("short payload should fail")
	}
	if err := w.PutVarFloat64("v", make([]float64, 4)); err == nil {
		t.Error("wrong-type put should fail")
	}
	if _, err := w.Bytes(); err == nil {
		t.Error("Bytes with missing data should fail")
	}
}

func TestOpenCorruptInputs(t *testing.T) {
	blob, _ := buildFile(t, 2, 3, 3, 1)
	if _, err := Open(BytesReader(blob[:8])); err == nil {
		t.Error("truncated prefix should fail")
	}
	if _, err := Open(BytesReader(blob[:20])); err == nil {
		t.Error("truncated header should fail")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Open(BytesReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
	// Corrupt a chunk payload: decompress must fail loudly.
	f, _ := Open(BytesReader(blob))
	v, _ := f.Var("QR")
	cut := append([]byte(nil), blob...)
	for i := v.Chunks[0].Offset; i < v.Chunks[0].Offset+v.Chunks[0].StoredSize; i++ {
		cut[i] ^= 0xFF
	}
	f2, err := Open(BytesReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.GetVar("QR"); err == nil {
		t.Error("corrupt chunk should fail to read")
	}
}

func TestArraySub(t *testing.T) {
	blob, vals := buildFile(t, 3, 2, 2, 0)
	f, _ := Open(BytesReader(blob))
	arr, _ := f.GetVar("QR")
	lvl := arr.Sub(1)
	if len(lvl.Shape) != 2 || lvl.Shape[0] != 2 || lvl.Shape[1] != 2 {
		t.Fatalf("Sub shape = %v", lvl.Shape)
	}
	got := lvl.Float32s()
	for i := 0; i < 4; i++ {
		if got[i] != vals[4+i] {
			t.Fatalf("Sub elem %d = %v", i, got[i])
		}
	}
}

// TestEncodeDecodeHeaderRoundtrip: metadata written is metadata read.
func TestEncodeDecodeHeaderRoundtrip(t *testing.T) {
	w := NewWriter()
	w.AddDim("time", 48)
	w.AddDim("level", 50)
	w.GlobalAttr(StringAttr("title", "case"))
	w.GlobalAttr(Int64Attr("run", 7))
	w.GlobalAttr(Float64Attr("dt", 0.5))
	w.AddVar("T", Float32, []string{"time", "level"}, Chunking{Shape: []int{1, 50}, Deflate: 2},
		StringAttr("units", "K"))
	w.PutVarFloat32("T", make([]float32, 48*50))
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.GlobalAttrs()) != 3 {
		t.Fatalf("gattrs = %d", len(f.GlobalAttrs()))
	}
	if f.GlobalAttrs()[1].I64 != 7 || f.GlobalAttrs()[2].F64 != 0.5 {
		t.Fatalf("attr values wrong: %+v", f.GlobalAttrs())
	}
	v, _ := f.Var("T")
	if len(v.Chunks) != 48 {
		t.Fatalf("chunks = %d, want 48", len(v.Chunks))
	}
	if start, extent := v.Grid().Box(5); start[0] != 5 || start[1] != 0 || extent[0] != 1 || extent[1] != 50 {
		t.Fatalf("chunk 5 box = %v+%v", start, extent)
	}
}

func TestChunkOffsetsAreDisjointAndOrdered(t *testing.T) {
	blob, _ := buildFile(t, 10, 8, 8, 1)
	f, _ := Open(BytesReader(blob))
	v, _ := f.Var("QR")
	var prevEnd int64 = f.Header.Bytes
	for i, c := range v.Chunks {
		if c.Offset < prevEnd {
			t.Fatalf("chunk %d offset %d overlaps previous end %d", i, c.Offset, prevEnd)
		}
		prevEnd = c.Offset + c.StoredSize
	}
	if prevEnd != int64(len(blob)) {
		t.Fatalf("chunks end at %d, file is %d", prevEnd, len(blob))
	}
}

func TestBytesReaderShortRead(t *testing.T) {
	r := BytesReader([]byte("abc"))
	if b, _ := r.ReadAt(2, 10); !bytes.Equal(b, []byte("c")) {
		t.Fatalf("short read = %q", b)
	}
	if b, _ := r.ReadAt(5, 1); b != nil {
		t.Fatalf("past-EOF read = %q", b)
	}
}

func TestPutVaraPartialWrites(t *testing.T) {
	w := NewWriter()
	w.AddDim("z", 3)
	w.AddDim("x", 4)
	if err := w.AddVar("v", Float32, []string{"z", "x"}, Chunking{Shape: []int{1, 4}, Deflate: 1}); err != nil {
		t.Fatal(err)
	}
	// Write level 1 then level 0; leave level 2 as zeros.
	if err := w.PutVaraFloat32("v", []int{1, 0}, []int{1, 4}, []float32{10, 11, 12, 13}); err != nil {
		t.Fatal(err)
	}
	if err := w.PutVaraFloat32("v", []int{0, 1}, []int{1, 2}, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := Open(BytesReader(blob))
	arr, err := f.GetVar("v")
	if err != nil {
		t.Fatal(err)
	}
	got := arr.Float32s()
	want := []float32{0, 1, 2, 0, 10, 11, 12, 13, 0, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPutVaraValidation(t *testing.T) {
	w := NewWriter()
	w.AddDim("n", 4)
	w.AddVar("v", Float32, []string{"n"}, Chunking{})
	w.AddVar("d", Float64, []string{"n"}, Chunking{})
	if err := w.PutVaraFloat32("v", []int{0}, []int{5}, make([]float32, 5)); err == nil {
		t.Error("out-of-range slab should fail")
	}
	if err := w.PutVaraFloat32("v", []int{0, 0}, []int{1, 1}, make([]float32, 1)); err == nil {
		t.Error("wrong rank should fail")
	}
	if err := w.PutVara("v", []int{0}, []int{2}, make([]byte, 4)); err == nil {
		t.Error("short payload should fail")
	}
	if err := w.PutVaraFloat32("d", []int{0}, []int{1}, []float32{1}); err == nil {
		t.Error("wrong type should fail")
	}
	if err := w.PutVaraFloat32("ghost", []int{0}, []int{1}, []float32{1}); err == nil {
		t.Error("unknown var should fail")
	}
}

// TestPutVaraTilingEqualsFullWrite: writing a variable tile by tile must
// produce the same file payload as one full write.
func TestPutVaraTilingEqualsFullWrite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nz, ny := rng.Intn(4)+1, rng.Intn(5)+1
		vals := make([]float32, nz*ny)
		for i := range vals {
			vals[i] = rng.Float32()
		}
		build := func(tiled bool) []byte {
			w := NewWriter()
			w.AddDim("z", nz)
			w.AddDim("y", ny)
			w.AddVar("v", Float32, []string{"z", "y"}, Chunking{Shape: []int{1, ny}})
			if tiled {
				for z := 0; z < nz; z++ {
					if err := w.PutVaraFloat32("v", []int{z, 0}, []int{1, ny}, vals[z*ny:(z+1)*ny]); err != nil {
						return nil
					}
				}
			} else {
				w.PutVarFloat32("v", vals)
			}
			blob, err := w.Bytes()
			if err != nil {
				return nil
			}
			return blob
		}
		a, b := build(true), build(false)
		return a != nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkIndexDisagreesWithStream: the chunk index is header data from
// outside, and RawSize now sizes the inflate buffer. A stored size that
// truncates the stream, a raw size on either side of what the stream
// holds, and a raw size no DEFLATE stream of that length could reach all
// fail with an error (the last one before anything is allocated).
func TestChunkIndexDisagreesWithStream(t *testing.T) {
	blob, _ := buildFile(t, 2, 40, 40, 4)
	for _, c := range []struct {
		name   string
		mutate func(ci *ioengine.Chunk)
		want   string
	}{
		{"truncated stream", func(ci *ioengine.Chunk) { ci.StoredSize /= 2 }, "netcdf: QR: inflate: unexpected EOF"},
		{"stream longer than declared", func(ci *ioengine.Chunk) { ci.RawSize-- }, "netcdf: QR: chunk raw size at least 6400, want 6399"},
		{"stream shorter than declared", func(ci *ioengine.Chunk) { ci.RawSize++ }, "netcdf: QR: chunk raw size 6400, want 6401"},
		{"absurd raw size", func(ci *ioengine.Chunk) { ci.RawSize = 1 << 60 }, "impossible"},
	} {
		f, err := Open(BytesReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := f.Var("QR")
		c.mutate(&v.Chunks[1])
		if _, err := f.GetVara("QR", []int{0, 0, 0}, []int{1, 40, 40}); err != nil {
			t.Errorf("%s: untouched chunk 0 failed: %v", c.name, err)
		}
		_, err = f.GetVara("QR", []int{1, 0, 0}, []int{1, 40, 40})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

var writerSink []byte

// BenchmarkWriterBytes encodes one NU-WRF-shaped variable (10 levels of
// 40x40 float32, one deflated chunk per level) — the set-up cost.
func BenchmarkWriterBytes(b *testing.B) {
	const nz, ny, nx = 10, 40, 40
	vals := make([]float32, nz*ny*nx)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 37.0))
	}
	b.ReportAllocs()
	b.SetBytes(int64(4 * len(vals)))
	for i := 0; i < b.N; i++ {
		w := NewWriter()
		for _, d := range []struct {
			n string
			l int
		}{{"level", nz}, {"lat", ny}, {"lon", nx}} {
			if err := w.AddDim(d.n, d.l); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.AddVar("QR", Float32, []string{"level", "lat", "lon"}, Chunking{Shape: []int{1, ny, nx}, Deflate: 4}); err != nil {
			b.Fatal(err)
		}
		if err := w.PutVarFloat32("QR", vals); err != nil {
			b.Fatal(err)
		}
		blob, err := w.Bytes()
		if err != nil {
			b.Fatal(err)
		}
		writerSink = blob
	}
}

// Float64At returns element i as float64 regardless of numeric type.
func (a *Array) Float64At(i int) float64 { return a.Type.Float64At(a.Data, i) }

// Sub returns the sub-array at the given leading index (e.g. one level of
// a [level][lat][lon] array), sharing the underlying bytes. A rank below
// two has no leading index to drop: a programmer error.
func (a *Array) Sub(i int) *Array {
	if len(a.Shape) < 2 {
		panic("netcdf: Sub on rank<2 array")
	}
	n := ioengine.Volume(a.Shape[1:]) * a.Type.Size()
	return &Array{Type: a.Type, Shape: a.Shape[1:], Data: a.Data[i*n : (i+1)*n]}
}

// Attr returns the named variable attribute, or false.
func (v *Var) Attr(name string) (Attr, bool) {
	for _, a := range v.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attr{}, false
}
