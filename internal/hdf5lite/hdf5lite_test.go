package hdf5lite

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
)

func sampleFile(t *testing.T) ([]byte, []float32) {
	t.Helper()
	w := NewWriter()
	w.Root().Attrs["title"] = "nested"
	phys := w.Root().EnsureGroup("model/physics")
	phys.Attrs["scheme"] = "GCE"
	vals := make([]float32, 6*4*4)
	for i := range vals {
		vals[i] = float32(i) * 0.5
	}
	if _, err := phys.AddFloat32("QR", []int{6, 4, 4}, 2, 3, vals); err != nil {
		t.Fatal(err)
	}
	dyn := w.Root().EnsureGroup("model/dynamics")
	if _, err := dyn.AddInt32("steps", []int{3}, 0, 0, []int32{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob, vals
}

func TestIsHDF5(t *testing.T) {
	blob, _ := sampleFile(t)
	if !IsHDF5(netcdf.BytesReader(blob)) {
		t.Fatal("IsHDF5 should accept a valid file")
	}
	if IsHDF5(netcdf.BytesReader([]byte("NCL1 something"))) {
		t.Fatal("IsHDF5 should reject a netCDF file")
	}
}

func TestGroupTreeRoundtrip(t *testing.T) {
	blob, _ := sampleFile(t)
	f, err := Open(netcdf.BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if f.Root().Attrs["title"] != "nested" {
		t.Fatalf("root attrs = %v", f.Root().Attrs)
	}
	model := f.Root().Child("model")
	if model == nil {
		t.Fatal("missing group model")
	}
	phys := model.Child("physics")
	if phys == nil || phys.Attrs["scheme"] != "GCE" {
		t.Fatalf("physics group wrong: %+v", phys)
	}
	if len(model.Children) != 2 {
		t.Fatalf("model children = %d, want 2", len(model.Children))
	}
	d, err := f.Find("model/physics/QR")
	if err != nil {
		t.Fatal(err)
	}
	if d.Type != Float32 || len(d.Shape) != 3 || d.Shape[0] != 6 {
		t.Fatalf("dataset = %+v", d)
	}
	if len(d.Chunks) != 3 { // 6 rows / 2 per chunk
		t.Fatalf("chunks = %d, want 3", len(d.Chunks))
	}
	if _, err := f.Find("model/nope/QR"); err == nil {
		t.Fatal("missing group path should fail")
	}
	if _, err := f.Find("model/physics/nope"); err == nil {
		t.Fatal("missing dataset should fail")
	}
}

// readAll reads the full dataset payload.
func readAll(f *File, d *Dataset) ([]byte, error) { return readRows(f, d, 0, d.Shape[0]) }

// readRows reads leading-dimension entries [start, start+count) of d,
// whole in every other dimension.
func readRows(f *File, d *Dataset, start, count int) ([]byte, error) {
	from, n := make([]int, len(d.Shape)), slices.Clone(d.Shape)
	from[0], n[0] = start, count
	return f.ChunkIndex(d).ReadBox(from, n)
}

// TestGridCannotAliasTheIndex: Open builds each dataset's grid once, for
// its chunk index; Grid hands out a fresh copy, so a caller that writes to
// it changes nothing the index reads by.
func TestGridCannotAliasTheIndex(t *testing.T) {
	blob, vals := sampleFile(t)
	f, err := Open(netcdf.BytesReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Find("model/physics/QR")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Grid()
	for i := range g.Shape {
		g.Shape[i], g.Chunk[i] = 1, 1
	}
	for _, got := range []ioengine.Grid{f.ChunkIndex(d).Grid, d.Grid()} {
		if !slices.Equal(got.Shape, []int{6, 4, 4}) || !slices.Equal(got.Chunk, []int{2, 4, 4}) {
			t.Fatalf("grid after a caller's write: %+v", got)
		}
	}
	raw, err := readAll(f, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := ioengine.Float32s(raw); !slices.Equal(got, vals) {
		t.Fatal("read after a caller's write to Grid differs from the written values")
	}
}

func TestReadAllRoundtrip(t *testing.T) {
	blob, vals := sampleFile(t)
	f, _ := Open(netcdf.BytesReader(blob))
	d, _ := f.Find("model/physics/QR")
	raw, err := readAll(f, d)
	if err != nil {
		t.Fatal(err)
	}
	got := ioengine.Float32s(raw)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("elem %d = %v, want %v", i, got[i], vals[i])
		}
	}
}

func TestReadRowsPartial(t *testing.T) {
	blob, vals := sampleFile(t)
	f, _ := Open(netcdf.BytesReader(blob))
	d, _ := f.Find("model/physics/QR")
	raw, err := readRows(f, d, 3, 2) // crosses the chunk boundary at row 4
	if err != nil {
		t.Fatal(err)
	}
	got := ioengine.Float32s(raw)
	want := vals[3*16 : 5*16]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row slab elem %d = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := readRows(f, d, 5, 3); err == nil {
		t.Fatal("out-of-range rows should fail")
	}
}

func TestHeaderOnlyOpen(t *testing.T) {
	blob, _ := sampleFile(t)
	cr := &ioengine.Stats{R: netcdf.BytesReader(blob)}
	f, err := Open(cr)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Calls != 2 {
		t.Fatalf("Open used %d reads, want 2", cr.Calls)
	}
	if f.Header.Bytes != cr.BytesRead {
		t.Fatalf("Header.Bytes=%d counted=%d", f.Header.Bytes, cr.BytesRead)
	}
}

func TestInt32Dataset(t *testing.T) {
	blob, _ := sampleFile(t)
	f, _ := Open(netcdf.BytesReader(blob))
	d, err := f.Find("model/dynamics/steps")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := readAll(f, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 12 {
		t.Fatalf("raw len = %d", len(raw))
	}
	if raw[4] != 20 {
		t.Fatalf("steps[1] low byte = %d, want 20", raw[4])
	}
}

func TestWriterValidation(t *testing.T) {
	w := NewWriter()
	g := w.Root()
	if _, err := g.AddFloat32("d", nil, 0, 0, nil); err == nil {
		t.Error("empty shape should fail")
	}
	if _, err := g.AddFloat32("d", []int{2, 0}, 0, 0, nil); err == nil {
		t.Error("zero extent should fail")
	}
	if _, err := g.AddFloat32("d", []int{2}, 0, 0, []float32{1}); err == nil {
		t.Error("short payload should fail")
	}
	if _, err := g.AddFloat32("d", []int{2}, 3, 0, []float32{1, 2}); err == nil {
		t.Error("chunkRows > rows should fail")
	}
	if _, err := g.AddFloat32("d", []int{2}, 0, 0, []float32{1, 2}); err != nil {
		t.Error(err)
	}
	if _, err := g.AddFloat32("d", []int{2}, 0, 0, []float32{1, 2}); err == nil {
		t.Error("duplicate dataset should fail")
	}
}

func TestOpenRejectsCorrupt(t *testing.T) {
	blob, _ := sampleFile(t)
	if _, err := Open(netcdf.BytesReader(blob[:6])); err == nil {
		t.Error("truncated prefix should fail")
	}
	bad := append([]byte(nil), blob...)
	bad[2] = 'X'
	if _, err := Open(netcdf.BytesReader(bad)); err == nil {
		t.Error("bad magic should fail")
	}
}

// TestRowsRoundtripProperty: arbitrary row slabs must equal the same slice
// of the original data for random shapes and chunkings.
func TestRowsRoundtripProperty(t *testing.T) {
	f := func(rows8, cols8, chunk8, start8, count8, defl8 uint8) bool {
		rows := int(rows8)%12 + 1
		cols := int(cols8)%6 + 1
		chunk := int(chunk8) % (rows + 1) // 0 = contiguous
		start := int(start8) % rows
		count := int(count8)%(rows-start) + 1
		vals := make([]float32, rows*cols)
		for i := range vals {
			vals[i] = float32(i * 7 % 13)
		}
		w := NewWriter()
		if _, err := w.Root().AddFloat32("d", []int{rows, cols}, chunk, int(defl8)%3, vals); err != nil {
			return false
		}
		blob, err := w.Bytes()
		if err != nil {
			return false
		}
		file, err := Open(netcdf.BytesReader(blob))
		if err != nil {
			return false
		}
		d, err := file.Find("d")
		if err != nil {
			return false
		}
		raw, err := readRows(file, d, start, count)
		if err != nil {
			return false
		}
		got := ioengine.Float32s(raw)
		for i := 0; i < count*cols; i++ {
			if got[i] != vals[start*cols+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkIndexDisagreesWithStream: the same header hardening as
// netcdf's — a chunk index that truncates the stream, misstates its raw
// size either way, or declares a size no DEFLATE stream of that length
// could reach is an error, not an allocation.
func TestChunkIndexDisagreesWithStream(t *testing.T) {
	blob, _ := sampleFile(t)
	for _, c := range []struct {
		name   string
		mutate func(ck *ioengine.Chunk)
		want   string
	}{
		{"truncated stream", func(ck *ioengine.Chunk) { ck.StoredSize /= 2 }, "hdf5lite: inflate: unexpected EOF"},
		{"stream longer than declared", func(ck *ioengine.Chunk) { ck.RawSize-- }, "hdf5lite: chunk raw size at least 128, want 127"},
		{"stream shorter than declared", func(ck *ioengine.Chunk) { ck.RawSize++ }, "hdf5lite: chunk raw size 128, want 129"},
		{"absurd raw size", func(ck *ioengine.Chunk) { ck.RawSize = 1 << 60 }, "impossible"},
	} {
		f, err := Open(netcdf.BytesReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		d := f.Root().Child("model").Child("physics").Dataset("QR")
		c.mutate(&d.Chunks[1])
		if _, err := readRows(f, d, 0, 2); err != nil {
			t.Errorf("%s: untouched chunk 0 failed: %v", c.name, err)
		}
		_, err = readRows(f, d, 2, 2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestOpenUnknownElementType: a dataset's element type is one byte of the
// header, and Type.Size panics on a value it does not know — on the parent
// a file with type 9 opened cleanly and a row read panicked. Open refuses it.
func TestOpenUnknownElementType(t *testing.T) {
	blob, _ := sampleFile(t)
	name := "\x02\x00\x00\x00QR" // the dataset's name; its type byte follows
	at := strings.Index(string(blob), name) + len(name)
	if at < len(name) || Type(blob[at]) != Float32 {
		t.Fatalf("type byte not found at %d", at)
	}
	for _, typ := range []byte{0, 9, 255} {
		bad := append([]byte(nil), blob...)
		bad[at] = typ
		if _, err := Open(netcdf.BytesReader(bad)); err == nil || !strings.Contains(err.Error(), "unknown element type") {
			t.Errorf("type %d: Open: %v; want an unknown-element-type error", typ, err)
		}
	}
}

// Find resolves a slash-separated path to a dataset ("model/physics/QR").
func (f *File) Find(path string) (*Dataset, error) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	g := f.root
	for i, part := range parts {
		if i == len(parts)-1 {
			if d := g.Dataset(part); d != nil {
				return d, nil
			}
			return nil, fmt.Errorf("hdf5lite: no dataset %q", path)
		}
		g = g.Child(part)
		if g == nil {
			return nil, fmt.Errorf("hdf5lite: no group %q in %q", part, path)
		}
	}
	return nil, fmt.Errorf("hdf5lite: empty path")
}
