package scifmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"scidp/internal/hdf5lite"
	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
)

func ncBlob(t *testing.T) []byte {
	t.Helper()
	w := netcdf.NewWriter()
	w.AddDim("level", 4)
	w.AddDim("lat", 3)
	w.AddDim("lon", 3)
	w.GlobalAttr(netcdf.StringAttr("model", "NU-WRF"))
	w.GlobalAttr(netcdf.Int64Attr("run", 9))
	if err := w.AddVar("QR", netcdf.Float32, []string{"level", "lat", "lon"},
		netcdf.Chunking{Shape: []int{1, 3, 3}, Deflate: 1}); err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, 4*9)
	for i := range vals {
		vals[i] = float32(i)
	}
	w.PutVarFloat32("QR", vals)
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func h5Blob(t *testing.T) []byte {
	t.Helper()
	w := hdf5lite.NewWriter()
	g := w.Root().EnsureGroup("sim/out")
	vals := make([]float32, 4*6)
	for i := range vals {
		vals[i] = float32(i)
	}
	if _, err := g.AddFloat32("T", []int{4, 6}, 2, 1, vals); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestRegistryDetect(t *testing.T) {
	reg := Default()
	nc, h5 := ncBlob(t), h5Blob(t)
	f, ok := reg.Detect(netcdf.BytesReader(nc))
	if !ok || f.Name() != "netcdf" {
		t.Fatalf("netcdf detect = %v, %v", f, ok)
	}
	f, ok = reg.Detect(netcdf.BytesReader(h5))
	if !ok || f.Name() != "hdf5" {
		t.Fatalf("hdf5 detect = %v, %v", f, ok)
	}
	if _, ok := reg.Detect(netcdf.BytesReader([]byte("time,lat,lon,value\n0,1,2,3.5\n"))); ok {
		t.Fatal("CSV should not be detected as scientific")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	r := NewRegistry()
	r.Register(NetCDF())
	r.Register(NetCDF())
}

func TestRegistryLookup(t *testing.T) {
	reg := Default()
	if _, ok := reg.Lookup("netcdf"); !ok {
		t.Fatal("netcdf should be installed")
	}
	if _, ok := reg.Lookup("grib2"); ok {
		t.Fatal("grib2 should not be installed")
	}
	if n := len(reg.Formats()); n != 2 {
		t.Fatalf("formats = %d", n)
	}
}

// Var returns the entry whose Path matches, or an error.
func (in *Info) Var(path string) (*VarEntry, error) {
	for i := range in.Vars {
		if in.Vars[i].Path == path {
			return &in.Vars[i], nil
		}
	}
	return nil, fmt.Errorf("scifmt: no variable %q in %s file", path, in.Format)
}

func TestNetCDFExplore(t *testing.T) {
	info, err := NetCDF().Explore(netcdf.BytesReader(ncBlob(t)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != "netcdf" || info.Attrs["model"] != "NU-WRF" || info.Attrs["run"] != "9" {
		t.Fatalf("info = %+v", info)
	}
	v, err := info.Var("QR")
	if err != nil {
		t.Fatal(err)
	}
	if v.TypeName != "float" || v.Index.Type.Size() != 4 || v.Index.Src != nil {
		t.Fatalf("var = %+v", v)
	}
	if n := v.Index.Grid.Len(); n != 4 || len(v.Index.Chunks) != 4 {
		t.Fatalf("chunks = %d, want 4 (one per level)", n)
	}
	for i := range 4 {
		start, extent := v.Index.Grid.Box(i)
		if fmt.Sprint(start, extent) != fmt.Sprint([]int{i, 0, 0}, []int{1, 3, 3}) {
			t.Fatalf("chunk %d box = %v+%v", i, start, extent)
		}
	}
	if v.StoredBytes <= 0 || v.StoredBytes >= 2*4*36 {
		t.Fatalf("StoredBytes = %d", v.StoredBytes)
	}
	if _, err := info.Var("missing"); err == nil {
		t.Fatal("missing var should error")
	}
}

// readSlab reads the box [start, start+count) of the variable at path as
// the PFS Reader does: through the chunk index Explore hands out, its Src
// set to the file.
func readSlab(f Format, blob []byte, path string, start, count []int) ([]byte, error) {
	info, err := f.Explore(ioengine.Bytes(blob))
	if err != nil {
		return nil, err
	}
	v, err := info.Var(path)
	if err != nil {
		return nil, err
	}
	x := v.Index
	x.Src = ioengine.Bytes(blob)
	return x.ReadBox(start, count)
}

func TestNetCDFReadSlab(t *testing.T) {
	blob := ncBlob(t)
	raw, err := readSlab(NetCDF(), blob, "QR", []int{2, 0, 0}, []int{1, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	got := ioengine.Float32s(raw)
	for i := 0; i < 9; i++ {
		if got[i] != float32(18+i) {
			t.Fatalf("slab elem %d = %v, want %v", i, got[i], float32(18+i))
		}
	}
}

func TestHDF5ExploreNestedPaths(t *testing.T) {
	info, err := HDF5().Explore(netcdf.BytesReader(h5Blob(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Vars) != 1 {
		t.Fatalf("vars = %d", len(info.Vars))
	}
	v := info.Vars[0]
	if v.Path != "sim/out/T" {
		t.Fatalf("path = %q, want sim/out/T (group mirror)", v.Path)
	}
	if n := v.Index.Grid.Len(); n != 2 {
		t.Fatalf("chunks = %d, want 2", n)
	}
	if start, extent := v.Index.Grid.Box(1); fmt.Sprint(start, extent) != fmt.Sprint([]int{2, 0}, []int{2, 6}) {
		t.Fatalf("chunk 1 box = %v+%v", start, extent)
	}
}

func TestHDF5ReadSlab(t *testing.T) {
	blob := h5Blob(t)
	raw, err := readSlab(HDF5(), blob, "sim/out/T", []int{1, 0}, []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	got := ioengine.Float32s(raw)
	for i := range got {
		if got[i] != float32(6+i) {
			t.Fatalf("elem %d = %v", i, got[i])
		}
	}
	// A box that cuts the trailing dimension reads the same way: columns
	// 1 and 2 of every row, across both chunks.
	raw, err = readSlab(HDF5(), blob, "sim/out/T", []int{0, 1}, []int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	got = ioengine.Float32s(raw)
	for i := range got {
		if want := float32(i/2*6 + 1 + i%2); got[i] != want {
			t.Fatalf("partial trailing slab elem %d = %v, want %v", i, got[i], want)
		}
	}
	if len(got) != 8 {
		t.Fatalf("partial trailing slab has %d elements, want 8", len(got))
	}
}

// TestHyperslabMatchesNaive: for random shapes, chunkings and boxes, both
// formats' slab reads of the same array agree with a naive index-by-index
// extraction — netcdf chunked in every dimension, hdf5lite by random
// leading-dimension runs, each deflated or stored.
func TestHyperslabMatchesNaive(t *testing.T) {
	type spec struct {
		Shape, Chunk, Start, Count [3]uint8
		Rows                       uint8
		Seed                       int64
		Defl                       uint8
	}
	f := func(s spec) bool {
		shape, chunk, start, count := make([]int, 3), make([]int, 3), make([]int, 3), make([]int, 3)
		for i := range 3 {
			shape[i] = int(s.Shape[i])%7 + 1
			chunk[i] = int(s.Chunk[i])%shape[i] + 1
			start[i] = int(s.Start[i]) % shape[i]
			count[i] = int(s.Count[i])%(shape[i]-start[i]) + 1
		}
		rng := rand.New(rand.NewSource(s.Seed))
		vals := make([]float32, shape[0]*shape[1]*shape[2])
		for i := range vals {
			vals[i] = rng.Float32()
		}
		w := netcdf.NewWriter()
		w.AddDim("z", shape[0])
		w.AddDim("y", shape[1])
		w.AddDim("x", shape[2])
		if err := w.AddVar("v", netcdf.Float32, []string{"z", "y", "x"},
			netcdf.Chunking{Shape: chunk, Deflate: int(s.Defl) % 3}); err != nil {
			t.Log(err)
			return false
		}
		w.PutVarFloat32("v", vals)
		nc, err := w.Bytes()
		if err != nil {
			t.Log(err)
			return false
		}
		hw := hdf5lite.NewWriter()
		if _, err := hw.Root().EnsureGroup("g").AddFloat32("v", shape, int(s.Rows)%(shape[0]+1), int(s.Defl/3)%2, vals); err != nil {
			t.Log(err)
			return false
		}
		h5, err := hw.Bytes()
		if err != nil {
			t.Log(err)
			return false
		}
		for _, c := range []struct {
			format Format
			blob   []byte
			path   string
		}{{NetCDF(), nc, "v"}, {HDF5(), h5, "g/v"}} {
			raw, err := readSlab(c.format, c.blob, c.path, start, count)
			if err != nil {
				t.Logf("%s: %v", c.format.Name(), err)
				return false
			}
			got, i := ioengine.Float32s(raw), 0
			for z := 0; z < count[0]; z++ {
				for y := 0; y < count[1]; y++ {
					for x := 0; x < count[2]; x++ {
						if want := vals[(z+start[0])*shape[1]*shape[2]+(y+start[1])*shape[2]+(x+start[2])]; got[i] != want {
							t.Logf("%s: box %v+%v of %v: elem %d = %v, want %v", c.format.Name(), start, count, shape, i, got[i], want)
							return false
						}
						i++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinPath(t *testing.T) {
	if got := JoinPath("", "a", "", "b"); got != "a/b" {
		t.Fatalf("JoinPath = %q", got)
	}
	if got := JoinPath("", ""); got != "" {
		t.Fatalf("JoinPath empty = %q", got)
	}
}

// TestSegmentsSumToStoredBytes: the chunk boxes an explored grid lists
// partition the variable, so their raw sizes sum to its raw bytes, and
// there is one box for each chunk the file stores.
func TestSegmentsSumToStoredBytes(t *testing.T) {
	for _, blob := range [][]byte{ncBlob(t), h5Blob(t)} {
		reg := Default()
		f, ok := reg.Detect(netcdf.BytesReader(blob))
		if !ok {
			t.Fatal("detect failed")
		}
		info, err := f.Explore(netcdf.BytesReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range info.Vars {
			var raw int64
			g := v.Index.Grid
			for i := range g.Len() {
				_, extent := g.Box(i)
				raw += int64(ioengine.Volume(extent) * v.Index.Type.Size())
			}
			if whole := int64(ioengine.Volume(g.Shape) * v.Index.Type.Size()); raw != whole || g.Len() != 2 && g.Len() != 4 || v.StoredBytes <= 0 {
				t.Fatalf("%s/%s: %d boxes of %d raw bytes, variable %d raw %d stored", info.Format, v.Path, g.Len(), raw, whole, v.StoredBytes)
			}
		}
	}
}

// TestExploreRecordsHeader: Explore records the header it decoded — its
// dialect, its length with the preamble and the CRC-32 of its body — and
// reading the same bytes' header again gives the same record.
func TestExploreRecordsHeader(t *testing.T) {
	for _, c := range []struct {
		format  Format
		dialect string
		blob    []byte
	}{{NetCDF(), "netcdf", ncBlob(t)}, {HDF5(), "hdf5lite", h5Blob(t)}} {
		info, err := c.format.Explore(ioengine.Bytes(c.blob))
		if err != nil {
			t.Fatal(err)
		}
		h := info.Header
		if n := 12 + int64(binary.LittleEndian.Uint64(c.blob[4:])); h.Dialect.Name != c.dialect || h.Bytes != n || h.CRC != crc32.ChecksumIEEE(c.blob[12:n]) {
			t.Fatalf("%s: header %+v, want %s, %d bytes, CRC-32 of the body", c.format.Name(), h, c.dialect, n)
		}
		if _, again, err := h.Dialect.ReadHeader(ioengine.Bytes(c.blob)); err != nil || again != h {
			t.Fatalf("%s: the explored bytes' header read again: %+v, %v", c.format.Name(), again, err)
		}
	}
}

// Formats returns the installed formats in registration order.
func (r *Registry) Formats() []Format { return append([]Format(nil), r.formats...) }
