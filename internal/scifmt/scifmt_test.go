package scifmt

import (
	"testing"

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
	if v.TypeName != "float" || v.ElemSize != 4 {
		t.Fatalf("var = %+v", v)
	}
	if len(v.Segments) != 4 {
		t.Fatalf("segments = %d, want 4 (one per level)", len(v.Segments))
	}
	for i, s := range v.Segments {
		if s.Start[0] != i || s.Extent[0] != 1 || s.Extent[1] != 3 || s.Extent[2] != 3 {
			t.Fatalf("segment %d box = %v+%v", i, s.Start, s.Extent)
		}
		if s.RawSize != 36 {
			t.Fatalf("segment %d raw = %d, want 36", i, s.RawSize)
		}
	}
	if v.RawBytes != 4*36 {
		t.Fatalf("RawBytes = %d", v.RawBytes)
	}
	if v.StoredBytes <= 0 || v.StoredBytes >= v.RawBytes*2 {
		t.Fatalf("StoredBytes = %d", v.StoredBytes)
	}
	if _, err := info.Var("missing"); err == nil {
		t.Fatal("missing var should error")
	}
}

func TestNetCDFReadSlab(t *testing.T) {
	blob := ncBlob(t)
	raw, err := NetCDF().ReadSlab(netcdf.BytesReader(blob), "QR", []int{2, 0, 0}, []int{1, 3, 3})
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
	if len(v.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(v.Segments))
	}
	if v.Segments[1].Start[0] != 2 || v.Segments[1].Extent[0] != 2 {
		t.Fatalf("segment 1 box = %v+%v", v.Segments[1].Start, v.Segments[1].Extent)
	}
}

func TestHDF5ReadSlab(t *testing.T) {
	blob := h5Blob(t)
	raw, err := HDF5().ReadSlab(netcdf.BytesReader(blob), "sim/out/T", []int{1, 0}, []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	got := ioengine.Float32s(raw)
	for i := range got {
		if got[i] != float32(6+i) {
			t.Fatalf("elem %d = %v", i, got[i])
		}
	}
	// Trailing-dimension sub-slabs are not supported by the row-chunked
	// format and must be rejected, not silently wrong.
	if _, err := HDF5().ReadSlab(netcdf.BytesReader(blob), "sim/out/T", []int{0, 1}, []int{4, 2}); err == nil {
		t.Fatal("partial trailing slab should be rejected")
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
			var stored, raw int64
			for _, s := range v.Segments {
				stored += s.StoredSize
				raw += s.RawSize
			}
			if stored != v.StoredBytes || raw != v.RawBytes {
				t.Fatalf("%s/%s: segment sums %d/%d != %d/%d", info.Format, v.Path, stored, raw, v.StoredBytes, v.RawBytes)
			}
		}
	}
}

// Formats returns the installed formats in registration order.
func (r *Registry) Formats() []Format { return append([]Format(nil), r.formats...) }
