package scifmt_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"scidp/internal/hdf5lite"
	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/scifmt"
)

// The byte-identity pins: one fixed input per dialect and layout, the
// SHA-256 of what the writer emits for it and of what Explore says of
// those bytes. The byte hashes were recorded on 94b6f68, before the three
// formats shared one chunk container, so "file bytes do not move" is held
// by `go test` and not only by `make identical`. The Info hashes were
// re-recorded once, when VarEntry's Shape and per-chunk segment list
// became its chunk Grid (every Grid.Box(i) equal to the segment's start
// and extent).

// pinVals is the payload every pinned file stores: n values with a fill
// (NaN) every 11th, so the zone maps carry a Fill count.
func pinVals(n int) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)/7.0) * 100)
		if i%11 == 3 {
			vals[i] = float32(math.NaN())
		}
	}
	return vals
}

type pinLayout struct {
	name    string
	chunked bool
	deflate int
}

var pinLayouts = []pinLayout{
	{name: "chunked+deflated+stats", chunked: true, deflate: 4},
	{name: "contiguous+stored"},
}

func pinNetCDF(t testing.TB, l pinLayout) []byte {
	w := netcdf.NewWriter()
	for _, d := range []struct {
		n string
		l int
	}{{"level", 5}, {"lat", 6}, {"lon", 7}} {
		if err := w.AddDim(d.n, d.l); err != nil {
			t.Fatal(err)
		}
	}
	w.GlobalAttr(netcdf.StringAttr("model", "NU-WRF"))
	w.GlobalAttr(netcdf.Int64Attr("timestamp", 42))
	w.GlobalAttr(netcdf.Float64Attr("dx", 0.25))
	var ck3, ck2 netcdf.Chunking
	if l.chunked {
		// Edge chunks are partial on every axis.
		ck3 = netcdf.Chunking{Shape: []int{2, 4, 5}, Deflate: l.deflate}
		ck2 = netcdf.Chunking{Shape: []int{4, 4}}
	}
	if err := w.AddVar("QR", netcdf.Float32, []string{"level", "lat", "lon"}, ck3, netcdf.StringAttr("units", "kg/kg")); err != nil {
		t.Fatal(err)
	}
	if err := w.AddVar("MASK", netcdf.Int32, []string{"lat", "lon"}, ck2); err != nil {
		t.Fatal(err)
	}
	if err := w.AddVar("H", netcdf.Float64, []string{"level"}, netcdf.Chunking{Deflate: l.deflate}); err != nil {
		t.Fatal(err)
	}
	if err := w.PutVarFloat32("QR", pinVals(5*6*7)); err != nil {
		t.Fatal(err)
	}
	mask := make([]int32, 6*7)
	for i := range mask {
		mask[i] = int32(i*i%17 - 8)
	}
	if err := w.PutVarInt32("MASK", mask); err != nil {
		t.Fatal(err)
	}
	if err := w.PutVarFloat64("H", []float64{0.5, 1.5, math.NaN(), -3, 1e300}); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func pinHDF5(t testing.TB, l pinLayout) []byte {
	w := hdf5lite.NewWriter()
	w.Root().Attrs["model"] = "NU-WRF"
	w.Root().Attrs["conventions"] = "CF-1.6"
	rows := 0
	if l.chunked {
		rows = 4 // 10 rows: the last chunk is partial
	}
	g := w.Root().EnsureGroup("model/physics")
	g.Attrs["scheme"] = "goddard"
	if _, err := g.AddFloat32("QR", []int{10, 3, 4}, rows, l.deflate, pinVals(10*3*4)); err != nil {
		t.Fatal(err)
	}
	ids := make([]int32, 9)
	for i := range ids {
		ids[i] = int32(100 - 7*i)
	}
	if _, err := w.Root().EnsureGroup("model").AddInt32("ids", []int{9}, rows, 0, ids); err != nil {
		t.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

type pin struct {
	name   string
	format scifmt.Format
	blob   []byte
}

// pins writes every pinned file: each layout in both dialects.
func pins(t testing.TB) []pin {
	var out []pin
	for _, l := range pinLayouts {
		out = append(out,
			pin{name: "netcdf/" + l.name, format: scifmt.NetCDF(), blob: pinNetCDF(t, l)},
			pin{name: "hdf5/" + l.name, format: scifmt.HDF5(), blob: pinHDF5(t, l)})
	}
	return out
}

func TestByteIdentityPins(t *testing.T) {
	for _, p := range pins(t) {
		info, err := p.format.Explore(ioengine.Bytes(p.blob))
		if err != nil {
			t.Fatalf("%s: Explore: %v", p.name, err)
		}
		got := [2]string{
			fmt.Sprintf("%x", sha256.Sum256(p.blob)),
			fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", pinned(info))))),
		}
		if got != recordedPins[p.name] {
			t.Errorf("%q: {%q, %q},", p.name, got[0], got[1])
		}
	}
}

// TestPinnedZoneMapsSummarizePayloads: every chunk of every pinned file
// carries, in its Stats, the zone map of its own decoded payload.
func TestPinnedZoneMapsSummarizePayloads(t *testing.T) {
	for _, p := range pins(t) {
		info, err := p.format.Explore(ioengine.Bytes(p.blob))
		if err != nil {
			t.Fatalf("%s: Explore: %v", p.name, err)
		}
		for _, v := range info.Vars {
			x := v.Index
			x.Src = ioengine.Bytes(p.blob) // Explore hands the index over without its source
			for j, c := range x.Chunks {
				pl, err := x.Read(j)
				if err != nil {
					t.Fatalf("%s %s chunk %d: %v", p.name, v.Path, j, err)
				}
				raw, err := pl.Bytes()
				if err != nil {
					t.Fatalf("%s %s chunk %d: %v", p.name, v.Path, j, err)
				}
				want := ioengine.SummarizeChunk(len(raw)/x.Type.Size(), func(i int) float64 { return x.Type.Float64At(raw, i) })
				if c.Stats != want {
					t.Errorf("%s %s chunk %d: stats %+v, payload summarises to %+v", p.name, v.Path, j, c.Stats, want)
				}
			}
		}
	}
}

// pinnedInfo is Info as its hashes were recorded, field for field, so
// they still pin what Explore says: each variable's element size, Grid and
// raw size as its chunk index carries them now. The index's chunk records are
// pinned by the file bytes and by every read test, and Header is held by
// TestExploreRecordsHeader.
type pinnedInfo struct {
	Format string
	Attrs  map[string]string
	Vars   []pinnedVar
}

type pinnedVar struct {
	Path                  string
	TypeName              string
	ElemSize              int
	DimNames              []string
	Grid                  ioengine.Grid
	RawBytes, StoredBytes int64
}

func pinned(info *scifmt.Info) pinnedInfo {
	out := pinnedInfo{Format: info.Format, Attrs: info.Attrs}
	for _, v := range info.Vars {
		out.Vars = append(out.Vars, pinnedVar{Path: v.Path, TypeName: v.TypeName, ElemSize: v.Index.Type.Size(),
			DimNames: v.DimNames, Grid: v.Index.Grid, RawBytes: int64(ioengine.Volume(v.Index.Grid.Shape) * v.Index.Type.Size()),
			StoredBytes: v.StoredBytes})
	}
	return out
}

// recordedPins maps a pinned file to the SHA-256 of its bytes, as the
// parent of the chunk-container refactor wrote them, and of its explored
// Info.
var recordedPins = map[string][2]string{
	"netcdf/chunked+deflated+stats": {"6b038e4adb97331fda16d64daae9a3d10c1f04d0de3cbab969de406fa860b714", "5c83a30fe0f9d9de437f2e8207e36ce330d3e6490474e7043cfe11587d711e1c"},
	"hdf5/chunked+deflated+stats":   {"b8ed696883bd1ce2a4257a5e53fb25281de9fba339ca2c561ce8e840be183c3e", "20197a896c957200a106b3d4ba27029690f690022389b748022369ac6943e2ca"},
	"netcdf/contiguous+stored":      {"268dddb8026ded6b710cadfdc28c8251b5213581d06229f3268b63ced113511e", "3b9d1068f3935124569035f1cc0e88397529d8194118b47af73c8b45160ce4df"},
	"hdf5/contiguous+stored":        {"8073d11aca73ec0b905a1d64f23a310421eb72b54550e206b51fde8938556f91", "cf519a17c12d1e5198a4ec1febc2d76eb0b15c9bc16194bcfa37a9142c0eb431"},
}
