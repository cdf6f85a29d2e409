package scifmt

import (
	"fmt"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
)

// nuwrfBlob is one timestamp of the benchmark's NU-WRF files: 23 float32
// variables of 10 × 40 × 40 with a units attribute, one deflated chunk per
// level, zone maps on.
func nuwrfBlob(b *testing.B) []byte {
	w := netcdf.NewWriter()
	w.AddDim("level", 10)
	w.AddDim("lat", 40)
	w.AddDim("lon", 40)
	w.GlobalAttr(netcdf.StringAttr("model", "NU-WRF"))
	w.GlobalAttr(netcdf.Int64Attr("timestamp", 0))
	vals := make([]float32, 10*40*40)
	for v := range 23 {
		name := fmt.Sprintf("VAR%02d", v)
		if err := w.AddVar(name, netcdf.Float32, []string{"level", "lat", "lon"},
			netcdf.Chunking{Shape: []int{1, 40, 40}, Deflate: 1}, netcdf.StringAttr("units", "kg/kg")); err != nil {
			b.Fatal(err)
		}
		for i := range vals {
			vals[i] = float32((i + v) % 97)
		}
		if err := w.PutVarFloat32(name, vals); err != nil {
			b.Fatal(err)
		}
	}
	blob, err := w.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	return blob
}

var exploreSink *Info

// BenchmarkExplore is the File Explorer's cost per input file: one
// Explore of a 23-variable NU-WRF-shaped file, which decodes its header
// and builds every variable's entry.
func BenchmarkExplore(b *testing.B) {
	blob, f := nuwrfBlob(b), NetCDF()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		info, err := f.Explore(ioengine.Bytes(blob))
		if err != nil {
			b.Fatal(err)
		}
		exploreSink = info
	}
}
