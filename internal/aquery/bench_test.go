package aquery

import (
	"math"
	"testing"

	"scidp/internal/netcdf"
	"scidp/internal/rframe"
	"scidp/internal/rsql"
)

// benchTable is a netcdf variable of ten 96 × 96 levels, one deflated
// chunk a level with its zone map, opened from memory: what a query costs
// here is header work, inflate and the executor — no simulated I/O.
func benchTable(b *testing.B) *Table {
	b.Helper()
	const levels, side = 10, 96
	w := netcdf.NewWriter()
	w.AddDim("level", levels)
	w.AddDim("lat", side)
	w.AddDim("lon", side)
	if err := w.AddVar("QR", netcdf.Float32, []string{"level", "lat", "lon"}, netcdf.Chunking{Shape: []int{1, side, side}, Deflate: 1}); err != nil {
		b.Fatal(err)
	}
	vals := make([]float32, levels*side*side)
	for i := range vals {
		vals[i] = float32(math.Round(1e3*math.Sin(float64(i)*0.37)))/8 + float32(i/(side*side))
	}
	if err := w.PutVarFloat32("QR", vals); err != nil {
		b.Fatal(err)
	}
	blob, err := w.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	f, err := netcdf.Open(netcdf.BytesReader(blob))
	if err != nil {
		b.Fatal(err)
	}
	tab, err := NewNetCDF(f, "QR")
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

var benchOut *rframe.Frame

// BenchmarkQueryArrays runs the array path end to end — compile, prune,
// inflate, scan every surviving chunk, merge — for the four query shapes:
// a top-k over everything, a range the zone maps and coordinates narrow to
// three chunks, a GROUP BY, and a global aggregate.
func BenchmarkQueryArrays(b *testing.B) {
	tables := map[string]rsql.ArrayTable{"qr": benchTable(b)}
	for _, q := range []struct{ name, sql string }{
		{"topk", "SELECT level, lat, lon, value FROM qr ORDER BY value DESC LIMIT 100"},
		{"range", "SELECT lat, lon, value * 2 AS twice FROM qr WHERE level >= 3 AND level < 6 AND value > 100"},
		{"groupby", "SELECT level, COUNT(*) AS n, AVG(value) AS mean, MAX(value) AS peak FROM qr WHERE lat < 48 GROUP BY level ORDER BY peak DESC"},
		{"global", "SELECT COUNT(*), SUM(value), MIN(value), MAX(value) FROM qr WHERE value > 0"},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _, err := rsql.QueryArrays(tables, q.sql, rsql.ArrayQueryOpts{})
				if err != nil {
					b.Fatal(err)
				}
				benchOut = out
			}
		})
	}
}

// BenchmarkScanChunk is the per-chunk share of that: one decoded 96 × 96
// chunk through ScanChunk, filter and projection, with nothing read,
// inflated or merged inside the loop.
func BenchmarkScanChunk(b *testing.B) {
	tab := benchTable(b)
	pl, err := rsql.CompileArray("SELECT lat, lon, value * 2 AS twice FROM qr WHERE value > 100 AND lat < 48", tab.Columns())
	if err != nil {
		b.Fatal(err)
	}
	ch, err := tab.Read(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part, err := pl.ScanChunk(ch)
		if err != nil || part.Rows() == 0 {
			b.Fatal(part, err)
		}
	}
}
