package rsql

import (
	"math"
	"testing"

	"scidp/internal/rframe"
)

// benchVals is the value field of one scidp-anlys map task's grid, at
// side 40: 10 × side × side float32 cells with ties.
func benchVals(side int) []float32 {
	vals := make([]float32, 10*side*side)
	for i := range vals {
		vals[i] = float32(math.Round(1e3*math.Sin(float64(i)*0.37))) / 8
	}
	return vals
}

// benchGrid is benchVals as a tidy frame, level/lat/lon/value/t: what
// Slab.Frame gives a user, and the reference QueryChunk is held to.
func benchGrid(tb testing.TB, side int) map[string]*rframe.Frame {
	tb.Helper()
	df, err := rframe.FromArray3D([3]string{"level", "lat", "lon"}, [3]int{}, [3]int{10, side, side}, benchVals(side), "value")
	if err != nil {
		tb.Fatal(err)
	}
	df.MustAddInt("t", make([]int64, df.NumRows()))
	return map[string]*rframe.Frame{"df": df}
}

var benchQueries = []struct{ name, sql string }{
	{"top1pct", "SELECT t, level, lat, lon, value FROM df ORDER BY value DESC LIMIT 160"},
	{"top10", "SELECT level, lat, lon, value FROM df ORDER BY value DESC LIMIT 10"},
	{"where", "SELECT lat, lon, value * 2 AS twice FROM df WHERE value > 100 AND level < 5 OR lat = lon"},
	{"project", "SELECT value AS v, lat FROM df"},
	{"groupby", "SELECT level, COUNT(*) AS n, AVG(value) AS mean, MAX(value) AS peak FROM df GROUP BY level ORDER BY peak DESC"},
}

var benchFrame *rframe.Frame

// BenchmarkQuery runs the analysis queries over benchGrid's 16 000-row
// frame, already built.
func BenchmarkQuery(b *testing.B) {
	tables := benchGrid(b, 40)
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Query(tables, q.sql)
				if err != nil {
					b.Fatal(err)
				}
				benchFrame = out
			}
		})
	}
}

// gridChunk is benchVals read in place, as the map-side analysis reads
// its grid: coordinates from the row index, t a constant 0, the value
// the float32 payload's. Its columns come in benchGrid's order.
type gridChunk struct {
	side int
	vals []float32
}

var gridChunkCols = []ColumnInfo{
	{Name: "level", Int: true}, {Name: "lat", Int: true}, {Name: "lon", Int: true},
	{Name: "value"}, {Name: "t", Int: true},
}

func (g gridChunk) NumRows() int { return len(g.vals) }

func (g gridChunk) Col(name string) (func(int) float64, error) {
	switch name {
	case "level":
		return func(r int) float64 { return float64(r / (g.side * g.side)) }, nil
	case "lat":
		return func(r int) float64 { return float64(r / g.side % g.side) }, nil
	case "lon":
		return func(r int) float64 { return float64(r % g.side) }, nil
	case "value":
		return func(r int) float64 { return float64(g.vals[r]) }, nil
	case "t":
		return func(int) float64 { return 0 }, nil
	}
	return nil, errNoCol
}

// BenchmarkQueryChunk runs the map-side analysis queries over the same
// 16 000 cells read in place: no frame of the grid is built.
func BenchmarkQueryChunk(b *testing.B) {
	g := gridChunk{side: 40, vals: benchVals(40)}
	for _, q := range benchQueries[:2] {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := QueryChunk(g, gridChunkCols, q.sql)
				if err != nil {
					b.Fatal(err)
				}
				benchFrame = out
			}
		})
	}
}
