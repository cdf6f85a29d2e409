package rsql

import (
	"math"
	"testing"

	"scidp/internal/rframe"
)

// benchGrid is the frame one scidp-anlys map task queries, at side 40:
// 10 × side × side cells as t/level/lat/lon/value, the value a float32
// field with ties.
func benchGrid(tb testing.TB, side int) map[string]*rframe.Frame {
	tb.Helper()
	vals := make([]float32, 10*side*side)
	for i := range vals {
		vals[i] = float32(math.Round(1e3*math.Sin(float64(i)*0.37))) / 8
	}
	df, err := rframe.FromArray3D([3]string{"level", "lat", "lon"}, [3]int{}, [3]int{10, side, side}, vals, "value")
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

// BenchmarkQuery runs the analysis queries over the 16 000-row frame the
// benchmark's scidp-anlys workload builds per map task.
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
