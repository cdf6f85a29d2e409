package solutions

import (
	"bytes"
	"math"
	"testing"

	"scidp/internal/rframe"
	"scidp/internal/rsql"
)

// gridFrameOf is the tidy frame the analysis SQL once ran over, built in
// full: the grid through FromArray3D plus a constant t column.
func gridFrameOf(t testing.TB, g *grid) map[string]*rframe.Frame {
	t.Helper()
	df, err := rframe.FromArray3D([3]string{"level", "lat", "lon"}, [3]int{g.levelOrigin, 0, 0},
		[3]int{g.levels, g.ny, g.nx}, g.vals, "value")
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]int64, df.NumRows())
	for i := range ts {
		ts[i] = int64(g.t)
	}
	return map[string]*rframe.Frame{"df": df.MustAddInt("t", ts)}
}

// anlysGrid is the 10 × side × side grid a scidp-anlys map task analyses,
// its float32 values with ties.
func anlysGrid(side int) *grid {
	g := &grid{t: 2, levels: 10, ny: side, nx: side}
	g.vals = make([]float32, g.levels*g.ny*g.nx)
	for i := range g.vals {
		g.vals[i] = float32(math.Round(1e3*math.Sin(float64(i)*0.37))) / 8
	}
	return g
}

// TestGridQueryMatchesFrame: the highlight and top-1 % queries read over
// the grid in place answer byte for byte what they answered over the
// grid's frame — on an offset level range, a non-square level, ties, NaN
// and both infinities.
func TestGridQueryMatchesFrame(t *testing.T) {
	odd := &grid{t: 7, levelOrigin: 3, levels: 4, ny: 5, nx: 9}
	odd.vals = make([]float32, odd.levels*odd.ny*odd.nx)
	for i := range odd.vals {
		odd.vals[i] = float32(i % 13) // every value tied a dozen times
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for i, v := range []float32{nan, inf, -inf, inf, nan, 12, -inf} {
		odd.vals[i*23] = v
	}
	for _, g := range []*grid{odd, anlysGrid(40)} {
		for _, sql := range []string{highlightSQL, top1PctSQL(g.NumRows()), "SELECT * FROM df ORDER BY value LIMIT 50"} {
			want, err := rsql.Query(gridFrameOf(t, g), sql)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rsql.QueryChunk(g, gridCols, sql)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.WriteCSV(), want.WriteCSV()) {
				t.Errorf("%dx%dx%d grid, %s: in place\n%s\nframe\n%s", g.levels, g.ny, g.nx, sql, got.WriteCSV(), want.WriteCSV())
			}
		}
	}
}
