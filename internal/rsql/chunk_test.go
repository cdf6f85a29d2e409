package rsql

import (
	"bytes"
	"testing"
)

// TestQueryChunkMatchesQuery: a query over a chunk read in place answers
// what Query answers over a frame of the same values, column kinds and
// row order included, and fails with the same error.
func TestQueryChunkMatchesQuery(t *testing.T) {
	tables := benchGrid(t, 20)
	g := gridChunk{side: 20, vals: benchVals(20)}
	sqls := []string{"SELECT * FROM df", "SELECT * FROM df WHERE value > 100 ORDER BY value DESC, lat LIMIT 7"}
	for _, q := range benchQueries {
		sqls = append(sqls, q.sql)
	}
	for _, sql := range sqls {
		want, err := Query(tables, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got, err := QueryChunk(g, gridChunkCols, sql)
		if err != nil {
			t.Fatalf("%s: chunk: %v", sql, err)
		}
		if !bytes.Equal(got.WriteCSV(), want.WriteCSV()) {
			t.Errorf("%s: chunk answer differs from the frame's", sql)
		}
		for _, c := range want.Columns() {
			if gc := got.Col(c.Name); gc == nil || gc.Kind != c.Kind {
				t.Errorf("%s: column %s is %v, the frame's is kind %v", sql, c.Name, gc, c.Kind)
			}
		}
	}
	for _, sql := range []string{
		"SELECT nope FROM df",
		"SELECT value FROM df WHERE nope > 1",
		"SELECT value FROM df ORDER BY lat",
		"SELECT COUNT(*) FROM df GROUP BY nope",
		"SELECT *, COUNT(*) AS n FROM df GROUP BY level",
		"SELECT level, SUM(value) AS s FROM df GROUP BY lon, nope",
		"SELECT value FROM",
	} {
		_, want := Query(tables, sql)
		_, got := QueryChunk(g, gridChunkCols, sql)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: chunk error %v, frame error %v", sql, got, want)
		}
	}
}
