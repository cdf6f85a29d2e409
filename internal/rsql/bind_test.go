package rsql

import (
	"strings"
	"testing"

	"scidp/internal/rframe"
)

// dataIndependentErrors all succeeded on the parent, whose checks ran per
// row and so never ran when no row survived the filter: the first returned
// an empty frame with a column called nope.
var dataIndependentErrors = []string{
	"SELECT nope FROM df WHERE value > 1000",
	"SELECT FOO(value) FROM df WHERE 1 = 0",
	"SELECT value FROM df WHERE 1 = 0 ORDER BY nope",
	"SELECT value FROM df WHERE 1 = 0 AND name < 3",
	"SELECT ABS(value, lat) FROM df WHERE 1 = 0",
	"SELECT value + 'a' FROM df WHERE 1 = 0",
	"SELECT SUM(nope) FROM df WHERE 1 = 0",
	"SELECT value FROM df WHERE 1 = 0 AND SUM(value) > 1",
	"SELECT lat, COUNT(*) FROM df WHERE 1 = 0 GROUP BY lat ORDER BY ghost",
}

// TestErrorsDoNotDependOnData: whether a query is valid is decided at bind,
// so it is the same over the grid, over a frame of the same columns with
// no rows, and when WHERE 1 = 0 lets no row through.
func TestErrorsDoNotDependOnData(t *testing.T) {
	full := grid(t)
	empty := map[string]*rframe.Frame{"df": full["df"].Head(0)}
	for _, sql := range append(append([]string{}, errorCases...), dataIndependentErrors...) {
		variants := []string{sql}
		if !strings.Contains(sql, "WHERE") {
			variants = append(variants, strings.Replace(sql, "FROM df", "FROM df WHERE 1 = 0", 1))
		}
		for _, v := range variants {
			for name, tables := range map[string]map[string]*rframe.Frame{"grid": full, "zero rows": empty} {
				if _, err := Query(tables, v); err == nil {
					t.Errorf("%s: query %q should fail", name, v)
				}
			}
		}
	}
	// And a valid query stays valid over no rows.
	for _, sql := range []string{
		"SELECT value * 2 AS v, lat FROM df WHERE value > 1 ORDER BY v DESC LIMIT 3",
		"SELECT lat, SUM(value) AS s FROM df GROUP BY lat ORDER BY s",
		"SELECT COUNT(*), AVG(value) FROM df",
		"SELECT * FROM df ORDER BY lon DESC",
	} {
		if _, err := Query(empty, sql); err != nil {
			t.Errorf("zero rows: %q: %v", sql, err)
		}
	}
}

// TestQueryAndCompileArrayRejectSame: the frame executor and the pushdown
// compiler reject the same name, function, arity and ORDER BY errors — on
// the parent Query accepted all of them over an empty selection and
// CompileArray never looked at ORDER BY or counted arguments.
func TestQueryAndCompileArrayRejectSame(t *testing.T) {
	cols := []ColumnInfo{{Name: "level", Int: true}, {Name: "lat", Int: true}, {Name: "value"}}
	frame := newFakeTable(2).legacyFrame()
	for _, tables := range []map[string]*rframe.Frame{{"t": frame}, {"t": frame.Head(0)}} {
		for sql, valid := range map[string]bool{
			"SELECT nope FROM t":                                                     false,
			"SELECT value FROM t WHERE nope > 1":                                     false,
			"SELECT FOO(value) FROM t":                                               false,
			"SELECT value FROM t WHERE FOO(value) > 1":                               false,
			"SELECT ABS(value, level) FROM t":                                        false,
			"SELECT ABS() FROM t":                                                    false,
			"SELECT ABS(*) FROM t":                                                   false,
			"SELECT SUM(value, level) FROM t":                                        false,
			"SELECT SUM() FROM t":                                                    false,
			"SELECT SUM(*) FROM t":                                                   false,
			"SELECT SQRT(), COUNT(*) FROM t":                                         false,
			"SELECT SUM(SUM(value)) FROM t":                                          false,
			"SELECT value FROM t GROUP BY nope":                                      false,
			"SELECT value FROM t ORDER BY nope":                                      false,
			"SELECT value AS v FROM t ORDER BY value":                                false,
			"SELECT level, SUM(value) FROM t GROUP BY level ORDER BY SUM(value)":     false,
			"SELECT level, SUM(value) FROM t GROUP BY level ORDER BY value":          false,
			"SELECT value FROM t ORDER BY FOO(value)":                                false,
			"SELECT *, COUNT(*) FROM t":                                              false,
			"SELECT value FROM t WHERE SUM(value) > 1":                               false,
			"SELECT level, level FROM t":                                             false,
			"SELECT *, value FROM t":                                                 false,
			"SELECT value AS v FROM t ORDER BY v DESC, ABS(v)":                       true,
			"SELECT * FROM t ORDER BY level DESC, lat LIMIT 3":                       true,
			"SELECT level, SUM(value) FROM t GROUP BY level ORDER BY sum DESC":       true,
			"SELECT COUNT(*), COUNT(value) AS n, ABS(MIN(value)) FROM t WHERE 1 = 0": true,
		} {
			_, qerr := Query(tables, sql)
			_, cerr := CompileArray(sql, cols)
			if (qerr == nil) != valid || (cerr == nil) != valid {
				t.Errorf("%q (%d rows): Query: %v; CompileArray: %v; want valid = %v", sql, tables["t"].NumRows(), qerr, cerr, valid)
			}
		}
	}
}

// TestStringsNeedStringOperators: an expression's type is static, so a
// string where a number is needed is an error at bind — legacy read such a
// string as 0, or as false, row by row.
func TestStringsNeedStringOperators(t *testing.T) {
	tables := map[string]*rframe.Frame{"t": rframe.New().MustAddString("s", []string{"a", "b"}).MustAddFloat("x", []float64{1, 2})}
	for _, sql := range []string{
		"SELECT -s FROM t", "SELECT NOT s FROM t", "SELECT ABS(s) FROM t", "SELECT x FROM t WHERE s",
		"SELECT x FROM t WHERE s AND x > 1", "SELECT s AND s FROM t", "SELECT SUM(s) FROM t", "SELECT MIN(s) FROM t",
		"SELECT s = 1 FROM t", "SELECT s, COUNT(*) FROM t",
	} {
		if _, err := Query(tables, sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
	out := q(t, tables, "SELECT s, COUNT(s) AS n, COUNT(*) AS m FROM t GROUP BY s ORDER BY s DESC")
	if out.Col("s").S[0] != "b" || out.Col("n").F[0] != 1 {
		t.Fatalf("grouped strings: %s", out.WriteCSV())
	}
}

// TestBareColumnsShareStorage: with nothing to filter or order, a bare
// Float or String column of the result is the source's slice.
func TestBareColumnsShareStorage(t *testing.T) {
	src := rframe.New().MustAddFloat("x", []float64{1, 2, 3}).MustAddString("s", []string{"a", "b", "c"}).MustAddInt("i", []int64{7, 8, 9})
	tables := map[string]*rframe.Frame{"t": src}
	out := q(t, tables, "SELECT x AS renamed, s, i FROM t")
	if &out.Col("renamed").F[0] != &src.Col("x").F[0] || &out.Col("s").S[0] != &src.Col("s").S[0] {
		t.Error("bare columns were copied")
	}
	if c := out.Col("i"); c.Kind != rframe.Float || c.F[2] != 9 {
		t.Errorf("a named Int column comes out Float: %+v", c)
	}
	star := q(t, tables, "SELECT * FROM t")
	if star.Col("i") != src.Col("i") {
		t.Error("SELECT * copied a column")
	}
	// Anything that selects rows copies them.
	for _, sql := range []string{"SELECT x FROM t WHERE x > 0", "SELECT x FROM t ORDER BY x", "SELECT x FROM t LIMIT 2"} {
		if got := q(t, tables, sql).Col("x").F; &got[0] == &src.Col("x").F[0] {
			t.Errorf("%q shares storage", sql)
		}
	}
}
