package rsql

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"scidp/internal/rframe"
)

func grid(t *testing.T) map[string]*rframe.Frame {
	t.Helper()
	// 12 cells: lat 0..2, lon 0..3, value = lat*10 + lon.
	var lat, lon []int64
	var val []float64
	for a := int64(0); a < 3; a++ {
		for b := int64(0); b < 4; b++ {
			lat = append(lat, a)
			lon = append(lon, b)
			val = append(val, float64(a*10+b))
		}
	}
	f := rframe.New().MustAddInt("lat", lat).MustAddInt("lon", lon).MustAddFloat("value", val)
	return map[string]*rframe.Frame{"df": f}
}

func q(t *testing.T, tables map[string]*rframe.Frame, sql string) *rframe.Frame {
	t.Helper()
	out, err := Query(tables, sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return out
}

func TestSelectStar(t *testing.T) {
	out := q(t, grid(t), "SELECT * FROM df")
	if out.NumRows() != 12 || out.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", out.NumRows(), out.NumCols())
	}
}

func TestWhereFilter(t *testing.T) {
	out := q(t, grid(t), "SELECT * FROM df WHERE value >= 20 AND lon < 2")
	if out.NumRows() != 2 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Col("lat").I[i] != 2 {
			t.Fatalf("row %d lat = %d", i, out.Col("lat").I[i])
		}
	}
}

func TestProjectionAndAlias(t *testing.T) {
	out := q(t, grid(t), "SELECT value * 2 AS double, lat FROM df WHERE lat = 1")
	if out.NumCols() != 2 || out.Names()[0] != "double" {
		t.Fatalf("names = %v", out.Names())
	}
	if out.Col("double").F[0] != 20 {
		t.Fatalf("double[0] = %v", out.Col("double").F[0])
	}
}

func TestOrderByDescLimit(t *testing.T) {
	out := q(t, grid(t), "SELECT value FROM df ORDER BY value DESC LIMIT 3")
	want := []float64{23, 22, 21}
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	for i, w := range want {
		if out.Col("value").F[i] != w {
			t.Fatalf("row %d = %v, want %v", i, out.Col("value").F[i], w)
		}
	}
}

func TestOrderByMultiKey(t *testing.T) {
	out := q(t, grid(t), "SELECT lat, lon FROM df ORDER BY lat DESC, lon ASC LIMIT 2")
	if out.Col("lat").F[0] != 2 || out.Col("lon").F[0] != 0 {
		t.Fatalf("first row = %v,%v", out.Col("lat").F[0], out.Col("lon").F[0])
	}
	if out.Col("lon").F[1] != 1 {
		t.Fatalf("second lon = %v", out.Col("lon").F[1])
	}
}

func TestGlobalAggregates(t *testing.T) {
	out := q(t, grid(t), "SELECT COUNT(*), SUM(value), AVG(value), MIN(value), MAX(value) FROM df")
	if out.NumRows() != 1 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if out.Col("count").F[0] != 12 {
		t.Fatalf("count = %v", out.Col("count").F[0])
	}
	if out.Col("sum").F[0] != 138 {
		t.Fatalf("sum = %v", out.Col("sum").F[0])
	}
	if math.Abs(out.Col("avg").F[0]-11.5) > 1e-12 {
		t.Fatalf("avg = %v", out.Col("avg").F[0])
	}
	if out.Col("min").F[0] != 0 || out.Col("max").F[0] != 23 {
		t.Fatalf("min/max = %v/%v", out.Col("min").F[0], out.Col("max").F[0])
	}
}

func TestGroupBy(t *testing.T) {
	out := q(t, grid(t), "SELECT lat, SUM(value) AS total FROM df GROUP BY lat ORDER BY lat")
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	want := []float64{6, 46, 86}
	for i, w := range want {
		if out.Col("total").F[i] != w {
			t.Fatalf("group %d total = %v, want %v", i, out.Col("total").F[i], w)
		}
	}
}

func TestGroupByWithWhereAndHavingViaWhere(t *testing.T) {
	out := q(t, grid(t), "SELECT lat, COUNT(*) AS n FROM df WHERE lon >= 2 GROUP BY lat")
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	for i := 0; i < 3; i++ {
		if out.Col("n").F[i] != 2 {
			t.Fatalf("group %d n = %v", i, out.Col("n").F[i])
		}
	}
}

func TestScalarFunctions(t *testing.T) {
	tables := map[string]*rframe.Frame{
		"t": rframe.New().MustAddFloat("x", []float64{-4, 9}),
	}
	out := q(t, tables, "SELECT ABS(x) AS a, SQRT(ABS(x)) AS s FROM t")
	if out.Col("a").F[0] != 4 || out.Col("s").F[1] != 3 {
		t.Fatalf("a=%v s=%v", out.Col("a").F, out.Col("s").F)
	}
}

func TestStringComparison(t *testing.T) {
	tables := map[string]*rframe.Frame{
		"t": rframe.New().MustAddString("name", []string{"alice", "bob", "carol"}).
			MustAddFloat("score", []float64{3, 1, 2}),
	}
	out := q(t, tables, "SELECT name FROM t WHERE name <> 'bob' ORDER BY name DESC")
	if out.NumRows() != 2 || out.Col("name").S[0] != "carol" {
		t.Fatalf("out = %v", out.Col("name").S)
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	tables := map[string]*rframe.Frame{"t": rframe.New().MustAddFloat("x", []float64{10})}
	out := q(t, tables, "SELECT 2 + 3 * x - 4 / 2 AS r, -x AS neg, (2+3) * 2 AS paren FROM t")
	if out.Col("r").F[0] != 30 {
		t.Fatalf("r = %v", out.Col("r").F[0])
	}
	if out.Col("neg").F[0] != -10 {
		t.Fatalf("neg = %v", out.Col("neg").F[0])
	}
	if out.Col("paren").F[0] != 10 {
		t.Fatalf("paren = %v", out.Col("paren").F[0])
	}
}

func TestNotAndOrPrecedence(t *testing.T) {
	out := q(t, grid(t), "SELECT value FROM df WHERE NOT lat = 0 AND lon = 0 OR value = 3")
	// (NOT lat=0 AND lon=0) OR value=3 -> rows: (1,0)=10, (2,0)=20, (0,3)=3.
	got := append([]float64(nil), out.Col("value").F...)
	sort.Float64s(got)
	want := []float64{3, 10, 20}
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestTop1PercentPattern(t *testing.T) {
	// The paper's "top 1%" analysis: sort desc, limit ceil(n/100).
	n := 500
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i * 7 % 501)
	}
	tables := map[string]*rframe.Frame{"df": rframe.New().MustAddFloat("value", vals)}
	out := q(t, tables, "SELECT value FROM df ORDER BY value DESC LIMIT 5")
	if out.NumRows() != 5 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	for i := 1; i < 5; i++ {
		if out.Col("value").F[i] > out.Col("value").F[i-1] {
			t.Fatal("not descending")
		}
	}
}

// errorCases are queries that must fail whatever the frame holds.
var errorCases = []string{
	"SELEKT * FROM df",
	"SELECT * FROM missing",
	"SELECT nope FROM df",
	"SELECT * FROM df WHERE",
	"SELECT SUM(value) FROM df GROUP BY ghost",
	"SELECT value FROM df LIMIT -1",
	"SELECT value FROM df extra",
	"SELECT * , SUM(value) FROM df",
	"SELECT SUM(value, lat) FROM df",
	"SELECT FOO(value) FROM df",
	"SELECT value + name FROM df2",
	"SELECT 'unterminated FROM df",
}

func TestErrors(t *testing.T) {
	tables := grid(t)
	for _, sql := range errorCases {
		if _, err := Query(tables, sql); err == nil {
			t.Errorf("query %q should fail", sql)
		}
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	if _, err := Query(grid(t), "SELECT value FROM df WHERE SUM(value) > 3"); err == nil {
		t.Fatal("aggregate in WHERE should be rejected")
	}
}

func TestEmptyResultShapes(t *testing.T) {
	out := q(t, grid(t), "SELECT value FROM df WHERE value > 1000")
	if out.NumRows() != 0 || out.NumCols() != 1 {
		t.Fatalf("shape = %dx%d", out.NumRows(), out.NumCols())
	}
	// Global aggregate over empty set still yields one row.
	out = q(t, grid(t), "SELECT COUNT(*) AS n FROM df WHERE value > 1000")
	if out.NumRows() != 1 || out.Col("n").F[0] != 0 {
		t.Fatalf("count over empty = %+v", out.Col("n").F)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	out := q(t, grid(t), "select value from df where value = 12 order by value limit 1")
	if out.NumRows() != 1 || out.Col("value").F[0] != 12 {
		t.Fatalf("out = %+v", out.Col("value"))
	}
}

// TestSumMatchesManual: SUM over a WHERE subset equals a hand computation
// for arbitrary data.
func TestSumMatchesManual(t *testing.T) {
	f := func(vals []int8, threshold int8) bool {
		fv := make([]float64, len(vals))
		var want float64
		for i, v := range vals {
			fv[i] = float64(v)
			if float64(v) > float64(threshold) {
				want += float64(v)
			}
		}
		tables := map[string]*rframe.Frame{"t": rframe.New().MustAddFloat("x", fv)}
		out, err := Query(tables, "SELECT SUM(x) AS s FROM t WHERE x > "+formatFloat(float64(threshold)))
		if err != nil {
			return false
		}
		return out.Col("s").F[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderLimitMatchesSort: ORDER BY DESC LIMIT k equals the top-k of a
// reference sort.
func TestOrderLimitMatchesSort(t *testing.T) {
	f := func(vals []int16, k8 uint8) bool {
		if len(vals) == 0 {
			return true
		}
		fv := make([]float64, len(vals))
		for i, v := range vals {
			fv[i] = float64(v)
		}
		k := int(k8)%len(fv) + 1
		tables := map[string]*rframe.Frame{"t": rframe.New().MustAddFloat("x", fv)}
		out, err := Query(tables, "SELECT x FROM t ORDER BY x DESC LIMIT "+itoa(k))
		if err != nil {
			return false
		}
		ref := append([]float64(nil), fv...)
		sort.Sort(sort.Reverse(sort.Float64Slice(ref)))
		for i := 0; i < k; i++ {
			if out.Col("x").F[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func formatFloat(v float64) string {
	if v < 0 {
		return "0 - " + formatFloat(-v)
	}
	return itoa(int(v))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestModuloAndCountColumn(t *testing.T) {
	tables := map[string]*rframe.Frame{
		"t": rframe.New().MustAddFloat("x", []float64{1, 2, 3, 4, 5}),
	}
	out := q(t, tables, "SELECT x FROM t WHERE x % 2 = 1")
	if out.NumRows() != 3 {
		t.Fatalf("odd rows = %d", out.NumRows())
	}
	out = q(t, tables, "SELECT COUNT(x) AS n FROM t WHERE x > 2")
	if out.Col("n").F[0] != 3 {
		t.Fatalf("count(x) = %v", out.Col("n").F[0])
	}
}

func TestAggregateExpressions(t *testing.T) {
	tables := map[string]*rframe.Frame{
		"t": rframe.New().MustAddFloat("x", []float64{3, 4}),
	}
	// Arithmetic over aggregates and scalar functions of aggregates.
	out := q(t, tables, "SELECT MAX(x) - MIN(x) AS spread, SQRT(SUM(x * x)) AS norm, -SUM(x) AS neg FROM t")
	if out.Col("spread").F[0] != 1 {
		t.Fatalf("spread = %v", out.Col("spread").F[0])
	}
	if out.Col("norm").F[0] != 5 {
		t.Fatalf("norm = %v", out.Col("norm").F[0])
	}
	if out.Col("neg").F[0] != -7 {
		t.Fatalf("neg = %v", out.Col("neg").F[0])
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	tables := grid(t)
	out := q(t, tables, "SELECT lat, lon, COUNT(*) AS n FROM df GROUP BY lat, lon")
	if out.NumRows() != 12 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	for i := 0; i < out.NumRows(); i++ {
		if out.Col("n").F[i] != 1 {
			t.Fatalf("group %d count = %v", i, out.Col("n").F[i])
		}
	}
}

func TestOrderByMixedTypesRejected(t *testing.T) {
	tables := map[string]*rframe.Frame{
		"t": rframe.New().MustAddString("s", []string{"a", "b"}).MustAddFloat("x", []float64{1, 2}),
	}
	// Mixing a string column and a number in one ORDER BY comparison.
	if _, err := Query(tables, "SELECT s, x FROM t ORDER BY s, x"); err != nil {
		t.Fatalf("two homogeneous keys should work: %v", err)
	}
}

func TestStringArithmeticRejected(t *testing.T) {
	tables := map[string]*rframe.Frame{
		"t": rframe.New().MustAddString("s", []string{"a"}),
	}
	if _, err := Query(tables, "SELECT s + 1 FROM t"); err == nil {
		t.Fatal("string + number should fail")
	}
	if _, err := Query(tables, "SELECT s + s FROM t"); err == nil {
		t.Fatal("string + string should fail")
	}
	out := q(t, tables, "SELECT s FROM t WHERE s >= 'a'")
	if out.NumRows() != 1 {
		t.Fatal("string comparison should work")
	}
}

func TestNotPrecedenceAndLiterals(t *testing.T) {
	tables := map[string]*rframe.Frame{
		"t": rframe.New().MustAddFloat("x", []float64{0, 1}),
	}
	out := q(t, tables, "SELECT x FROM t WHERE NOT x = 1")
	if out.NumRows() != 1 || out.Col("x").F[0] != 0 {
		t.Fatalf("NOT result = %+v", out.Col("x").F)
	}
	out = q(t, tables, "SELECT 'lit' AS l, 2.5e1 AS n FROM t LIMIT 1")
	if out.Col("l").S[0] != "lit" || out.Col("n").F[0] != 25 {
		t.Fatalf("literals = %v %v", out.Col("l").S, out.Col("n").F)
	}
}

func TestLexerEdgeCases(t *testing.T) {
	tables := map[string]*rframe.Frame{
		"t": rframe.New().MustAddFloat("x", []float64{1}),
	}
	if _, err := Query(tables, "SELECT x FROM t WHERE x @ 1"); err == nil {
		t.Error("unknown character should fail")
	}
	out := q(t, tables, "SELECT x FROM t WHERE x <> 2 AND x != 3")
	if out.NumRows() != 1 {
		t.Error("both not-equal spellings should work")
	}
	out = q(t, tables, "SELECT .5 + x AS y FROM t")
	if out.Col("y").F[0] != 1.5 {
		t.Errorf("leading-dot number = %v", out.Col("y").F[0])
	}
}

func TestGroupKeyStringColumn(t *testing.T) {
	tables := map[string]*rframe.Frame{
		"t": rframe.New().
			MustAddString("site", []string{"a", "b", "a", "a"}).
			MustAddFloat("v", []float64{1, 2, 3, 4}),
	}
	out := q(t, tables, "SELECT site, SUM(v) AS total FROM t GROUP BY site ORDER BY site")
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	if out.Col("site").S[0] != "a" || out.Col("total").F[0] != 8 {
		t.Fatalf("group a = %v/%v", out.Col("site").S[0], out.Col("total").F[0])
	}
}
