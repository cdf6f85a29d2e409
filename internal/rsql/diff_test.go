package rsql

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"scidp/internal/rframe"
)

// This file holds the executor to the legacy one (legacy_test.go): a
// generated corpus every query of which both must accept and answer
// bit for bit, and a fuzz target over arbitrary SQL text.

// diffFrame has every column name the package's test queries use, all
// three kinds, and heavy ties in every would-be sort key. With nans it
// also has NaN keys, whose order legacy never defined.
func diffFrame(rows int, nans bool) *rframe.Frame {
	ints := func(f func(i int) int64) []int64 {
		out := make([]int64, rows)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	floats := func(f func(i int) float64) []float64 {
		out := make([]float64, rows)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	strs := func(f func(i int) string) []string {
		out := make([]string, rows)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	x := floats(func(i int) float64 { return []float64{2, -1.5, 0, 0.5, 2, math.Copysign(0, -1), 9}[i*5%7] })
	if nans {
		for i := range x {
			if i%4 == 1 {
				x[i] = math.NaN()
			}
		}
	}
	return rframe.New().
		MustAddInt("i", ints(func(i int) int64 { return int64(i) })).
		MustAddInt("g", ints(func(i int) int64 { return int64(i * 7 % 3) })).
		MustAddInt("lat", ints(func(i int) int64 { return int64(i / 4) })).
		MustAddInt("lon", ints(func(i int) int64 { return int64(i % 4) })).
		MustAddInt("level", ints(func(i int) int64 { return int64(i % 2) })).
		MustAddInt("t", ints(func(int) int64 { return 3 })).
		MustAddFloat("x", x).
		MustAddFloat("y", floats(func(i int) float64 { return math.Sin(float64(i)) * 100 })).
		MustAddFloat("value", floats(func(i int) float64 { return float64(i*13%8) / 4 })).
		MustAddFloat("score", floats(func(i int) float64 { return float64(i % 5) })).
		MustAddFloat("v", floats(func(i int) float64 { return math.Inf(i%3 - 1) })).
		MustAddString("s", strs(func(i int) string { return []string{"b", "a", "c", "a"}[i%4] })).
		MustAddString("name", strs(func(i int) string { return fmt.Sprintf("n%02d", i*11%rows) })).
		MustAddString("site", strs(func(i int) string { return []string{"", "x y", "Z"}[i%3] }))
}

func diffTables(rows int, nans bool) map[string]*rframe.Frame {
	f := diffFrame(rows, nans)
	return map[string]*rframe.Frame{"df": f, "t": f}
}

// runLegacy runs the legacy executor; a panic (it indexes the arguments
// of ABS() without counting them) is reported as an error.
func runLegacy(tables map[string]*rframe.Frame, sql string) (out *rframe.Frame, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("legacy panicked: %v", r)
		}
	}()
	return legacyQuery(tables, sql)
}

// diffFrames describes the first difference between two results, "" if
// there is none. Floats compare by bit pattern. One difference is let
// through: legacy learned a column's kind from its first row, so it calls
// every column of an empty result Float; the new one knows it is String.
func diffFrames(got, want *rframe.Frame) string {
	if g, w := strings.Join(got.Names(), ","), strings.Join(want.Names(), ","); g != w {
		return fmt.Sprintf("columns %q, want %q", g, w)
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Sprintf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for i, g := range got.Columns() {
		w := want.Columns()[i]
		if g.Kind != w.Kind && !(got.NumRows() == 0 && g.Kind == rframe.String && w.Kind == rframe.Float) {
			return fmt.Sprintf("column %s has kind %v, want %v", g.Name, g.Kind, w.Kind)
		}
		for r := 0; r < got.NumRows(); r++ {
			same := true
			switch g.Kind {
			case rframe.Float:
				same = math.Float64bits(g.F[r]) == math.Float64bits(w.F[r])
			case rframe.Int:
				same = g.I[r] == w.I[r]
			case rframe.String:
				same = g.S[r] == w.S[r]
			}
			if !same {
				return fmt.Sprintf("column %s row %d is %s, want %s", g.Name, r, g.StringAt(r), w.StringAt(r))
			}
		}
	}
	return ""
}

// legacyOrdered is what legacy answers, with the one thing it left
// undefined defined: if an ORDER BY key is NaN in any row, its stable sort
// had no strict weak order to work with, so the unordered result is
// re-sorted here by the rule rframe.Order documents — NaN after every
// number in both directions, ties in input order — and cut at LIMIT.
func legacyOrdered(tables map[string]*rframe.Frame, sql string) (*rframe.Frame, error) {
	want, err := runLegacy(tables, sql)
	q, perr := parse(sql)
	if err != nil || perr != nil || len(q.orderBy) == 0 {
		return want, err
	}
	toks, _ := lex(sql)
	cut := slices.IndexFunc(toks, func(t token) bool { return t.kind == tokKeyword && t.val == "ORDER" })
	unordered, err := runLegacy(tables, sql[:toks[cut].pos])
	if err != nil {
		return nil, err
	}
	n := unordered.NumRows()
	keys := make([][]val, n)
	anyNaN := false
	for r := range keys {
		for _, o := range q.orderBy {
			v, err := rowEval(o.ex, unordered, r)
			if err != nil {
				return nil, err
			}
			anyNaN = anyNaN || v.f != v.f
			keys[r] = append(keys[r], v)
		}
	}
	if !anyNaN {
		return want, nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for i, o := range q.orderBy {
			ka, kb := keys[idx[a]][i], keys[idx[b]][i]
			switch {
			case ka.str:
				if ka.s != kb.s {
					return (ka.s < kb.s) != o.desc
				}
			case ka.f != ka.f || kb.f != kb.f:
				if (ka.f != ka.f) != (kb.f != kb.f) {
					return kb.f != kb.f
				}
			case ka.f != kb.f:
				return (ka.f < kb.f) != o.desc
			}
		}
		return false
	})
	if q.limit >= 0 && q.limit < n {
		idx = idx[:q.limit]
	}
	out := rframe.New()
	for _, c := range unordered.Columns() {
		if err := out.Add(c.Take(idx)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// corpusItem is a select item and what ORDER BY can call it.
type corpusItem struct {
	sql, name string
	str       bool
}

var (
	plainItems = []corpusItem{
		{"x", "x", false}, {"i", "i", false}, {"g", "g", false}, {"s", "s", true}, {"name", "name", true},
		{"y AS why", "why", false}, {"x + y AS total", "total", false}, {"x * 2 - i / 3 AS mix", "mix", false},
		{"ABS(y) AS mag", "mag", false}, {"SQRT(ABS(x)) AS root", "root", false}, {"-x AS neg", "neg", false},
		{"i % 3 AS rem", "rem", false}, {"'lit' AS l", "l", true}, {"1.5 AS k", "k", false},
		{"x > 1 AS big", "big", false}, {"s = 'a' AS isa", "isa", false}, {"NOT g = 1 AS notone", "notone", false},
		{"site <= s AS cmp", "cmp", false}, {"v AS inf", "inf", false}, {"x / value AS ratio", "ratio", false},
	}
	groupedItems = []corpusItem{
		{"COUNT(*) AS n", "n", false}, {"SUM(x) AS sx", "sx", false}, {"AVG(y) AS mean", "mean", false},
		{"MIN(x) AS lo", "lo", false}, {"MAX(x) AS hi", "hi", false}, {"COUNT(s) AS ns", "ns", false},
		{"MAX(x) - MIN(x) AS spread", "spread", false}, {"SQRT(SUM(x * x)) AS norm", "norm", false},
		{"-SUM(y) AS negsum", "negsum", false}, {"SUM(x) + COUNT(*) AS both", "both", false},
		{"ABS(SUM(y)) AS asum", "asum", false}, {"AVG(x * 2 + i) AS avg2", "avg2", false},
		{"SUM(v) AS sv", "sv", false}, {"MIN(i % 5) AS mi", "mi", false}, {"COUNT(*) > 3 AS many", "many", false},
		{"7 AS seven", "seven", false}, {"'k' AS konst", "konst", true},
	}
	wheres = []string{
		"", "", "", "x > 0", "g = 1 AND x >= 0.5", "s <> 'b' OR i < 5", "NOT (g = 0) AND (x < 2 OR s = 'c')",
		"1 = 0", "x > 1000", "name >= 'n07'", "i % 2 = 0", "ABS(y) > 50 OR NOT s = 'a'", "x = x", "v > 0",
	}
	groupings = []struct {
		by   string
		keys []corpusItem
	}{
		{"", nil},
		{"g", []corpusItem{{"g", "g", false}}},
		{"s", []corpusItem{{"s", "s", true}}},
		{"g, s", []corpusItem{{"g", "g", false}, {"s", "s", true}}},
		{"x", []corpusItem{{"x", "x", false}}},
		{"site, level", []corpusItem{{"level", "level", false}, {"i AS first", "first", false}}},
	}
)

// corpus generates count queries: projections, arithmetic, aliases, *,
// WHERE with AND/OR/NOT, string and Int columns, GROUP BY with every
// aggregate, one to three ORDER BY keys in both directions, and every
// LIMIT edge around rows.
func corpus(count, rows int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	pick := func(pool []corpusItem, n int) []corpusItem {
		var out []corpusItem
		for _, p := range rng.Perm(len(pool))[:n] {
			out = append(out, pool[p])
		}
		return out
	}
	var out []string
	for len(out) < count {
		var items, orderable []corpusItem
		var parts []string
		tail := ""
		switch rng.Intn(6) {
		case 0, 1: // aggregated
			grp := groupings[rng.Intn(len(groupings))]
			items = append(append(items, grp.keys...), pick(groupedItems, 1+rng.Intn(4))...)
			if grp.by != "" {
				tail = " GROUP BY " + grp.by
			}
		case 2: // star: every source column first, then only aliased items (no duplicate names)
			parts = []string{"*"}
			orderable = []corpusItem{{"lat", "lat", false}, {"site", "site", true}, {"x", "x", false}}
			for _, it := range pick(plainItems, rng.Intn(4)) {
				if it.sql != it.name {
					items = append(items, it)
				}
			}
		default:
			items = pick(plainItems, 1+rng.Intn(4))
		}
		for _, it := range items {
			parts = append(parts, it.sql)
		}
		orderable = append(orderable, items...)
		sql := "SELECT " + strings.Join(parts, ", ") + " FROM df"
		if w := wheres[rng.Intn(len(wheres))]; w != "" {
			sql += " WHERE " + w
		}
		sql += tail
		if nkeys := rng.Intn(4); nkeys > 0 {
			var keys []string
			for k := 0; k < nkeys; k++ {
				it := orderable[rng.Intn(len(orderable))]
				key := it.name
				if !it.str {
					key = []string{key, key, key, "-" + key, "ABS(" + key + ")", key + " % 2", key + " > 0"}[rng.Intn(7)]
				}
				keys = append(keys, key+[]string{"", " ASC", " DESC", " DESC"}[rng.Intn(4)])
			}
			sql += " ORDER BY " + strings.Join(keys, ", ")
		}
		if l := []int{-1, -1, 0, 1, 3, rows, rows + 1}[rng.Intn(7)]; l >= 0 {
			sql += fmt.Sprintf(" LIMIT %d", l)
		}
		out = append(out, sql)
	}
	return out
}

// TestDifferential: on every NaN-free input the new executor's frame
// equals the legacy executor's in column names, kinds and the bits of
// every cell — heavy ties and every LIMIT edge included — and both accept
// every query of the corpus. Frames with NaN keys are held to the rule
// legacyOrdered applies. Zero- and one-row frames cover the shapes where
// legacy checked nothing.
func TestDifferential(t *testing.T) {
	for _, tc := range []struct {
		rows int
		nans bool
	}{{23, false}, {23, true}, {1, false}, {0, false}} {
		tables := diffTables(tc.rows, tc.nans)
		ordered := 0
		queries := corpus(1500, tc.rows, int64(tc.rows))
		for _, sql := range queries {
			want, err := legacyOrdered(tables, sql)
			if err != nil {
				t.Fatalf("rows=%d: legacy rejects %q: %v", tc.rows, sql, err)
			}
			got, err := Query(tables, sql)
			if err != nil {
				t.Fatalf("rows=%d: %q: %v", tc.rows, sql, err)
			}
			if d := diffFrames(got, want); d != "" {
				t.Fatalf("rows=%d nans=%v: %q: %s\ngot\n%swant\n%s", tc.rows, tc.nans, sql, d, got.WriteCSV(), want.WriteCSV())
			}
			if strings.Contains(sql, "ORDER BY") {
				ordered++
			}
		}
		if ordered < len(queries)/2 {
			t.Fatalf("only %d of %d corpus queries order their result", ordered, len(queries))
		}
	}
}

// TestOrderByNaN is the issue's example: on the parent x DESC LIMIT 2
// gave 3, 2 but x DESC, i DESC LIMIT 3 gave NaN, 3, 2.
func TestOrderByNaN(t *testing.T) {
	tables := map[string]*rframe.Frame{"t": rframe.New().
		MustAddFloat("x", []float64{3, 1, 2, math.NaN(), 2}).
		MustAddInt("i", []int64{0, 1, 2, 3, 4})}
	for _, tc := range []struct{ sql, col, want string }{
		{"SELECT i, x FROM t ORDER BY x DESC LIMIT 2", "i", "0,2"},
		{"SELECT i, x FROM t ORDER BY x DESC, i DESC LIMIT 3", "i", "0,4,2"},
		{"SELECT i, x FROM t ORDER BY x", "i", "1,2,4,0,3"},
		{"SELECT i, x FROM t ORDER BY x DESC", "i", "0,2,4,1,3"},
		{"SELECT i, SQRT(x - 2) AS r FROM t ORDER BY r, i DESC", "i", "4,2,0,3,1"},
		{"SELECT x, MAX(i) AS m FROM t GROUP BY x ORDER BY x", "m", "1,4,0,3"},
		{"SELECT i, x FROM t WHERE i > 0 ORDER BY x DESC LIMIT 100", "i", "2,4,1,3"},
	} {
		out := q(t, tables, tc.sql)
		var got []string
		for r := 0; r < out.NumRows(); r++ {
			got = append(got, out.Col(tc.col).StringAt(r))
		}
		if g := strings.Join(got, ","); g != tc.want {
			t.Errorf("%q: %s = %s, want %s", tc.sql, tc.col, g, tc.want)
		}
	}
}

// fuzzSeeds are the queries of the package's tests and benchmarks.
func fuzzSeeds() []string {
	seeds := append([]string{}, planQueries...)
	seeds = append(seeds, errorCases...)
	seeds = append(seeds, dataIndependentErrors...)
	for _, b := range benchQueries {
		seeds = append(seeds, b.sql)
	}
	seeds = append(seeds, corpus(60, 23, 99)...)
	return append(seeds,
		"SELECT * FROM df WHERE value >= 20 AND lon < 2",
		"SELECT value * 2 AS double, lat FROM df WHERE lat = 1",
		"SELECT lat, lon FROM df ORDER BY lat DESC, lon ASC LIMIT 2",
		"SELECT COUNT(*), SUM(value), AVG(value), MIN(value), MAX(value) FROM df",
		"SELECT lat, SUM(value) AS total FROM df GROUP BY lat ORDER BY lat",
		"SELECT ABS(x) AS a, SQRT(ABS(x)) AS s FROM t",
		"SELECT name FROM t WHERE name <> 'bob' ORDER BY name DESC",
		"SELECT 2 + 3 * x - 4 / 2 AS r, -x AS neg, (2+3) * 2 AS paren FROM t",
		"SELECT value FROM df WHERE NOT lat = 0 AND lon = 0 OR value = 3",
		"select value from df where value = 12 order by value limit 1",
		"SELECT COUNT(x) AS n FROM t WHERE x % 2 = 1",
		"SELECT MAX(x) - MIN(x) AS spread, SQRT(SUM(x * x)) AS norm, -SUM(x) AS neg FROM t",
		"SELECT lat, lon, COUNT(*) AS n FROM df GROUP BY lat, lon",
		"SELECT s, x FROM t ORDER BY s, x",
		"SELECT 'lit' AS l, 2.5e1 AS n FROM t LIMIT 1",
		"SELECT .5 + x AS y FROM t WHERE x <> 2 AND x != 3",
		"SELECT site, SUM(v) AS total FROM t GROUP BY site ORDER BY site",
		"SELECT name, COUNT(*) FROM t WHERE 1 = 0",
		"SELECT ABS(), COUNT(*) FROM t",
	)
}

// FuzzQuery: whatever the text, Query does not panic; when both executors
// accept it their results are bit-equal (a NaN sort key aside, which is
// held to the documented rule); and what legacy rejects — over a frame
// with rows, where it checked at all — the new executor rejects too. The
// new one may reject more: it checks the rows legacy never reached.
//
// The same text then goes to the array path, pushed down and not, over the
// frame's numeric columns cut into five chunks: it does not panic, accepts
// exactly what Query accepts over those columns, and answers the same —
// bit for bit, unless the select list has a SUM or an AVG, whose partials
// are added in another order than the rows: those answers are within 1e-12.
func FuzzQuery(f *testing.F) {
	for _, sql := range fuzzSeeds() {
		f.Add(sql)
	}
	tables := diffTables(23, false)
	numeric := numericFrame(tables["df"])
	f.Fuzz(func(t *testing.T, sql string) {
		got, err := Query(tables, sql)
		want, lerr := legacyOrdered(tables, sql)
		switch {
		case lerr != nil && err == nil:
			t.Fatalf("%q: accepted, but legacy: %v", sql, lerr)
		case lerr == nil && err == nil:
			if d := diffFrames(got, want); d != "" {
				t.Fatalf("%q: %s\ngot\n%swant\n%s", sql, d, got.WriteCSV(), want.WriteCSV())
			}
		}

		want, chunked := arrayAgrees(t, numeric, 5, sql)
		if want == nil {
			return
		}
		sums := false
		q, _ := parse(sql)
		for _, it := range q.sel {
			walk(it.ex, func(e expr) {
				c, ok := e.(call)
				sums = sums || ok && (c.name == "SUM" || c.name == "AVG")
			})
		}
		for _, got := range chunked {
			if sums {
				framesClose(t, sql, got, want, 1e-12)
			} else if d := diffFrames(oneNaN(got), oneNaN(want)); d != "" {
				t.Fatalf("%q in chunks: %s\ngot\n%swant\n%s", sql, d, got.WriteCSV(), want.WriteCSV())
			}
		}
	})
}
