package rsql

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scidp/internal/rframe"
	"scidp/internal/sim"
)

// This file pins the array path (plan.go) to the frame executor it now
// runs on: one chunk answers as rsql.Query does, bit for bit; a generated
// corpus over the multi-chunk fake table answers as it did on 580fc7d; and
// MIN/MAX treat NaN and signed zero by the frame executor's rule.

// frameTable is an ArrayTable over a frame's numeric columns, per rows to a
// chunk, with the zone maps a writer would have recorded (NaN is fill).
type frameTable struct {
	f   *rframe.Frame
	per int
}

// numericFrame is f without its string columns.
func numericFrame(f *rframe.Frame) *rframe.Frame {
	out := rframe.New()
	for _, c := range f.Columns() {
		if c.Kind != rframe.String {
			out.Add(c)
		}
	}
	return out
}

func (t *frameTable) Columns() []ColumnInfo {
	var cols []ColumnInfo
	for _, c := range t.f.Columns() {
		cols = append(cols, ColumnInfo{Name: c.Name, Int: c.Kind == rframe.Int})
	}
	return cols
}

func (t *frameTable) NumChunks() int { return max(1, (t.f.NumRows()+t.per-1)/max(t.per, 1)) }

func (t *frameTable) span(i int) (lo, hi int) {
	return min(i*t.per, t.f.NumRows()), min((i+1)*t.per, t.f.NumRows())
}

func (t *frameTable) Meta(i int) ChunkMeta {
	lo, hi := t.span(i)
	m := ChunkMeta{Rows: hi - lo, RawBytes: int64(8 * (hi - lo)), StoredBytes: int64(4 * (hi - lo)), Bounds: map[string]Interval{}}
	for _, c := range t.f.Columns() {
		iv := Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
		for r := lo; r < hi; r++ {
			if v := c.Float64At(r); v == v {
				iv.Lo, iv.Hi = math.Min(iv.Lo, v), math.Max(iv.Hi, v)
			}
		}
		m.Bounds[c.Name] = iv
	}
	return m
}

func (t *frameTable) Announce([]int)             {}
func (t *frameTable) Fork(fn func()) *sim.Future { fn(); return nil }
func (t *frameTable) Join(...*sim.Future)        {}

func (t *frameTable) Read(i int) (Chunk, error) {
	lo, hi := t.span(i)
	return &frameChunk{f: t.f, lo: lo, rows: hi - lo}, nil
}

type frameChunk struct {
	f        *rframe.Frame
	lo, rows int
}

func (c *frameChunk) NumRows() int { return c.rows }

func (c *frameChunk) Col(name string) (func(int) float64, error) {
	col := c.f.Col(name)
	if col == nil {
		return nil, errNoCol
	}
	return func(r int) float64 { return col.Float64At(c.lo + r) }, nil
}

// oneNaN returns f with every NaN cell the same NaN. Which NaN a cell holds
// shows nowhere (WriteCSV prints NaN, Order puts them all last), and an AVG
// over no rows is math.NaN() from the frame executor's fold but 0/0 once
// the array path has split it into SUM(s) / SUM(c).
func oneNaN(f *rframe.Frame) *rframe.Frame {
	out := rframe.New()
	for _, c := range f.Columns() {
		if c.Kind == rframe.Float {
			c = &rframe.Column{Name: c.Name, Kind: c.Kind, F: append([]float64{}, c.F...)}
			for i, v := range c.F {
				if v != v {
					c.F[i] = math.NaN()
				}
			}
		}
		out.Add(c)
	}
	return out
}

// arrayAgrees runs sql over the frame and over the chunked view of it in
// both modes. They must accept the same queries; it returns the frame's
// answer and the two array answers, nil if the query is invalid.
func arrayAgrees(t *testing.T, f *rframe.Frame, per int, sql string) (want *rframe.Frame, got [2]*rframe.Frame) {
	t.Helper()
	want, err := Query(map[string]*rframe.Frame{"df": f, "t": f}, sql)
	for i, mode := range []PushdownMode{Pushdown, PushdownOff} {
		ft := &frameTable{f: f, per: per}
		out, _, aerr := QueryArrays(map[string]ArrayTable{"df": ft, "t": ft}, sql, ArrayQueryOpts{Mode: mode})
		if (err == nil) != (aerr == nil) {
			t.Fatalf("%q: Query: %v; QueryArrays (%s): %v", sql, err, mode, aerr)
		}
		got[i] = out
	}
	return want, got
}

// TestArrayMatchesFrameOneChunk: with one chunk there is no partial to
// merge, so the array path answers every corpus query that needs no string
// column exactly as rsql.Query answers it over the same rows — SUM and AVG
// included, and MIN/MAX over NaN, where the parent's second aggregation
// answered NaN.
func TestArrayMatchesFrameOneChunk(t *testing.T) {
	for _, tc := range []struct {
		rows int
		nans bool
	}{{23, false}, {23, true}, {1, false}, {0, false}} {
		f := numericFrame(diffFrame(tc.rows, tc.nans))
		numeric := 0
		for _, sql := range corpus(1500, tc.rows, int64(tc.rows)) {
			want, got := arrayAgrees(t, f, max(tc.rows, 1), sql)
			if want == nil {
				continue
			}
			numeric++
			for _, g := range got {
				if d := diffFrames(oneNaN(g), oneNaN(want)); d != "" {
					t.Fatalf("rows=%d nans=%v: %q: %s\ngot\n%swant\n%s", tc.rows, tc.nans, sql, d, g.WriteCSV(), want.WriteCSV())
				}
			}
		}
		if numeric < 300 {
			t.Fatalf("rows=%d: only %d corpus queries are numeric", tc.rows, numeric)
		}
	}
}

// arrayCorpus generates count queries over the fake table's columns with
// no /, % or SQRT — nothing that can make a NaN where there was none — and
// no MIN/MAX argument that is 0 under both signs.
func arrayCorpus(count int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	plain := []corpusItem{
		{"level", "level", false}, {"lat", "lat", false}, {"value", "value", false},
		{"value * 2 + 1 AS scaled", "scaled", false}, {"-value AS neg", "neg", false}, {"ABS(value - 3) AS dist", "dist", false},
		{"value - lat AS d", "d", false}, {"lat + level AS ll", "ll", false}, {"value > 2 AS big", "big", false},
		{"NOT lat = 1 AS notone", "notone", false}, {"1.5 AS k", "k", false}, {"value * value AS sq", "sq", false},
		{"level * 6 + lat AS row", "row", false},
	}
	grouped := []corpusItem{
		{"COUNT(*) AS n", "n", false}, {"SUM(value) AS sv", "sv", false}, {"AVG(value) AS mean", "mean", false},
		{"MIN(value) AS lo", "lo", false}, {"MAX(value) AS hi", "hi", false}, {"COUNT(value) AS nv", "nv", false},
		{"MAX(value) - MIN(value) AS spread", "spread", false}, {"SUM(value * value) AS ss", "ss", false},
		{"-SUM(value) AS negsum", "negsum", false}, {"SUM(value) + COUNT(*) AS both", "both", false},
		{"ABS(MIN(-value)) AS am", "am", false}, {"AVG(value * 2 + lat) AS avg2", "avg2", false},
		{"MIN(lat + level) AS ml", "ml", false}, {"MAX(-lat) AS mnl", "mnl", false}, {"COUNT(*) > 3 AS many", "many", false},
		{"7 AS seven", "seven", false}, {"AVG(value) AS again", "again", false}, {"SUM(lat) AS sl", "sl", false},
	}
	wheres := []string{
		"", "", "level = 3", "level >= 2 AND level < 5", "value > 4.5", "value < 0.5 AND NOT (level = 0)",
		"lat = 2 OR lat = 4", "1 = 0", "value > 1000", "level = 99", "3 <= lat AND value > 1.0",
		"ABS(value - 3) < 1.5", "level = 2 AND value > 2.0", "(lat = 1 OR level = 2) AND value > 0.5",
	}
	groupings := []struct {
		by   string
		keys []corpusItem
	}{
		{"", nil},
		{"level", []corpusItem{{"level", "level", false}}},
		{"lat", []corpusItem{{"lat", "lat", false}, {"level AS first", "first", false}}},
		{"level, lat", []corpusItem{{"lat", "lat", false}, {"level", "level", false}}},
		{"value", []corpusItem{{"value AS v", "v", false}}},
	}
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
		case 0, 1, 2:
			grp := groupings[rng.Intn(len(groupings))]
			items = append(append(items, grp.keys...), pick(grouped, 1+rng.Intn(4))...)
			if grp.by != "" {
				tail = " GROUP BY " + grp.by
			}
		case 3:
			parts = []string{"*"}
			orderable = []corpusItem{{"lat", "lat", false}, {"value", "value", false}}
			for _, it := range pick(plain, rng.Intn(4)) {
				if it.sql != it.name {
					items = append(items, it)
				}
			}
		default:
			items = pick(plain, 1+rng.Intn(4))
		}
		for _, it := range items {
			parts = append(parts, it.sql)
		}
		orderable = append(orderable, items...)
		sql := "SELECT " + strings.Join(parts, ", ") + " FROM t"
		if w := wheres[rng.Intn(len(wheres))]; w != "" {
			sql += " WHERE " + w
		}
		sql += tail
		if nkeys := rng.Intn(4); nkeys > 0 {
			var keys []string
			for k := 0; k < nkeys; k++ {
				key := orderable[rng.Intn(len(orderable))].name
				key = []string{key, key, key, "-" + key, "ABS(" + key + ")", key + " > 0"}[rng.Intn(6)]
				keys = append(keys, key+[]string{"", " ASC", " DESC", " DESC"}[rng.Intn(4)])
			}
			sql += " ORDER BY " + strings.Join(keys, ", ")
		}
		if l := []int{-1, -1, 0, 1, 3, 48, 49}[rng.Intn(7)]; l >= 0 {
			sql += fmt.Sprintf(" LIMIT %d", l)
		}
		out = append(out, sql)
	}
	return out
}

// arrayCorpusDigest was recorded by running this file on 580fc7d, where
// plan.go still had its own interpreter, aggregation and merge.
const arrayCorpusDigest = "ed2cac2fd956434a394578aa8ff35291e2a93ba2782ce5de0f43d11b7cc32328"

// TestArrayCorpusUnchanged: 2 000 generated queries, pushed down and not,
// over the eight-chunk fake table give the column names, kinds and cell
// bits (one NaN for all), the scan statistics, the projection list and the
// chunk reads they gave before the array path ran on the frame executor.
func TestArrayCorpusUnchanged(t *testing.T) {
	h := sha256.New()
	for _, sql := range arrayCorpus(2000, 19) {
		for _, mode := range []PushdownMode{Pushdown, PushdownOff} {
			out, st, ft := runArray(t, sql, mode)
			fmt.Fprintf(h, "%s|%s|%+v|%v|%v\n", sql, mode, *st, ft.projected, ft.reads)
			for _, c := range oneNaN(out).Columns() {
				fmt.Fprintf(h, "%s %v", c.Name, c.Kind)
				for _, v := range c.F {
					fmt.Fprintf(h, " %x", math.Float64bits(v))
				}
				fmt.Fprintln(h, c.I, c.S)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != arrayCorpusDigest {
		t.Fatalf("corpus digest %s, want %s", got, arrayCorpusDigest)
	}
}

// TestMinMaxFold states the one rule MIN and MAX have, whoever runs them:
// a value replaces the running one only if it is < (or >) it. So a NaN
// never wins — it is fill, which is what the write-time zone maps do with
// it — a group of nothing but NaN answers like a group of nothing, +Inf and
// -Inf, and of two equal values (0 and -0 are equal) the first stays. The
// parent's array path folded with the min and max builtins instead: any
// NaN made the answer NaN, and -0 beat 0 wherever it stood.
func TestMinMaxFold(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	f := rframe.New().
		MustAddInt("g", []int64{0, 0, 0, 1, 1, 2, 2, 2}).
		MustAddFloat("x", []float64{nan, 3, 1, nan, nan, 0, negZero, 5})
	const sql = "SELECT g, MIN(x) AS lo, MAX(x) AS hi, MIN(-x) AS nlo FROM t GROUP BY g ORDER BY g"
	want := rframe.New().
		MustAddFloat("g", []float64{0, 1, 2}).
		MustAddFloat("lo", []float64{1, math.Inf(1), 0}).
		MustAddFloat("hi", []float64{3, math.Inf(-1), 5}).
		MustAddFloat("nlo", []float64{-3, math.Inf(1), -5})
	for _, per := range []int{8, 3, 1} {
		frame, array := arrayAgrees(t, f, per, sql)
		for _, got := range append(array[:], frame) {
			if d := diffFrames(got, want); d != "" {
				t.Errorf("%d rows a chunk: %s\n%s", per, d, got.WriteCSV())
			}
		}
	}
	// Group 2 the other way round: -0 first, so -0 stays.
	back := rframe.New().MustAddFloat("x", []float64{negZero, 0})
	frame, array := arrayAgrees(t, back, 1, "SELECT MIN(x) AS lo, MAX(x) AS hi FROM t")
	for _, got := range append(array[:], frame) {
		if !math.Signbit(got.Col("lo").F[0]) || !math.Signbit(got.Col("hi").F[0]) {
			t.Errorf("-0 then 0: %s", got.WriteCSV())
		}
	}
}
