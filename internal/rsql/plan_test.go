package rsql

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"scidp/internal/rframe"
	"scidp/internal/sim"
)

// fakeTable is an in-memory ArrayTable: one chunk per level, six rows per
// chunk, with lat cycling 0..5 and a synthetic float value column. It
// records which chunks were read so tests can prove skipped chunks never
// decode, and which columns the planner projected.
type fakeTable struct {
	levels    int
	vals      [][]float64 // [chunk][row]
	reads     []int
	projected []string
	payload   bool
}

const fakeRowsPerChunk = 6

func newFakeTable(levels int) *fakeTable {
	t := &fakeTable{levels: levels, payload: true}
	for l := 0; l < levels; l++ {
		rows := make([]float64, fakeRowsPerChunk)
		for r := range rows {
			rows[r] = math.Sin(float64(l*fakeRowsPerChunk+r)/3.0) + float64(l)
		}
		t.vals = append(t.vals, rows)
	}
	return t
}

func (t *fakeTable) Columns() []ColumnInfo {
	return []ColumnInfo{{Name: "level", Int: true}, {Name: "lat", Int: true}, {Name: "value"}}
}

func (t *fakeTable) NumChunks() int { return t.levels }

func (t *fakeTable) Meta(i int) ChunkMeta {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range t.vals[i] {
		mn, mx = math.Min(mn, v), math.Max(mx, v)
	}
	return ChunkMeta{
		Rows:        fakeRowsPerChunk,
		RawBytes:    int64(fakeRowsPerChunk * 8),
		StoredBytes: int64(fakeRowsPerChunk * 5),
		Bounds: map[string]Interval{
			"level": {Lo: float64(i), Hi: float64(i)},
			"lat":   {Lo: 0, Hi: fakeRowsPerChunk - 1},
			"value": {Lo: mn, Hi: mx},
		},
	}
}

func (t *fakeTable) Announce(chunks []int) {}

func (t *fakeTable) Read(i int) (Chunk, error) {
	t.reads = append(t.reads, i)
	return &fakeChunk{t: t, ci: i}, nil
}

func (t *fakeTable) Fork(fn func()) *sim.Future { fn(); return nil }
func (t *fakeTable) Join(futs ...*sim.Future)   {}

func (t *fakeTable) Project(cols []string) bool {
	t.projected = append([]string(nil), cols...)
	t.payload = false
	for _, c := range cols {
		if c == "value" {
			t.payload = true
		}
	}
	return t.payload
}

type fakeChunk struct {
	t  *fakeTable
	ci int
}

func (c *fakeChunk) NumRows() int { return fakeRowsPerChunk }

func (c *fakeChunk) Col(name string) (func(int) float64, error) {
	switch name {
	case "level":
		l := float64(c.ci)
		return func(int) float64 { return l }, nil
	case "lat":
		return func(r int) float64 { return float64(r) }, nil
	case "value":
		vals := c.t.vals[c.ci]
		return func(r int) float64 { return vals[r] }, nil
	}
	return nil, errNoCol
}

var errNoCol = &compileError{"fake: no such column"}

type compileError struct{ msg string }

func (e *compileError) Error() string { return e.msg }

// legacyFrame materializes the fake table as an rframe.Frame in the same
// global row order (chunk order × row order) for oracle comparison
// against the legacy row-at-a-time executor.
func (t *fakeTable) legacyFrame() *rframe.Frame {
	var level, lat []int64
	var value []float64
	for ci := range t.vals {
		for r, v := range t.vals[ci] {
			level = append(level, int64(ci))
			lat = append(lat, int64(r))
			value = append(value, v)
		}
	}
	return rframe.New().MustAddInt("level", level).MustAddInt("lat", lat).MustAddFloat("value", value)
}

func runArray(t *testing.T, sql string, mode PushdownMode) (*rframe.Frame, *ScanStats, *fakeTable) {
	t.Helper()
	ft := newFakeTable(8)
	out, st, err := QueryArrays(map[string]ArrayTable{"t": ft}, sql, ArrayQueryOpts{Mode: mode})
	if err != nil {
		t.Fatalf("QueryArrays(%q, %s): %v", sql, mode, err)
	}
	return out, st, ft
}

var planQueries = []string{
	`SELECT * FROM t`,
	`SELECT * FROM t WHERE level = 3`,
	`SELECT lat, value FROM t WHERE level = 3 AND lat < 4 ORDER BY value DESC LIMIT 3`,
	`SELECT value * 2 + 1 AS scaled, -value AS neg FROM t WHERE level >= 6 ORDER BY neg LIMIT 5`,
	`SELECT ABS(value) AS mag FROM t WHERE value < 0.5 AND NOT (level = 0) ORDER BY mag DESC`,
	`SELECT level FROM t WHERE lat = 2 OR lat = 4 ORDER BY level`,
	`SELECT level, COUNT(*), SUM(value), MIN(value), MAX(value), AVG(value) FROM t WHERE value > 1.0 GROUP BY level ORDER BY level`,
	`SELECT COUNT(*), SUM(value) FROM t WHERE value > 100`,
	`SELECT SUM(value) + COUNT(*) FROM t WHERE level = 2 AND value > 2.0`,
	`SELECT SQRT(ABS(value)) AS root, value FROM t WHERE level <= 1 ORDER BY value LIMIT 4`,
}

// TestPushdownMatchesOracle runs every query in both modes and demands
// byte-identical CSV output, while pushdown must read no more chunks than
// the oracle.
func TestPushdownMatchesOracle(t *testing.T) {
	for _, sql := range planQueries {
		push, pst, pft := runArray(t, sql, Pushdown)
		oracle, ost, _ := runArray(t, sql, PushdownOff)
		if !bytes.Equal(push.WriteCSV(), oracle.WriteCSV()) {
			t.Fatalf("%q: pushdown and oracle differ:\n%s\nvs\n%s", sql, push.WriteCSV(), oracle.WriteCSV())
		}
		if ost.ChunksScanned != 8 || ost.ChunksSkipped != 0 {
			t.Fatalf("%q: oracle scanned %d skipped %d", sql, ost.ChunksScanned, ost.ChunksSkipped)
		}
		if pst.ChunksScanned+pst.ChunksSkipped != pst.ChunksTotal {
			t.Fatalf("%q: stats don't add up: %+v", sql, pst)
		}
		if len(pft.reads) != pst.ChunksScanned {
			t.Fatalf("%q: %d reads but %d chunks reported scanned", sql, len(pft.reads), pst.ChunksScanned)
		}
	}
}

// TestPruningSkipsReads checks the skip-list itself: equality on the
// chunking coordinate reads exactly one chunk, and the skipped bytes are
// accounted.
func TestPruningSkipsReads(t *testing.T) {
	_, st, ft := runArray(t, `SELECT value FROM t WHERE level = 3`, Pushdown)
	if len(ft.reads) != 1 || ft.reads[0] != 3 {
		t.Fatalf("reads = %v, want [3]", ft.reads)
	}
	if st.ChunksScanned != 1 || st.ChunksSkipped != 7 || st.ChunksTotal != 8 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesAvoided != 7*fakeRowsPerChunk*8 || st.BytesInflated != fakeRowsPerChunk*8 {
		t.Fatalf("byte accounting %+v", st)
	}
	if st.StoredAvoided != 7*fakeRowsPerChunk*5 {
		t.Fatalf("stored accounting %+v", st)
	}

	// Zone-map pruning on the value column: only high levels can exceed 6.
	_, st2, ft2 := runArray(t, `SELECT value FROM t WHERE value > 6.5`, Pushdown)
	if st2.ChunksSkipped == 0 {
		t.Fatalf("value predicate should prune: %+v", st2)
	}
	for _, ci := range ft2.reads {
		if ci < 6 {
			t.Fatalf("read chunk %d whose max value cannot exceed 6.5", ci)
		}
	}

	// An unsatisfiable predicate prunes everything; the result must still
	// match the oracle (zero rows, or the synthesized empty aggregate).
	out, st3, ft3 := runArray(t, `SELECT value FROM t WHERE level = 99`, Pushdown)
	if len(ft3.reads) != 0 || st3.ChunksScanned != 0 {
		t.Fatalf("nothing should be read: reads=%v stats=%+v", ft3.reads, st3)
	}
	if out.NumRows() != 0 {
		t.Fatalf("want empty frame, got %d rows", out.NumRows())
	}
}

// TestProjectionRefs checks the planner narrows tables to referenced
// columns and drops payload decoding when only geometry columns appear.
func TestProjectionRefs(t *testing.T) {
	_, _, ft := runArray(t, `SELECT level FROM t WHERE lat < 3`, Pushdown)
	if strings.Join(ft.projected, ",") != "level,lat" {
		t.Fatalf("projected %v, want [level lat]", ft.projected)
	}
	if ft.payload {
		t.Fatal("payload should be projected out when value is unreferenced")
	}
	_, _, ft2 := runArray(t, `SELECT lat FROM t WHERE value > 0`, Pushdown)
	if !ft2.payload {
		t.Fatal("payload must stay when WHERE references value")
	}
}

// TestArrayVsLegacy runs each query through the array planner and the
// legacy row-at-a-time executor over a materialized frame of the same
// rows. Non-aggregate results must match exactly; SUM/AVG may differ in
// the last bits because partial sums merge in chunk order, so aggregates
// compare within a relative tolerance.
func TestArrayVsLegacy(t *testing.T) {
	for _, sql := range planQueries {
		got, _, ft := runArray(t, sql, Pushdown)
		want, err := Query(map[string]*rframe.Frame{"t": ft.legacyFrame()}, sql)
		if err != nil {
			t.Fatalf("legacy %q: %v", sql, err)
		}
		framesClose(t, sql, got, want, 1e-12)
	}
}

func framesClose(t *testing.T, sql string, got, want *rframe.Frame, tol float64) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%q: shape %dx%d, want %dx%d\n%s\nvs\n%s", sql,
			got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols(), got.WriteCSV(), want.WriteCSV())
	}
	gn, wn := got.Names(), want.Names()
	for i := range gn {
		if gn[i] != wn[i] {
			t.Fatalf("%q: column %d named %q, want %q", sql, i, gn[i], wn[i])
		}
		gc, wc := got.Col(gn[i]), want.Col(wn[i])
		for r := 0; r < got.NumRows(); r++ {
			a, b := gc.Float64At(r), wc.Float64At(r)
			if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
				continue
			}
			if math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) {
				continue
			}
			t.Fatalf("%q: col %s row %d: %v vs legacy %v", sql, gn[i], r, a, b)
		}
	}
}

// TestEmptyAggregateMatchesLegacy pins the synthesized zero-row group to
// the legacy executor's semantics.
func TestEmptyAggregateMatchesLegacy(t *testing.T) {
	sql := `SELECT COUNT(*), SUM(value), MIN(value), MAX(value), AVG(value) FROM t WHERE value > 1e9`
	got, _, ft := runArray(t, sql, Pushdown)
	want, err := Query(map[string]*rframe.Frame{"t": ft.legacyFrame()}, sql)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.WriteCSV(), want.WriteCSV()) {
		t.Fatalf("empty aggregate differs:\n%svs\n%s", got.WriteCSV(), want.WriteCSV())
	}
}

// TestBoundsExtraction checks the predicate intervals the planner hands
// to pruning.
func TestBoundsExtraction(t *testing.T) {
	cols := []ColumnInfo{{Name: "level", Int: true}, {Name: "lat", Int: true}, {Name: "value"}}
	pl, err := CompileArray(`SELECT value FROM t WHERE level >= 2 AND level < 5 AND 3 <= lat AND value > 0.5 AND (lat = 1 OR level = 2)`, cols)
	if err != nil {
		t.Fatal(err)
	}
	b := pl.Bounds()
	// Strict comparisons widen to the closed interval — a conservative
	// over-approximation that is always safe for pruning.
	if iv := b["level"]; iv.Lo != 2 || iv.Hi != 5 {
		t.Fatalf("level bounds %+v", iv)
	}
	// The flipped literal-first orientation must still register, and the
	// OR disjunct must not tighten lat's upper bound.
	if iv := b["lat"]; iv.Lo != 3 || iv.Hi < 5 {
		t.Fatalf("lat bounds %+v", iv)
	}
	if iv := b["value"]; iv.Lo != 0.5 || !math.IsInf(iv.Hi, 1) {
		t.Fatalf("value bounds %+v", iv)
	}
}

// TestCompileArrayErrors checks schema validation.
func TestCompileArrayErrors(t *testing.T) {
	cols := []ColumnInfo{{Name: "level", Int: true}, {Name: "value"}}
	for _, sql := range []string{
		`SELECT nope FROM t`,
		`SELECT value FROM t WHERE name = 'x'`,
		`SELECT value FROM t WHERE SUM(value) > 1`,
		`SELECT *, COUNT(*) FROM t`,
		`SELECT NOPEFN(value) FROM t`,
		`SELECT value FROM t GROUP BY nope`,
	} {
		if _, err := CompileArray(sql, cols); err == nil {
			t.Fatalf("%q should not compile", sql)
		}
	}
	if _, _, err := QueryArrays(map[string]ArrayTable{"t": newFakeTable(2)}, `SELECT value FROM missing`, ArrayQueryOpts{}); err == nil {
		t.Fatal("unknown table should fail")
	}
}

// Bounds returns the per-column predicate intervals extracted from the
// WHERE clause's top-level conjuncts.
func (pl *ArrayPlan) Bounds() map[string]Interval { return pl.bounds }
