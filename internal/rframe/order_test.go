package rframe

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// sameFrame reports whether two frames have the same columns, kinds and
// cells (floats by bit pattern).
func sameFrame(a, b *Frame) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for i, ca := range a.Columns() {
		cb := b.Columns()[i]
		if ca.Name != cb.Name || ca.Kind != cb.Kind || !slices.Equal(ca.I, cb.I) || !slices.Equal(ca.S, cb.S) ||
			!slices.EqualFunc(ca.F, cb.F, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}

// topK is OrderBy(name, true) cut at k rows, found with Order's k-row
// heap instead of sorting the rest.
func topK(f *Frame, name string, k int) (*Frame, error) { return f.orderBy(name, true, max(k, 0)) }

// TestTopKIsOrderByHead: the k-row heap yields exactly the rows, in exactly
// the order, of the full stable sort cut at k — on tied data and with NaNs.
func TestTopKIsOrderByHead(t *testing.T) {
	f := func(vals []int8, k8 uint8) bool {
		fv := make([]float64, len(vals))
		id := make([]int64, len(vals))
		for i, v := range vals {
			fv[i] = float64(v % 5)
			if v%11 == 0 {
				fv[i] = math.NaN()
			}
			id[i] = int64(i)
		}
		fr := New().MustAddInt("id", id).MustAddFloat("v", fv)
		for _, k := range []int{-1, 0, 1, int(k8), len(fv), len(fv) + 1} {
			top, err := topK(fr, "v", k)
			if err != nil {
				return false
			}
			sorted, _ := fr.OrderBy("v", true)
			if !sameFrame(top, sorted.Head(k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderNaNLast pins the NaN rule: after every number whichever the
// direction, ties among them by input position. On the parent the answer
// depended on the query: x DESC LIMIT 2 gave 3, 2 while x DESC, i DESC
// LIMIT 3 gave NaN, 3, 2.
func TestOrderNaNLast(t *testing.T) {
	nan := math.NaN()
	x := &Column{Kind: Float, F: []float64{3, 1, 2, nan, 2, nan}}
	i := &Column{Kind: Int, I: []int64{0, 1, 2, 3, 4, 5}}
	s := &Column{Kind: String, S: []string{"b", "a", "b", "a", "c", "a"}}
	for _, tc := range []struct {
		name string
		keys []SortKey
		k    int
		want []int
	}{
		{"asc", []SortKey{{Col: x}}, -1, []int{1, 2, 4, 0, 3, 5}},
		{"desc", []SortKey{{Col: x, Desc: true}}, -1, []int{0, 2, 4, 1, 3, 5}},
		{"desc top 2", []SortKey{{Col: x, Desc: true}}, 2, []int{0, 2}},
		{"desc top 5 reaches the NaNs", []SortKey{{Col: x, Desc: true}}, 5, []int{0, 2, 4, 1, 3}},
		{"second key breaks ties, not position", []SortKey{{Col: x, Desc: true}, {Col: i, Desc: true}}, 3, []int{0, 4, 2}},
		{"NaNs tie into the second key", []SortKey{{Col: x}, {Col: i, Desc: true}}, -1, []int{1, 4, 2, 0, 5, 3}},
		{"string then number", []SortKey{{Col: s}, {Col: x, Desc: true}}, 4, []int{1, 3, 5, 0}},
		{"k past the end", []SortKey{{Col: s, Desc: true}}, 99, []int{4, 0, 2, 1, 3, 5}},
		{"k zero", []SortKey{{Col: x}}, 0, []int{}},
	} {
		if got := Order(tc.keys, tc.k); !slices.Equal(got, tc.want) {
			t.Errorf("%s: order = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := Order([]SortKey{{Col: &Column{Kind: Float}}}, 3); len(got) != 0 {
		t.Errorf("no rows: order = %v", got)
	}
}

// TestAppendDoesNotAliasSource: the first Append onto an empty frame used
// to share the source's backing arrays, so with spare capacity there two
// frames grown from the same source overwrote each other's rows.
func TestAppendDoesNotAliasSource(t *testing.T) {
	x := make([]float64, 2, 8)
	x[0], x[1] = 1, 2
	src := New().MustAddFloat("x", x)
	c1, c2 := New(), New()
	for _, step := range []struct {
		to  *Frame
		add *Frame
	}{{c1, src}, {c2, src}, {c1, New().MustAddFloat("x", []float64{10})}, {c2, New().MustAddFloat("x", []float64{20})}} {
		if err := step.to.Append(step.add); err != nil {
			t.Fatal(err)
		}
	}
	if got := c1.Col("x").F; !slices.Equal(got, []float64{1, 2, 10}) {
		t.Errorf("c1 = %v, want [1 2 10]", got)
	}
	if got := c2.Col("x").F; !slices.Equal(got, []float64{1, 2, 20}) {
		t.Errorf("c2 = %v, want [1 2 20]", got)
	}
	if got := x[:3]; !slices.Equal(got, []float64{1, 2, 0}) || src.NumRows() != 2 {
		t.Errorf("source changed: %v, %d rows", got, src.NumRows())
	}
}

func TestConcat(t *testing.T) {
	a := New().MustAddInt("i", []int64{1, 2}).MustAddString("s", []string{"a", "b"})
	b := New().MustAddInt("i", []int64{3}).MustAddString("s", []string{"c"})
	got, err := Concat(a, New().MustAddInt("i", nil).MustAddString("s", nil), b)
	if err != nil {
		t.Fatal(err)
	}
	want := New().MustAddInt("i", []int64{1, 2, 3}).MustAddString("s", []string{"a", "b", "c"})
	if !sameFrame(got, want) {
		t.Fatalf("concat = %s", got.WriteCSV())
	}
	if c := got.Col("i"); cap(c.I) != 3 {
		t.Errorf("column sized %d, want 3 exactly", cap(c.I))
	}
	got.Col("i").I[0] = 99
	if a.Col("i").I[0] != 1 {
		t.Error("Concat shares storage with its first frame")
	}
	if _, err := Concat(a, New().MustAddFloat("x", []float64{1})); err == nil {
		t.Error("schema mismatch should fail")
	}
	if empty, err := Concat(); err != nil || empty.NumCols() != 0 {
		t.Errorf("Concat() = %v, %v", empty, err)
	}
}

// orderBenchFrame is 16 000 rows of five columns: the frame a scidp-anlys
// map task holds, with a tied float key.
func orderBenchFrame(rows int) *Frame {
	f := New()
	for _, name := range []string{"t", "level", "lat", "lon"} {
		col := make([]int64, rows)
		for i := range col {
			col[i] = int64(i % 40)
		}
		f.MustAddInt(name, col)
	}
	v := make([]float64, rows)
	for i := range v {
		v[i] = math.Round(1e3*math.Sin(float64(i)*0.37)) / 8
	}
	return f.MustAddFloat("value", v)
}

var benchFrameSink *Frame

func BenchmarkOrderBy(b *testing.B) {
	f := orderBenchFrame(16000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchFrameSink, _ = f.OrderBy("value", true)
	}
}

func BenchmarkTopK(b *testing.B) {
	f := orderBenchFrame(16000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchFrameSink, _ = topK(f, "value", 160)
	}
}

// BenchmarkWriteCSV renders the Anlys reducer's combined top-1 % frame.
func BenchmarkWriteCSV(b *testing.B) {
	f := orderBenchFrame(5120)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = f.WriteCSV()
	}
}
