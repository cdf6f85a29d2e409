package rframe

import (
	"bytes"
	"image/gif"
	"image/png"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleFrame(t *testing.T) *Frame {
	t.Helper()
	f := New()
	if err := f.AddInt("lat", []int64{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddInt("lon", []int64{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFloat("value", []float64{1.5, -2, 8, 4}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFrameShape(t *testing.T) {
	f := sampleFrame(t)
	if f.NumRows() != 4 || f.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", f.NumRows(), f.NumCols())
	}
	if got := f.Names(); got[2] != "value" {
		t.Fatalf("names = %v", got)
	}
	if f.Col("nope") != nil {
		t.Fatal("missing column should be nil")
	}
}

func TestAddValidation(t *testing.T) {
	f := sampleFrame(t)
	if err := f.AddFloat("value", []float64{1, 2, 3, 4}); err == nil {
		t.Error("duplicate column should fail")
	}
	if err := f.AddFloat("short", []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestFilterOrderHead(t *testing.T) {
	f := sampleFrame(t)
	pos := f.Filter(func(r int) bool { return f.Col("value").F[r] > 0 })
	if pos.NumRows() != 3 {
		t.Fatalf("filtered rows = %d", pos.NumRows())
	}
	desc, err := pos.OrderBy("value", true)
	if err != nil {
		t.Fatal(err)
	}
	if desc.Col("value").F[0] != 8 || desc.Col("value").F[2] != 1.5 {
		t.Fatalf("order = %v", desc.Col("value").F)
	}
	if desc.Head(2).NumRows() != 2 || desc.Head(99).NumRows() != 3 || desc.Head(-1).NumRows() != 0 {
		t.Fatal("Head bounds wrong")
	}
}

func TestTopK(t *testing.T) {
	f := sampleFrame(t)
	top, err := topK(f, "value", 2)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumRows() != 2 || top.Col("value").F[0] != 8 || top.Col("value").F[1] != 4 {
		t.Fatalf("top2 = %v", top.Col("value").F)
	}
}

func TestSummary(t *testing.T) {
	f := sampleFrame(t)
	st, err := f.Summary("value")
	if err != nil {
		t.Fatal(err)
	}
	if st.N != 4 || st.Min != -2 || st.Max != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.Mean-2.875) > 1e-12 {
		t.Fatalf("mean = %v", st.Mean)
	}
	if _, err := f.Summary("nope"); err == nil {
		t.Error("missing column summary should fail")
	}
}

func TestAppend(t *testing.T) {
	a, b := sampleFrame(t), sampleFrame(t)
	if err := a.Append(b); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 8 {
		t.Fatalf("rows after append = %d", a.NumRows())
	}
	// Appending onto empty adopts the schema.
	e := New()
	if err := e.Append(sampleFrame(t)); err != nil {
		t.Fatal(err)
	}
	if e.NumRows() != 4 {
		t.Fatalf("empty append rows = %d", e.NumRows())
	}
	// Mismatched schema fails.
	bad := New().MustAddFloat("x", []float64{1})
	if err := a.Append(bad); err == nil {
		t.Error("schema mismatch append should fail")
	}
}

func TestFromArray3D(t *testing.T) {
	vals := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	f, err := FromArray3D([3]string{"level", "lat", "lon"}, [3]int{5, 10, 20}, [3]int{2, 2, 3}, vals, "QR")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 12 {
		t.Fatalf("rows = %d", f.NumRows())
	}
	// Row 7 = level 1, lat 0, lon 1 locally -> global (6, 10, 21).
	if f.Col("level").I[7] != 6 || f.Col("lat").I[7] != 10 || f.Col("lon").I[7] != 21 {
		t.Fatalf("coords row 7 = %d,%d,%d", f.Col("level").I[7], f.Col("lat").I[7], f.Col("lon").I[7])
	}
	if f.Col("QR").F[7] != 8 {
		t.Fatalf("value row 7 = %v", f.Col("QR").F[7])
	}
	if _, err := FromArray3D([3]string{"a", "b", "c"}, [3]int{0, 0, 0}, [3]int{2, 2, 2}, vals, "v"); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	f := sampleFrame(t)
	text := f.WriteCSV()
	back, err := ReadTable(text)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 4 || back.NumCols() != 3 {
		t.Fatalf("roundtrip shape = %dx%d", back.NumRows(), back.NumCols())
	}
	if back.Col("lat").Kind != Int {
		t.Fatal("lat should infer as Int")
	}
	if back.Col("value").Kind != Float {
		t.Fatal("value should infer as Float")
	}
	for i := 0; i < 4; i++ {
		if back.Col("value").F[i] != f.Col("value").F[i] {
			t.Fatalf("value[%d] = %v", i, back.Col("value").F[i])
		}
	}
}

func TestReadTableStringsAndErrors(t *testing.T) {
	f, err := ReadTable([]byte("name,score\nalice,3\nbob,4.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Col("name").Kind != String || f.Col("score").Kind != Float {
		t.Fatalf("kinds = %v %v", f.Col("name").Kind, f.Col("score").Kind)
	}
	if _, err := ReadTable([]byte("")); err == nil {
		t.Error("empty text should fail")
	}
	if _, err := ReadTable([]byte("a,b\n1\n")); err == nil {
		t.Error("ragged row should fail")
	}
}

func TestColumnAccessors(t *testing.T) {
	c := &Column{Name: "s", Kind: String, S: []string{"2.5", "oops"}}
	if c.Float64At(0) != 2.5 {
		t.Fatalf("parse = %v", c.Float64At(0))
	}
	if !math.IsNaN(c.Float64At(1)) {
		t.Fatal("unparsable string should be NaN")
	}
	ci := &Column{Name: "i", Kind: Int, I: []int64{7}}
	if ci.StringAt(0) != "7" {
		t.Fatalf("StringAt = %q", ci.StringAt(0))
	}
}

func TestImage2DProducesValidPNG(t *testing.T) {
	z := make([]float32, 16*16)
	for i := range z {
		z[i] = float32(i)
	}
	data, err := Image2D(z, 16, 16, PlotOpts{Width: 64, Height: 48})
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 64 || img.Bounds().Dy() != 48 {
		t.Fatalf("decoded size = %v", img.Bounds())
	}
}

func TestImage2DDefaultsAndValidation(t *testing.T) {
	if _, err := Image2D([]float32{1, 2}, 2, 2, PlotOpts{}); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := Image2D(nil, 0, 0, PlotOpts{}); err == nil {
		t.Error("empty grid should fail")
	}
	// Constant field must not divide by zero.
	z := make([]float32, 4)
	if _, err := Image2D(z, 2, 2, PlotOpts{Width: 8, Height: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestImage2DHighlightChangesPixels(t *testing.T) {
	z := make([]float32, 8*8)
	for i := range z {
		z[i] = float32(i % 5)
	}
	plain, err := Image2D(z, 8, 8, PlotOpts{Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	marked, err := Image2D(z, 8, 8, PlotOpts{Width: 32, Height: 32, Highlight: []GridPoint{{Row: 3, Col: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plain, marked) {
		t.Fatal("highlight did not change the image")
	}
}

func TestJetRampEndpoints(t *testing.T) {
	lo, hi := jet(0), jet(1)
	if lo.B <= lo.R {
		t.Fatalf("low end should be blue-ish: %+v", lo)
	}
	if hi.R <= hi.B {
		t.Fatalf("high end should be red-ish: %+v", hi)
	}
}

// TestCSVRoundtripProperty: any frame of ints and floats survives
// WriteCSV/ReadTable with values intact.
func TestCSVRoundtripProperty(t *testing.T) {
	f := func(ints []int16, seed int64) bool {
		if len(ints) == 0 {
			return true
		}
		iv := make([]int64, len(ints))
		fv := make([]float64, len(ints))
		for i, v := range ints {
			iv[i] = int64(v)
			fv[i] = float64(v) * 0.25
		}
		fr := New().MustAddInt("i", iv).MustAddFloat("f", fv)
		back, err := ReadTable(fr.WriteCSV())
		if err != nil {
			return false
		}
		if back.NumRows() != len(ints) {
			return false
		}
		for i := range iv {
			if back.Col("i").Float64At(i) != float64(iv[i]) {
				return false
			}
			if back.Col("f").Float64At(i) != fv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderByIsPermutation: ordering is a stable permutation of the rows —
// every row once, keys in order, rows of equal key in input order and NaNs
// last — in both directions and over heavily tied keys.
func TestOrderByIsPermutation(t *testing.T) {
	f := func(vals []int8, desc bool) bool {
		fv := make([]float64, len(vals))
		id := make([]int64, len(vals))
		for i, v := range vals {
			fv[i] = float64(v % 4) // heavy ties
			if v%7 == 0 {
				fv[i] = math.NaN()
			}
			id[i] = int64(i)
		}
		fr := New().MustAddFloat("v", fv).MustAddInt("id", id)
		sorted, err := fr.OrderBy("v", desc)
		if err != nil || sorted.NumRows() != len(fv) {
			return false
		}
		got, ids := sorted.Col("v").F, sorted.Col("id").I
		seen := make([]bool, len(fv))
		for i, r := range ids {
			if seen[r] || math.Float64bits(fv[r]) != math.Float64bits(got[i]) {
				return false
			}
			seen[r] = true
			if i == 0 {
				continue
			}
			a, b := got[i-1], got[i]
			switch {
			case math.IsNaN(a) && !math.IsNaN(b):
				return false // a number after a NaN
			case math.IsNaN(b):
				if math.IsNaN(a) && ids[i-1] > r {
					return false
				}
			case a == b && ids[i-1] > r:
				return false // a tie out of input order
			case !desc && a > b, desc && a < b:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSVHeaderOnly(t *testing.T) {
	f := New().MustAddFloat("x", nil)
	if got := string(f.WriteCSV()); !strings.HasPrefix(got, "x\n") {
		t.Fatalf("csv = %q", got)
	}
}

func TestAnimateGIF(t *testing.T) {
	var frames [][]byte
	for f := 0; f < 3; f++ {
		z := make([]float32, 8*8)
		for i := range z {
			z[i] = float32((i + f*7) % 11)
		}
		png, err := Image2D(z, 8, 8, PlotOpts{Width: 24, Height: 24})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, png)
	}
	data, err := AnimateGIF(frames, 15)
	if err != nil {
		t.Fatal(err)
	}
	anim, err := gif.DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(anim.Image) != 3 {
		t.Fatalf("frames = %d", len(anim.Image))
	}
	for _, d := range anim.Delay {
		if d != 15 {
			t.Fatalf("delay = %d", d)
		}
	}
	if anim.Image[0].Bounds().Dx() != 24 {
		t.Fatalf("bounds = %v", anim.Image[0].Bounds())
	}
}

func TestAnimateGIFErrors(t *testing.T) {
	if _, err := AnimateGIF(nil, 10); err == nil {
		t.Error("no frames should fail")
	}
	if _, err := AnimateGIF([][]byte{{1, 2, 3}}, 10); err == nil {
		t.Error("non-PNG frame should fail")
	}
	a, _ := Image2D(make([]float32, 4), 2, 2, PlotOpts{Width: 8, Height: 8})
	b, _ := Image2D(make([]float32, 4), 2, 2, PlotOpts{Width: 16, Height: 16})
	if _, err := AnimateGIF([][]byte{a, b}, 10); err == nil {
		t.Error("mismatched frame sizes should fail")
	}
	// Zero delay takes a sane default.
	if _, err := AnimateGIF([][]byte{a}, 0); err != nil {
		t.Errorf("single frame with default delay: %v", err)
	}
}
