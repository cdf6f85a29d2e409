package rframe

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/gif"
	"image/png"
	"math"
	"runtime"
	"sync"
	"testing"
)

// refImage2D is the reference Image2D: one jet per pixel through SetRGBA
// and a one-shot png.Encode — what the pooled implementation must equal
// byte for byte on finite input.
func refImage2D(z []float32, ny, nx int, opts PlotOpts) []byte {
	w, h := opts.Width, opts.Height
	if w <= 0 {
		w = 1200
	}
	if h <= 0 {
		h = 1200
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range z {
		if fv := float64(v); fv < lo {
			lo = fv
		}
		if fv := float64(v); fv > hi {
			hi = fv
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for py := 0; py < h; py++ {
		gy := py * ny / h
		for px := 0; px < w; px++ {
			gx := px * nx / w
			img.SetRGBA(px, py, jet((float64(z[gy*nx+gx])-lo)/(hi-lo)))
		}
	}
	for _, pt := range opts.Highlight {
		markCell(img, pt, ny, nx)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// testGrid is a deterministic bumpy field, different per seed.
func testGrid(ny, nx, seed int) []float32 {
	z := make([]float32, ny*nx)
	for i := range z {
		y, x := i/nx, i%nx
		z[i] = float32(math.Sin(float64(y*(seed+3))/7)*math.Cos(float64(x+seed)/5)) + float32(seed)
	}
	return z
}

// plotCases covers up- and down-scaling, non-divisible ratios, non-square
// grids and images, highlights (including an edge
// cell), and the paper's default resolution.
var plotCases = []struct {
	ny, nx int
	opts   PlotOpts
}{
	{40, 40, PlotOpts{Width: 32, Height: 32}},
	{40, 40, PlotOpts{Width: 32, Height: 32, Highlight: []GridPoint{{Row: 3, Col: 4}, {Row: 39, Col: 39}}}},
	{8, 8, PlotOpts{Width: 24, Height: 24}},
	{7, 13, PlotOpts{Width: 50, Height: 31, Highlight: []GridPoint{{Row: 0, Col: 12}}}},
	{16, 16, PlotOpts{Width: 64, Height: 48}},
	{1, 1, PlotOpts{Width: 5, Height: 3}},
	{40, 40, PlotOpts{}},
	{40, 40, PlotOpts{Highlight: []GridPoint{{Row: 20, Col: 7}}}},
}

// TestImage2DMatchesReference is the golden identity: pooled scratch, the
// per-cell raster and the reused encoder change no output byte. Running
// the cases twice in one process also checks a larger scratch is reused
// cleanly for a smaller image.
func TestImage2DMatchesReference(t *testing.T) {
	for round := 0; round < 2; round++ {
		for i, c := range plotCases {
			z := testGrid(c.ny, c.nx, i)
			got, err := Image2D(z, c.ny, c.nx, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := refImage2D(z, c.ny, c.nx, c.opts); !bytes.Equal(got, want) {
				t.Errorf("round %d case %d (%dx%d -> %dx%d): PNG differs from reference",
					round, i, c.ny, c.nx, c.opts.Width, c.opts.Height)
			}
		}
	}
}

// TestImage2DConcurrent renders from 8 goroutines at once, each checking
// every result against the reference: pooled scratch must not leak
// between calls. Run under -race by `make race`.
func TestImage2DConcurrent(t *testing.T) {
	small := plotCases[:6] // the 1200-px cases are covered serially
	want := make([][]byte, len(small))
	grids := make([][]float32, len(small))
	for i, c := range small {
		grids[i] = testGrid(c.ny, c.nx, i)
		want[i] = refImage2D(grids[i], c.ny, c.nx, c.opts)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				i := (g + n) % len(small)
				c := small[i]
				got, err := Image2D(grids[i], c.ny, c.nx, c.opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d call %d case %d: PNG differs from reference", g, n, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestImage2DNonFinite: NaN and ±Inf cells take the fixed gray and do
// not move the auto-scale, so every finite cell keeps the color it has
// when the non-finite cells hold an in-range value instead.
func TestImage2DNonFinite(t *testing.T) {
	const ny, nx, px = 6, 6, 12
	z := testGrid(ny, nx, 1)
	bad := map[int]float32{
		4:  float32(math.NaN()),
		15: float32(math.Inf(1)),
		29: float32(math.Inf(-1)),
	}
	clean := append([]float32(nil), z...)
	lo := z[0]
	for i, v := range z {
		if _, ok := bad[i]; !ok && v < lo {
			lo = v
		}
	}
	for i, v := range bad {
		z[i], clean[i] = v, lo
	}
	decode := func(z []float32) image.Image {
		data, err := Image2D(z, ny, nx, PlotOpts{Width: px, Height: px})
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	got, want := decode(z), decode(clean)
	for y := 0; y < px; y++ {
		for x := 0; x < px; x++ {
			cell := (y*ny/px)*nx + x*nx/px
			c := color.RGBAModel.Convert(got.At(x, y))
			if _, ok := bad[cell]; ok {
				if c != nonFinite {
					t.Errorf("pixel (%d,%d) of non-finite cell %d = %v, want %v", x, y, cell, c, nonFinite)
				}
			} else if w := color.RGBAModel.Convert(want.At(x, y)); c != w {
				t.Errorf("pixel (%d,%d) of finite cell %d = %v, want %v", x, y, cell, c, w)
			}
		}
	}
	// A grid with no finite cell at all still renders.
	if _, err := Image2D([]float32{float32(math.NaN())}, 1, 1, PlotOpts{Width: 2, Height: 2}); err != nil {
		t.Fatal(err)
	}
}

// refAnimateGIF is the reference AnimateGIF: every pixel through
// Paletted.Set's nearest-color search.
func refAnimateGIF(t *testing.T, pngFrames [][]byte, delayCS int) []byte {
	t.Helper()
	anim := &gif.GIF{}
	for _, data := range pngFrames {
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		b := img.Bounds()
		pal := image.NewPaletted(b, jetPalette)
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				pal.Set(x, y, img.At(x, y))
			}
		}
		anim.Image = append(anim.Image, pal)
		anim.Delay = append(anim.Delay, delayCS)
	}
	var buf bytes.Buffer
	if err := gif.EncodeAll(&buf, anim); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnimateGIFMatchesReference: the memoized palette lookup changes no
// output byte — for Image2D frames (decoded as *image.RGBA), for a frame
// with alpha (*image.NRGBA) in the same animation, and for a decoder
// result with no fast path (gray).
func TestAnimateGIFMatchesReference(t *testing.T) {
	encode := func(img image.Image) []byte {
		var buf bytes.Buffer
		if err := png.Encode(&buf, img); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	const px = 24
	var frames [][]byte
	for f := 0; f < 3; f++ {
		data, err := Image2D(testGrid(8, 8, f), 8, 8, PlotOpts{Width: px, Height: px, Highlight: []GridPoint{{Row: f, Col: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, data)
	}
	alpha := image.NewNRGBA(image.Rect(0, 0, px, px))
	gray := image.NewGray(image.Rect(0, 0, px, px))
	for y := 0; y < px; y++ {
		for x := 0; x < px; x++ {
			c := jet(float64(x) / px)
			alpha.SetNRGBA(x, y, color.NRGBA{R: c.R, G: c.G, B: c.B, A: uint8(64 + 8*y)})
			gray.SetGray(x, y, color.Gray{Y: uint8(10 * x)})
		}
	}
	frames = append(frames, encode(alpha), encode(gray), frames[0])

	got, err := AnimateGIF(frames, 20)
	if err != nil {
		t.Fatal(err)
	}
	if want := refAnimateGIF(t, frames, 20); !bytes.Equal(got, want) {
		t.Fatal("GIF differs from reference")
	}
}

// TestAnimateGIFConcurrent assembles animations from 8 goroutines at once,
// each checking every GIF against a serial call's bytes: the reducers fork
// AnimateGIF onto the data plane, so the palette memo must stay per call
// and jetPalette read-only. Run under -race by `make race`.
func TestAnimateGIFConcurrent(t *testing.T) {
	series := make([][][]byte, 3)
	want := make([][]byte, len(series))
	for s := range series {
		for f := 0; f < 4; f++ {
			data, err := Image2D(testGrid(8, 8, s+f), 8, 8, PlotOpts{Width: 16 + 8*s, Height: 16})
			if err != nil {
				t.Fatal(err)
			}
			series[s] = append(series[s], data)
		}
		var err error
		if want[s], err = AnimateGIF(series[s], 20); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				s := (g + n) % len(series)
				got, err := AnimateGIF(series[s], 20)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[s]) {
					t.Errorf("goroutine %d call %d series %d: GIF differs from the serial call's", g, n, s)
					return
				}
			}
		}()
	}
	wg.Wait()
}

var benchSink []byte

func BenchmarkImage2D(b *testing.B) {
	z := testGrid(40, 40, 0)
	for _, px := range []int{32, 1200} {
		b.Run(fmt.Sprint(px), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * px * px))
			for i := 0; i < b.N; i++ {
				out, err := Image2D(z, 40, 40, PlotOpts{Width: px, Height: px})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}

// BenchmarkAnimateGIF assembles one timestamp's level series at the
// benchmark's size: 10 frames of 32 px.
func BenchmarkAnimateGIF(b *testing.B) {
	var frames [][]byte
	var n int64
	for f := 0; f < 10; f++ {
		data, err := Image2D(testGrid(40, 40, f), 40, 40, PlotOpts{Width: 32, Height: 32})
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, data)
		n += 32 * 32
	}
	b.ReportAllocs()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := AnimateGIF(frames, 20)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

// TestImage2DScratchSurvivesGC: two garbage collections between plots
// (enough to empty a sync.Pool) leave the warm scratch in place, so the
// next call builds no new PNG encoder (~850 KB) and allocates about what a
// steady-state call does.
func TestImage2DScratchSurvivesGC(t *testing.T) {
	z := testGrid(40, 40, 0)
	plot := func() {
		if _, err := Image2D(z, 40, 40, PlotOpts{Width: 32, Height: 32}); err != nil {
			t.Fatal(err)
		}
	}
	plot()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plot()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<10 {
		t.Fatalf("the first plot after two collections allocated %d B, want <= %d", got, 32<<10)
	}
}
