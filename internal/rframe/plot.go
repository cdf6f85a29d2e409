package rframe

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"

	"scidp/internal/freelist"
)

// PlotOpts configures Image2D, mirroring plot3D::image2D on a CairoPNG
// device.
type PlotOpts struct {
	// Width and Height are the output image dimensions in pixels
	// (defaults 1200x1200, the paper's default resolution).
	Width, Height int
	// Highlight marks the given (row, col) grid cells with a contrasting
	// ring — the paper's "top 10 data points are highlighted" analysis.
	Highlight []GridPoint
}

// GridPoint addresses one cell of the plotted grid.
type GridPoint struct {
	// Row is the grid row (first array dimension).
	Row int
	// Col is the grid column (second array dimension).
	Col int
}

// plotScratch is the reusable state of one Image2D call: the raster, the
// PNG encoder with its zlib compressor and row buffers (the EncoderBuffer,
// ~850 KB to build), the encode output and Image2DFrame's palette memo
// (raster color to nearest jetPalette index; its keys are the jet ramp's
// outputs plus the non-finite gray and the highlight black, so it stays
// small and warm across calls). Scratch is kept on a free list and never
// escapes a call — Image2D returns an owned copy of the encoded bytes.
type plotScratch struct {
	img  image.RGBA
	enc  png.Encoder
	buf  *png.EncoderBuffer
	out  bytes.Buffer
	memo map[uint64]uint8
}

// Get and Put implement png.EncoderBufferPool over the scratch's one
// buffer.
func (s *plotScratch) Get() *png.EncoderBuffer  { return s.buf }
func (s *plotScratch) Put(b *png.EncoderBuffer) { s.buf = b }

var plotScratches freelist.List[*plotScratch]

func getScratch() *plotScratch {
	if s := plotScratches.Get(); s != nil {
		return s
	}
	s := &plotScratch{memo: map[uint64]uint8{}}
	s.enc.BufferPool = s
	return s
}

// nonFinite is the fixed color of NaN and ±Inf cells (fill values), which
// have no place on the ramp.
var nonFinite = color.RGBA{R: 128, G: 128, B: 128, A: 255}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Image2D rasterizes a ny-by-nx float32 grid into a PNG using a jet-style
// color ramp, nearest-neighbor scaled to the requested resolution. It
// returns the encoded PNG bytes (what a Map task writes to HDFS). Non-
// finite cells are left out of the auto-scale and painted gray. Safe for
// concurrent use.
func Image2D(z []float32, ny, nx int, opts PlotOpts) ([]byte, error) {
	data, _, err := render(z, ny, nx, opts, false)
	return data, err
}

// Image2DFrame is Image2D that also returns the raster as an animation
// frame on the jet palette: pixel for pixel what AnimateGIF makes of the
// PNG, without decoding it. Safe for concurrent use.
func Image2DFrame(z []float32, ny, nx int, opts PlotOpts) ([]byte, *image.Paletted, error) {
	return render(z, ny, nx, opts, true)
}

// render draws one Image2D raster into scratch, encodes it and, when
// frame is set, quantizes it onto jetPalette.
func render(z []float32, ny, nx int, opts PlotOpts, frame bool) ([]byte, *image.Paletted, error) {
	if len(z) != ny*nx {
		return nil, nil, fmt.Errorf("rframe: Image2D got %d values for %dx%d grid", len(z), ny, nx)
	}
	if ny <= 0 || nx <= 0 {
		return nil, nil, fmt.Errorf("rframe: Image2D grid %dx%d invalid", ny, nx)
	}
	w, h := opts.Width, opts.Height
	if w <= 0 {
		w = 1200
	}
	if h <= 0 {
		h = 1200
	}
	// The color scale spans the finite data.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range z {
		fv := float64(v)
		if !finite(fv) {
			continue
		}
		if fv < lo {
			lo = fv
		}
		if fv > hi {
			hi = fv
		}
	}
	if hi <= lo {
		hi = lo + 1
	}

	s := getScratch()
	defer plotScratches.Put(s)
	img := &s.img
	img.Rect = image.Rect(0, 0, w, h)
	img.Stride = 4 * w
	if n := 4 * w * h; cap(img.Pix) < n {
		img.Pix = make([]uint8, n)
	} else {
		img.Pix = img.Pix[:n]
	}
	// Nearest-neighbor scaling repeats grid cells: color once per cell a
	// pixel row visits, and copy the row above while it maps to the same
	// grid row. Every pixel is written, so stale scratch never shows.
	prevGy := -1
	for py := 0; py < h; py++ {
		row := img.Pix[py*img.Stride : py*img.Stride+4*w]
		gy := py * ny / h
		if gy == prevGy {
			copy(row, img.Pix[(py-1)*img.Stride:])
			continue
		}
		prevGy = gy
		prevGx := -1
		var c color.RGBA
		for px := 0; px < w; px++ {
			if gx := px * nx / w; gx != prevGx {
				prevGx = gx
				if fv := float64(z[gy*nx+gx]); finite(fv) {
					c = jet((fv - lo) / (hi - lo))
				} else {
					c = nonFinite
				}
			}
			p := row[4*px : 4*px+4 : 4*px+4]
			p[0], p[1], p[2], p[3] = c.R, c.G, c.B, c.A
		}
	}
	for _, pt := range opts.Highlight {
		markCell(img, pt, ny, nx)
	}
	s.out.Reset()
	if err := s.enc.Encode(&s.out, img); err != nil {
		return nil, nil, err
	}
	var pal *image.Paletted
	if frame {
		pal = image.NewPaletted(img.Rect, jetPalette)
		quantize(pal, img, s.memo)
	}
	return bytes.Clone(s.out.Bytes()), pal, nil
}

// jet maps v in [0,1] onto a blue-cyan-yellow-red ramp.
func jet(v float64) color.RGBA {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	r := clamp01(1.5 - math.Abs(4*v-3))
	g := clamp01(1.5 - math.Abs(4*v-2))
	b := clamp01(1.5 - math.Abs(4*v-1))
	return color.RGBA{R: uint8(r * 255), G: uint8(g * 255), B: uint8(b * 255), A: 255}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// markCell draws a small black ring around the pixel block of one grid
// cell.
func markCell(img *image.RGBA, pt GridPoint, ny, nx int) {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	x0 := pt.Col * w / nx
	x1 := (pt.Col + 1) * w / nx
	y0 := pt.Row * h / ny
	y1 := (pt.Row + 1) * h / ny
	black := color.RGBA{A: 255}
	for x := x0; x < x1 && x < w; x++ {
		img.SetRGBA(x, clampInt(y0, h-1), black)
		img.SetRGBA(x, clampInt(y1-1, h-1), black)
	}
	for y := y0; y < y1 && y < h; y++ {
		img.SetRGBA(clampInt(x0, w-1), y, black)
		img.SetRGBA(clampInt(x1-1, w-1), y, black)
	}
}

func clampInt(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}
