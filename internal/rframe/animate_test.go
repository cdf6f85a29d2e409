package rframe

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math"
	"testing"
)

// decodeFrame is what AnimateGIF makes of one PNG: decode, then quantize
// onto jetPalette.
func decodeFrame(t *testing.T, data []byte) *image.Paletted {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	pal := image.NewPaletted(img.Bounds(), jetPalette)
	quantize(pal, img, map[uint64]uint8{})
	return pal
}

// TestImage2DFrameMatchesDecodedPNG: the frame Image2DFrame returns is,
// pixel for pixel, the quantized decode of the PNG it returns beside it,
// and that PNG is Image2D's. The cases cover highlights, non-square grids
// and images, and NaN/±Inf cells; running them twice checks the warm
// scratch memo changes nothing.
func TestImage2DFrameMatchesDecodedPNG(t *testing.T) {
	type plotCase struct {
		z      []float32
		ny, nx int
		opts   PlotOpts
	}
	var cases []plotCase
	for i, c := range plotCases {
		cases = append(cases, plotCase{testGrid(c.ny, c.nx, i), c.ny, c.nx, c.opts})
	}
	bad := testGrid(6, 9, 2)
	bad[4], bad[15], bad[29] = float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))
	cases = append(cases, plotCase{bad, 6, 9, PlotOpts{Width: 27, Height: 18, Highlight: []GridPoint{{Row: 1, Col: 6}}}})

	for round := 0; round < 2; round++ {
		for i, c := range cases {
			data, frame, err := Image2DFrame(c.z, c.ny, c.nx, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Image2D(c.z, c.ny, c.nx, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Errorf("round %d case %d: Image2DFrame's PNG differs from Image2D's", round, i)
			}
			ref := decodeFrame(t, data)
			if frame.Rect != ref.Rect || frame.Stride != ref.Stride || !isJetPalette(frame.Palette) {
				t.Fatalf("round %d case %d: frame %v stride %d, want %v stride %d on the jet palette",
					round, i, frame.Rect, frame.Stride, ref.Rect, ref.Stride)
			}
			if !bytes.Equal(frame.Pix, ref.Pix) {
				t.Errorf("round %d case %d: frame pixels differ from the decoded PNG's", round, i)
			}
		}
	}
}

// TestAnimateFramesMatchesReference: AnimateFrames over Image2DFrame's
// frames writes the bytes AnimateGIF and gif.EncodeAll (refAnimateGIF)
// write for the PNGs: one frame (no loop block), a timestamp's ten, and
// 200 px frames whose LZW streams run over many 255-byte sub-blocks.
func TestAnimateFramesMatchesReference(t *testing.T) {
	for _, c := range []struct{ frames, px int }{{1, 32}, {10, 32}, {3, 200}} {
		var pngs [][]byte
		var frames []*image.Paletted
		for f := 0; f < c.frames; f++ {
			data, frame, err := Image2DFrame(testGrid(40, 40, f), 40, 40,
				PlotOpts{Width: c.px, Height: c.px, Highlight: []GridPoint{{Row: f, Col: 2 * f}}})
			if err != nil {
				t.Fatal(err)
			}
			pngs, frames = append(pngs, data), append(frames, frame)
		}
		got, err := AnimateFrames(frames, 20)
		if err != nil {
			t.Fatal(err)
		}
		if c.px == 200 && len(got) < 4*256*c.frames {
			t.Fatalf("%d px GIF is %d bytes: too small to cross several sub-blocks a frame", c.px, len(got))
		}
		adapter, err := AnimateGIF(pngs, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, adapter) {
			t.Errorf("%d frames of %d px: AnimateFrames differs from AnimateGIF", c.frames, c.px)
		}
		if want := refAnimateGIF(t, pngs, 20); !bytes.Equal(got, want) {
			t.Errorf("%d frames of %d px: AnimateFrames differs from gif.EncodeAll", c.frames, c.px)
		}
	}
}

// TestAnimateFramesRefusals: no frames, frames of different bounds, bounds
// a GIF cannot hold and a frame on another palette are errors, not a GIF.
func TestAnimateFramesRefusals(t *testing.T) {
	_, a, err := Image2DFrame(make([]float32, 4), 2, 2, PlotOpts{Width: 8, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Image2DFrame(make([]float32, 4), 2, 2, PlotOpts{Width: 16, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	foreign := image.NewPaletted(a.Rect, color.Palette{color.Black, color.White})
	short := image.NewPaletted(a.Rect, jetPalette[:64])
	for name, frames := range map[string][]*image.Paletted{
		"no frames":       nil,
		"mismatched size": {a, b},
		"foreign palette": {a, foreign},
		"short palette":   {short},
		"too wide":        {image.NewPaletted(image.Rect(0, 0, 1<<16, 1), jetPalette)},
		"negative origin": {image.NewPaletted(image.Rect(-1, 0, 4, 4), jetPalette)},
	} {
		if _, err := AnimateFrames(frames, 10); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
	// A copy of the jet palette is the jet palette.
	same := image.NewPaletted(a.Rect, append(color.Palette(nil), jetPalette...))
	if _, err := AnimateFrames([]*image.Paletted{a, same}, 0); err != nil {
		t.Errorf("a copied jet palette: %v", err)
	}
}
