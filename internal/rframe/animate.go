package rframe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/gif"
	"image/png"
)

// jetPalette is the 64-entry color table animations quantize to (the
// same blue-cyan-yellow-red ramp Image2D uses, plus black for highlight
// marks).
var jetPalette = func() color.Palette {
	p := make(color.Palette, 0, 65)
	for i := 0; i < 64; i++ {
		p = append(p, jet(float64(i)/63))
	}
	p = append(p, color.RGBA{A: 255}) // highlight black
	return p
}()

// AnimateGIF assembles PNG frames (as produced by Image2D) into one
// animated GIF — the paper's animation phase: "The visual outputs are
// usually animations which consist of a series of images generated along
// a specific dimension." delayCS is the per-frame delay in hundredths of
// a second. It is safe for concurrent use — the palette memo is per call
// and jetPalette is read-only — so the reducers run it on the data plane.
func AnimateGIF(pngFrames [][]byte, delayCS int) ([]byte, error) {
	if len(pngFrames) == 0 {
		return nil, fmt.Errorf("rframe: AnimateGIF needs at least one frame")
	}
	if delayCS <= 0 {
		delayCS = 10
	}
	anim := &gif.GIF{}
	var bounds image.Rectangle
	// Frames hold a few hundred distinct colors, so the nearest-palette
	// search runs once per color, not once per pixel.
	memo := map[uint64]uint8{}
	for i, data := range pngFrames {
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("rframe: frame %d: %w", i, err)
		}
		if i == 0 {
			bounds = img.Bounds()
		} else if img.Bounds() != bounds {
			return nil, fmt.Errorf("rframe: frame %d bounds %v != %v", i, img.Bounds(), bounds)
		}
		pal := image.NewPaletted(bounds, jetPalette)
		quantize(pal, img, memo)
		anim.Image = append(anim.Image, pal)
		anim.Delay = append(anim.Delay, delayCS)
	}
	var buf bytes.Buffer
	if err := gif.EncodeAll(&buf, anim); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// straightAlpha marks a memo key as an NRGBA pixel: the same four Pix
// bytes name a different color in an RGBA (premultiplied) frame.
const straightAlpha = 1 << 32

// quantize maps every pixel of img to its nearest palette entry in dst
// (same bounds), looking each distinct color up once through memo, keyed
// by the pixel's four Pix bytes. The PNG decoder's 8-bit results are read
// from Pix directly; anything else goes through color.Color, unmemoized.
func quantize(dst *image.Paletted, img image.Image, memo map[uint64]uint8) {
	b := dst.Bounds()
	var pix []uint8
	var stride int
	var layout uint64
	switch m := img.(type) {
	case *image.RGBA:
		pix, stride = m.Pix[m.PixOffset(b.Min.X, b.Min.Y):], m.Stride
	case *image.NRGBA:
		pix, stride, layout = m.Pix[m.PixOffset(b.Min.X, b.Min.Y):], m.Stride, straightAlpha
	default:
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				dst.Set(x, y, img.At(x, y))
			}
		}
		return
	}
	last, lastIdx := ^uint64(0), uint8(0) // scaled-up grids repeat pixels in runs
	for y := 0; y < b.Dy(); y++ {
		src := pix[y*stride:]
		out := dst.Pix[y*dst.Stride : y*dst.Stride+b.Dx()]
		for x := range out {
			p := src[4*x : 4*x+4]
			if k := layout | uint64(binary.LittleEndian.Uint32(p)); k != last {
				idx, ok := memo[k]
				if !ok {
					var c color.Color = color.RGBA{R: p[0], G: p[1], B: p[2], A: p[3]}
					if layout == straightAlpha {
						c = color.NRGBA{R: p[0], G: p[1], B: p[2], A: p[3]}
					}
					idx = uint8(dst.Palette.Index(c))
					memo[k] = idx
				}
				last, lastIdx = k, idx
			}
			out[x] = lastIdx
		}
	}
}
