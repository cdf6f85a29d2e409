package rframe

import (
	"bytes"
	"compress/lzw"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/png"

	"scidp/internal/freelist"
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

// GIF layout of a jetPalette frame: a local color table of 2^(jetTableBits+1)
// = 128 entries (the 65 colors padded with black) and LZW codes of
// jetLitWidth = jetTableBits+1 bits.
const (
	jetTableBits = 6
	jetLitWidth  = jetTableBits + 1
)

// jetColorTable is jetPalette as a GIF color table.
var jetColorTable = func() (t [3 << jetLitWidth]byte) {
	for i, c := range jetPalette {
		rgba := c.(color.RGBA)
		t[3*i], t[3*i+1], t[3*i+2] = rgba.R, rgba.G, rgba.B
	}
	return t
}()

// AnimateGIF assembles PNG frames (as produced by Image2D) into one
// animated GIF — the paper's animation phase: "The visual outputs are
// usually animations which consist of a series of images generated along
// a specific dimension." delayCS is the per-frame delay in hundredths of
// a second. It decodes each PNG, quantizes it onto jetPalette and hands
// the frames to AnimateFrames. It is safe for concurrent use: its
// palette memo is per call and jetPalette is read-only.
func AnimateGIF(pngFrames [][]byte, delayCS int) ([]byte, error) {
	if len(pngFrames) == 0 {
		return nil, fmt.Errorf("rframe: AnimateGIF needs at least one frame")
	}
	frames := make([]*image.Paletted, len(pngFrames))
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
		frames[i] = image.NewPaletted(bounds, jetPalette)
		quantize(frames[i], img, memo)
	}
	return AnimateFrames(frames, delayCS)
}

// gifScratch is the reusable state of one AnimateFrames call: the LZW
// writer (its 64 KB code table is cleared by Reset, not rebuilt) and the
// sub-block writer with the GIF being assembled. Like plotScratch it is
// kept on a free list and never escapes a call.
type gifScratch struct {
	lzw lzw.Writer
	blk gifBlocks
}

var gifScratches freelist.List[*gifScratch]

// gifBlocks is what the LZW writer writes to: it cuts the code stream
// into the GIF's sub-blocks (a length byte, then 1–255 bytes) and appends
// them to out.
type gifBlocks struct {
	out bytes.Buffer
	buf [256]byte // buf[0] counts the pending sub-block's bytes
}

func (b *gifBlocks) WriteByte(c byte) error {
	b.buf[0]++
	b.buf[b.buf[0]] = c
	if b.buf[0] == 255 {
		b.out.Write(b.buf[:])
		b.buf[0] = 0
	}
	return nil
}

// Write makes gifBlocks an io.Writer for lzw.Writer.Reset, which writes
// through WriteByte.
func (b *gifBlocks) Write(p []byte) (int, error) {
	for _, c := range p {
		b.WriteByte(c)
	}
	return len(p), nil
}

// Flush is called by the LZW writer's Close; the pending sub-block waits
// for end.
func (b *gifBlocks) Flush() error { return nil }

// end writes the pending sub-block, if any, and the block terminator.
func (b *gifBlocks) end() {
	n := b.buf[0]
	if n > 0 {
		b.out.Write(b.buf[:n+1])
	}
	b.out.WriteByte(0)
	b.buf[0] = 0
}

// AnimateFrames assembles jetPalette frames (as produced by Image2DFrame)
// into one looping animated GIF, delayCS hundredths of a second apart (10
// when not positive). Its bytes are what gif.EncodeAll writes for the same
// frames and delays: one LZW writer, reset per frame, serves the whole
// call. Frames must share their bounds and carry the jet palette. Safe for
// concurrent use.
func AnimateFrames(frames []*image.Paletted, delayCS int) ([]byte, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("rframe: AnimateFrames needs at least one frame")
	}
	if delayCS <= 0 {
		delayCS = 10
	}
	b := frames[0].Bounds()
	if b.Min.X < 0 || b.Min.Y < 0 || b.Max.X >= 1<<16 || b.Max.Y >= 1<<16 {
		return nil, fmt.Errorf("rframe: frame bounds %v do not fit a GIF", b)
	}
	for i, f := range frames {
		if f.Bounds() != b {
			return nil, fmt.Errorf("rframe: frame %d bounds %v != %v", i, f.Bounds(), b)
		}
		if !isJetPalette(f.Palette) {
			return nil, fmt.Errorf("rframe: frame %d is not on the jet palette", i)
		}
	}

	s := gifScratches.Get()
	if s == nil {
		s = &gifScratch{}
	}
	defer gifScratches.Put(s)
	out := &s.blk.out
	out.Reset()
	u16 := func(v int) { out.WriteByte(byte(v)); out.WriteByte(byte(v >> 8)) }
	// Header and logical screen: no global color table, background 0,
	// no aspect ratio.
	out.WriteString("GIF89a")
	u16(b.Max.X)
	u16(b.Max.Y)
	out.Write([]byte{0, 0, 0})
	if len(frames) > 1 {
		// NETSCAPE2.0 application extension: loop forever.
		out.Write([]byte{0x21, 0xff, 0x0b})
		out.WriteString("NETSCAPE2.0")
		out.Write([]byte{0x03, 0x01, 0x00, 0x00, 0x00})
	}
	for i, f := range frames {
		// Graphic control extension: no disposal, no transparency.
		out.Write([]byte{0x21, 0xf9, 0x04, 0x00})
		u16(delayCS)
		out.Write([]byte{0x00, 0x00})
		// Image descriptor and local color table.
		out.WriteByte(0x2c)
		u16(b.Min.X)
		u16(b.Min.Y)
		u16(b.Dx())
		u16(b.Dy())
		out.WriteByte(0x80 | jetTableBits)
		out.Write(jetColorTable[:])
		out.WriteByte(jetLitWidth)
		s.blk.buf[0] = 0
		s.lzw.Reset(&s.blk, lzw.LSB, jetLitWidth)
		for off, y := 0, b.Min.Y; y < b.Max.Y; off, y = off+f.Stride, y+1 {
			if _, err := s.lzw.Write(f.Pix[off : off+b.Dx()]); err != nil {
				return nil, fmt.Errorf("rframe: frame %d: %w", i, err)
			}
		}
		s.lzw.Close()
		s.blk.end()
	}
	out.WriteByte(0x3b) // trailer
	return bytes.Clone(out.Bytes()), nil
}

// isJetPalette reports whether p holds exactly jetPalette's colors.
func isJetPalette(p color.Palette) bool {
	if len(p) != len(jetPalette) {
		return false
	}
	for i, c := range p {
		if c != jetPalette[i] {
			return false
		}
	}
	return true
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
