package ioengine

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"scidp/internal/freelist"
)

// The chunk codec: the one place the format plugins (netcdf, hdf5lite)
// inflate and deflate chunk payloads. Deflating uses compress/flate, whose
// compressor (~850 KB of tables zeroed on construction) lives in a
// Deflater for the length of one file encode. Inflating is this file's own
// RFC 1951 decoder: a chunk is decoded whole into an output of exactly its
// declared raw size, so back-references copy from the output itself and
// no window, reader or dictionary is needed. Its Huffman tables sit in
// fixed arrays of an inflater kept on a free list and are rebuilt in
// place per block.
//
// Buffer ownership: kept state never escapes a call. Inflate returns a
// freshly allocated slice of exactly the declared raw size (the engine
// caches it, so it must be owned), Deflate an exact-size copy.

// maxDeflateRatio is DEFLATE's maximum expansion: a 258-byte match costs
// at least two bits. inflateSlack keeps the bound loose for tiny streams.
const (
	maxDeflateRatio = 1032
	inflateSlack    = 258
)

// Inflate decompresses one stored chunk whose header declares rawSize
// decompressed bytes. rawSize comes from a file header, so it is checked
// against DEFLATE's maximum expansion of the stored bytes before anything
// is allocated; a stream that ends short of rawSize or runs past it is an
// error. A truncated stream fails with io.ErrUnexpectedEOF, a damaged one
// with a flate.CorruptInputError, as compress/flate's reader would; bytes
// after the final block are ignored, as there.
func Inflate(stored []byte, rawSize int64) ([]byte, error) {
	if rawSize < 0 || rawSize > int64(len(stored))*maxDeflateRatio+inflateSlack {
		return nil, fmt.Errorf("chunk raw size %d impossible for %d stored bytes", rawSize, len(stored))
	}
	out := make([]byte, rawSize)
	z := inflaters.Get()
	if z == nil {
		z = new(inflater)
	}
	n, err := z.decode(stored, out)
	z.in = nil // do not pin the caller's bytes on the free list
	inflaters.Put(z)
	switch {
	case err == errPastRaw:
		return nil, fmt.Errorf("chunk raw size at least %d, want %d", rawSize+1, rawSize)
	case err != nil:
		return nil, fmt.Errorf("inflate: %w", err)
	case n < len(out):
		return nil, fmt.Errorf("chunk raw size %d, want %d", n, rawSize)
	}
	return out, nil
}

// Huffman tables. An entry is sym<<8 | len for a code of len bits, or
// off<<8 | linkEntry | bits for a root slot whose codes are longer than
// the root: the rest of their bits index the bits-wide subtable at off.
// A zero entry is no code (the unused half of a one-code code, or an empty
// code). The sizes are zlib's ENOUGH bounds for the largest table any
// complete code of 286 literal/length or 30 distance symbols needs at
// these roots (zlib's examples/enough.c), subtables included.
const (
	litRoot   = 9
	distRoot  = 6
	clenRoot  = 7 // code-length codes are at most 7 bits: no subtables
	litTable  = 852
	distTable = 592
	linkEntry = 0x80

	maxCodeLen = 15
	maxLit     = 286 // literal/length symbols a dynamic block may declare
	maxDist    = 30
)

// errPastRaw says the stream holds more than the declared raw size.
var errPastRaw = errors.New("past raw size")

// inflater is one decode's state: the input and its bit reader, and the
// current block's tables and the code lengths they are built from. Only
// the input changes hands; everything else is rebuilt before it is read.
type inflater struct {
	in   []byte
	pos  int    // next byte of in to load into bits
	bits uint64 // loaded input bits, next bit lowest; above nb, zeroes or in[pos:]
	nb   uint   // how many of bits are loaded

	lit  [litTable]uint32
	dist [distTable]uint32
	clen [1 << clenRoot]uint32
	lens [maxLit + maxDist]uint8
}

var inflaters freelist.List[*inflater]

// The fixed-code block's tables (RFC 1951 3.2.6). Distance symbols 30
// and 31 have codes there but no meaning, so a block that uses them is
// corrupt, as in a dynamic block that cannot declare them.
var fixedLit, fixedDist = fixedTables()

func fixedTables() (lit [litTable]uint32, dist [distTable]uint32) {
	var lens [288]uint8
	i := 0
	for _, run := range [...]struct{ end, len int }{{144, 8}, {256, 9}, {280, 7}, {288, 8}} {
		for ; i < run.end; i++ {
			lens[i] = uint8(run.len)
		}
	}
	buildTable(lit[:], lens[:], litRoot)
	for i := range 32 {
		lens[i] = 5
	}
	buildTable(dist[:], lens[:32], distRoot)
	return lit, dist
}

// Length and distance symbols' base values and extra bits (RFC 1951 3.2.5).
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// clenOrder is the order a dynamic header lists code-length code lengths in.
	clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// buildTable fills t with the table for the canonical code of lens (0: no
// code) at a root-bit root, and reports whether the code is usable: a
// complete code, a single 1-bit code or an empty one, the codes
// compress/flate accepts.
func buildTable(t []uint32, lens []uint8, root uint) bool {
	var count, next [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	maxLen := maxCodeLen
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	rt := t[:1<<root]
	clear(rt)
	left := 1 // codes of the current length still free
	for l, code := 1, 0; l <= maxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
		if left = left<<1 - count[l]; left < 0 {
			return false // over-subscribed
		}
	}
	if left != 0 && maxLen > 1 {
		return false // incomplete (left is 1 for an empty or one-code code)
	}
	if maxLen > int(root) {
		// Each root slot with longer codes behind it gets a subtable as
		// wide as the longest of them: codes sharing a root prefix are
		// consecutive, so those are the subtables zlib's bound counts.
		var sub [1 << litRoot]uint8
		code := next
		for _, l := range lens {
			if uint(l) > root {
				slot := reverse(code[l], l) & (1<<root - 1)
				sub[slot] = max(sub[slot], l-uint8(root))
			}
			code[l]++
		}
		off := 1 << root
		for slot, w := range sub[:1<<root] {
			if w > 0 {
				rt[slot] = uint32(off)<<8 | linkEntry | uint32(w)
				off += 1 << w
			}
		}
	}
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		e := uint32(sym)<<8 | uint32(l)
		r := reverse(next[l], l)
		next[l]++
		if uint(l) <= root {
			for i := r; i < len(rt); i += 1 << l {
				rt[i] = e
			}
			continue
		}
		link := rt[r&(1<<root-1)]
		st := t[link>>8:][:1<<(link&15)]
		for i := r >> root; i < len(st); i += 1 << (uint(l) - root) {
			st[i] = e
		}
	}
	return true
}

// reverse returns the low n bits of code in reverse order: DEFLATE packs
// Huffman codes most significant bit first into a least-significant-first
// stream, so tables are indexed by reversed codes.
func reverse(code int, n uint8) int {
	return int(bits.Reverse16(uint16(code)) >> (16 - n))
}

// refill loads bytes of in from pos into hold, which holds nb bits,
// until more than 56 bits are loaded or in is used up. Callers refill
// with fewer than 56 bits loaded.
func refill(in []byte, pos int, hold uint64, nb uint) (int, uint64, uint) {
	if pos+8 <= len(in) {
		return pos + int(63-nb)>>3, hold | binary.LittleEndian.Uint64(in[pos:])<<nb, nb | 56
	}
	for nb <= 56 && pos < len(in) {
		hold |= uint64(in[pos]) << nb
		pos++
		nb += 8
	}
	return pos, hold, nb
}

// lookup returns table t's entry for the code at the bottom of hold.
func lookup(t []uint32, root uint, hold uint64) uint32 {
	e := t[hold&(1<<root-1)]
	if e&linkEntry != 0 {
		e = t[e>>8+uint32(hold>>root)&(1<<(e&15)-1)]
	}
	return e
}

// codeError is the error for a code of n bits with fewer loaded, past the
// end of the input, or for no code (n = 0).
func codeError(n uint, pos int, nb uint) error {
	if n == 0 {
		return corruptAt(pos, nb)
	}
	return io.ErrUnexpectedEOF
}

// corruptAt is the error for damaged input near the read position.
func corruptAt(pos int, nb uint) error {
	return flate.CorruptInputError(pos - int(nb>>3))
}

// take consumes n ≤ 16 bits, or fails with io.ErrUnexpectedEOF if the
// input ends first.
func (z *inflater) take(n uint) (uint32, error) {
	if z.nb < n {
		if z.pos, z.bits, z.nb = refill(z.in, z.pos, z.bits, z.nb); z.nb < n {
			return 0, io.ErrUnexpectedEOF
		}
	}
	v := uint32(z.bits) & (1<<n - 1)
	z.bits >>= n
	z.nb -= n
	return v, nil
}

// decode inflates in into out and returns how many bytes it wrote.
func (z *inflater) decode(in, out []byte) (int, error) {
	z.in, z.pos, z.bits, z.nb = in, 0, 0, 0
	op := 0
	for final := uint32(0); final == 0; {
		hdr, err := z.take(3)
		if err != nil {
			return op, err
		}
		final = hdr & 1
		switch hdr >> 1 {
		case 0:
			op, err = z.storedBlock(out, op)
		case 1:
			op, err = z.huffmanBlock(out, op, &fixedLit, &fixedDist)
		case 2:
			if err = z.readTables(); err == nil {
				op, err = z.huffmanBlock(out, op, &z.lit, &z.dist)
			}
		default:
			err = corruptAt(z.pos, z.nb)
		}
		if err != nil {
			return op, err
		}
	}
	return op, nil
}

// storedBlock copies an uncompressed block from the byte boundary after
// its header.
func (z *inflater) storedBlock(out []byte, op int) (int, error) {
	p := z.pos - int(z.nb>>3) // the unread whole bytes go back to the input
	z.bits, z.nb = 0, 0
	if len(z.in)-p < 4 {
		return op, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(z.in[p:]))
	if ^uint16(n) != binary.LittleEndian.Uint16(z.in[p+2:]) {
		return op, corruptAt(p+4, 0)
	}
	p += 4
	m := min(n, len(z.in)-p)
	if m > len(out)-op {
		return op, errPastRaw
	}
	op += copy(out[op:], z.in[p:p+m])
	z.pos = p + m
	if m < n {
		return op, io.ErrUnexpectedEOF
	}
	return op, nil
}

// readTables reads a dynamic block's header and builds its tables
// (RFC 1951 3.2.7).
func (z *inflater) readTables() error {
	h, err := z.take(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(h&31)+257, int(h>>5&31)+1, int(h>>10)+4
	if nlit > maxLit || ndist > maxDist {
		return corruptAt(z.pos, z.nb)
	}
	var cl [19]uint8
	for _, sym := range clenOrder[:nclen] {
		l, err := z.take(3)
		if err != nil {
			return err
		}
		cl[sym] = uint8(l)
	}
	if !buildTable(z.clen[:], cl[:], clenRoot) {
		return corruptAt(z.pos, z.nb)
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if z.nb < maxCodeLen {
			z.pos, z.bits, z.nb = refill(z.in, z.pos, z.bits, z.nb)
		}
		e := lookup(z.clen[:], clenRoot, z.bits)
		n := uint(e & 15)
		if n == 0 || n > z.nb {
			return codeError(n, z.pos, z.nb)
		}
		z.bits >>= n
		z.nb -= n
		sym := e >> 8
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3–6 times, 17 and 18 repeat a
		// zero 3–10 and 11–138 times.
		if sym == 16 && i == 0 {
			return corruptAt(z.pos, z.nb)
		}
		rep, err := z.take([3]uint{2, 3, 7}[sym-16])
		if err != nil {
			return err
		}
		rep += [3]uint32{3, 3, 11}[sym-16]
		if i+int(rep) > len(lens) {
			return corruptAt(z.pos, z.nb)
		}
		val := uint8(0)
		if sym == 16 {
			val = lens[i-1]
		}
		for range rep {
			lens[i] = val
			i++
		}
	}
	if !buildTable(z.lit[:], lens[:nlit], litRoot) || !buildTable(z.dist[:], lens[nlit:], distRoot) {
		return corruptAt(z.pos, z.nb)
	}
	return nil
}

// huffmanBlock decodes one compressed block's symbols into out from op.
// It keeps the bit reader in locals, which the compiler holds in
// registers, and writes them back on return.
func (z *inflater) huffmanBlock(out []byte, op int, lit *[litTable]uint32, dist *[distTable]uint32) (int, error) {
	in, pos, hold, nb := z.in, z.pos, z.bits, z.nb
	var err error
	for {
		// One refill covers a symbol: a 15-bit length code, 5 extra
		// bits, a 15-bit distance code and 13 extra bits. Past the
		// input's end the loaded bits are zero-padded, so a code longer
		// than what is loaded there means the stream ended early.
		if nb < 48 {
			pos, hold, nb = refill(in, pos, hold, nb)
		}
		e := lookup(lit[:], litRoot, hold)
		n := uint(e & 15)
		if n == 0 || n > nb {
			err = codeError(n, pos, nb)
			break
		}
		hold >>= n
		nb -= n
		sym := int(e >> 8)
		if sym < 256 {
			if op == len(out) {
				err = errPastRaw
				break
			}
			out[op] = byte(sym)
			op++
			continue
		}
		if sym == 256 {
			break
		}
		if sym -= 257; sym >= len(lenBase) {
			err = corruptAt(pos, nb)
			break
		}
		// The length's x extra bits, then the distance code past them.
		x := uint(lenExtra[sym])
		length := int(lenBase[sym]) + int(hold&(1<<x-1))
		e = lookup(dist[:], distRoot, hold>>x)
		if n = uint(e & 15); n == 0 || x+n > nb {
			err = codeError(n, pos, nb)
			break
		}
		x += n
		if sym = int(e >> 8); sym >= len(distBase) {
			err = corruptAt(pos, nb)
			break
		}
		y := uint(distExtra[sym])
		if x+y > nb {
			err = io.ErrUnexpectedEOF
			break
		}
		d := int(distBase[sym]) + int(hold>>x&(1<<y-1))
		hold >>= x + y
		nb -= x + y
		if d > op {
			err = corruptAt(pos, nb)
			break
		}
		if length > len(out)-op {
			err = errPastRaw
			break
		}
		// An overlapping match repeats the last d bytes: each copy doubles
		// the source, which stays a whole number of periods long.
		src, end := op-d, op+length
		for op < end {
			op += copy(out[op:end], out[src:op])
		}
	}
	z.pos, z.bits, z.nb = pos, hold, nb
	return op, err
}

// Deflater compresses chunk payloads, keeping one compressor per level
// and resetting it between chunks. The zero value is ready to use; a
// Deflater is not safe for concurrent use — a file encoder owns one for
// the duration of the encode.
type Deflater struct {
	w   [10]*flate.Writer // indexed by level 1–9, built on first use
	buf bytes.Buffer
}

// Deflate compresses raw at the given DEFLATE level (1–9). The bytes are
// identical to a one-shot flate.NewWriter at that level.
func (d *Deflater) Deflate(raw []byte, level int) ([]byte, error) {
	if level < 1 || level > 9 {
		return nil, fmt.Errorf("ioengine: deflate level %d outside [1,9]", level)
	}
	d.buf.Reset()
	fw := d.w[level]
	if fw == nil {
		var err error
		if fw, err = flate.NewWriter(&d.buf, level); err != nil {
			return nil, err
		}
		d.w[level] = fw
	} else {
		fw.Reset(&d.buf)
	}
	if _, err := fw.Write(raw); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return bytes.Clone(d.buf.Bytes()), nil
}
