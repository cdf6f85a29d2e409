package ioengine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
)

// The chunk container: what netcdf and hdf5lite share beneath their
// dialects (DESIGN.md "One chunk container"). A file is
//
//	magic | headerLen u64 | header | chunk payloads
//
// and everything about bytes, bounds and DEFLATE is here: the preamble, the
// header codec, the zone-map trailer, the one validation a chunk index
// passes before a reader sees it and, in chunk.go, the element type and
// the chunk record with its read paths. A dialect owns its header's schema
// and nothing else. A header is bytes from outside: every count the Decoder
// hands out is held to the header bytes left, and CheckArray holds every
// number a reader sizes a buffer by to the file's length, so a file cannot
// make its reader allocate more than maxDeflateRatio × its own size at once.

// Dialect names one format built on the container.
type Dialect struct {
	// Name prefixes the dialect's errors ("netcdf").
	Name string
	// Magic is the 4-byte file signature.
	Magic string
}

// Detect reports whether r starts with the dialect's magic — the
// format-checking probe the Sci-format Head Reader uses (the analogue of
// nc_open succeeding / H5Fis_hdf5).
func (c Dialect) Detect(r Source) bool {
	b, err := r.ReadAt(0, int64(len(c.Magic)))
	return err == nil && string(b) == c.Magic
}

// Header is what Open read of a file's header: enough for a later reader
// to tell, reading it again, that the file is still the one decoded.
type Header struct {
	// Dialect is the format the header was read as.
	Dialect Dialect
	// Bytes is the header's length, preamble included — the
	// metadata-only cost of opening the file.
	Bytes int64
	// CRC is the CRC-32 (IEEE) of the header body.
	CRC uint32
}

// ReadHeader makes Open's two range-reads, the fixed prefix and then the
// header body, and returns the body with its Header. It decodes nothing:
// a reader that holds a Header from an earlier Open compares the two to
// tell whether the file is still the one decoded.
func (c Dialect) ReadHeader(r Source) ([]byte, Header, error) {
	n := int64(len(c.Magic)) + 8
	prefix, err := r.ReadAt(0, n)
	if err != nil {
		return nil, Header{}, err
	}
	if int64(len(prefix)) < n || string(prefix[:len(c.Magic)]) != c.Magic {
		return nil, Header{}, fmt.Errorf("%s: not a %s file", c.Name, c.Magic)
	}
	hlen := int64(binary.LittleEndian.Uint64(prefix[len(c.Magic):]))
	if hlen <= 0 || hlen > r.Size()-n {
		return nil, Header{}, fmt.Errorf("%s: corrupt header length %d", c.Name, hlen)
	}
	hdr, err := r.ReadAt(n, hlen)
	if err != nil {
		return nil, Header{}, err
	}
	if int64(len(hdr)) < hlen {
		return nil, Header{}, fmt.Errorf("%s: truncated header: got %d of %d bytes", c.Name, len(hdr), hlen)
	}
	return hdr, Header{Dialect: c, Bytes: n + hlen, CRC: crc32.ChecksumIEEE(hdr)}, nil
}

// Open reads the preamble and the header without touching any payload,
// and returns a Decoder over the header.
func (c Dialect) Open(r Source) (*Decoder, error) {
	hdr, h, err := c.ReadHeader(r)
	if err != nil {
		return nil, err
	}
	return &Decoder{Header: h, name: c.Name, buf: hdr, next: h.Bytes, size: r.Size()}, nil
}

// Decoder is a bounds-checked little-endian reader over a header. The
// first failure sticks and later reads return zeroes, so a dialect decodes
// straight through and asks Err at the end (and in loops, to stop early).
type Decoder struct {
	// Header is what Open read.
	Header Header

	name string
	buf  []byte
	off  int
	err  error
	// names holds every string Str returned, end to end: a header's names
	// cost a few blocks, not one allocation each, and alias no source bytes.
	names strings.Builder
	// next is the lowest offset the next chunk payload may start at
	// (Header.Bytes at first); size is the file's length.
	next, size int64
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Failf records a header error, the dialect's own included, unless one is
// already set.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.name+": "+format, args...)
	}
}

var zeroes [ChunkStatsSize]byte // what a failed Decoder reads

// take returns the next n header bytes, or zeroes once the decoder has
// failed (n is then a fixed field width: counts come back 0 on failure).
func (d *Decoder) take(n int) []byte {
	if d.err == nil && n > len(d.buf)-d.off {
		d.Failf("truncated header (want %d bytes at %d, have %d)", n, d.off, len(d.buf))
	}
	if d.err != nil {
		return zeroes[:n]
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 { return d.take(1)[0] }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }

// Int reads a uint64 that must fit a non-negative int: a dimension, an
// extent, an offset or a size.
func (d *Decoder) Int() int {
	v := d.U64()
	if v > math.MaxInt {
		d.Failf("corrupt header: %d at %d is no length or offset", v, d.off-8)
		return 0
	}
	return int(v)
}

// Count reads a uint32 element count whose elements take at least min
// header bytes each. A count the rest of the header has no room for is a
// truncated header, so nothing is ever sized by a number a file only
// declares.
func (d *Decoder) Count(min int) int {
	n := int(d.U32())
	if room := (len(d.buf) - d.off) / min; n > room {
		d.Failf("truncated header (%d entries of %d+ bytes declared at %d, room for %d)", n, min, d.off, room)
		return 0
	}
	return n
}

// Rank reads an array's dimension count, min header bytes or more a
// dimension: at least one, at most MaxRank.
func (d *Decoder) Rank(min int) int {
	n := d.Count(min)
	if d.err == nil && (n < 1 || n > MaxRank) {
		d.Failf("array rank %d outside [1,%d]", n, MaxRank)
		return 0
	}
	return n
}

// firstNames is the names' first block: a NU-WRF header's take ~600 bytes.
const firstNames = 1 << 10

// Str reads a length-prefixed string as a substring of the names Builder.
// A Builder only appends, and a full one leaves its block to the strings
// already handed out, so no string returned ever changes.
func (d *Decoder) Str() string {
	b := d.take(d.Count(1))
	if d.names.Cap() == 0 {
		d.names.Grow(min(len(d.buf), firstNames))
	}
	n := d.names.Len()
	d.names.Write(b)
	return d.names.String()[n:]
}

// Chunk reads one chunk index entry's offset, stored size and raw size.
func (d *Decoder) Chunk() Chunk {
	return Chunk{Offset: int64(d.Int()), StoredSize: int64(d.Int()), RawSize: int64(d.Int())}
}

// Layout is what a header declares of one array's storage: its name (for
// errors), its element type (Valid: the dialect checked), its chunk grid,
// and whether payloads are DEFLATE streams.
type Layout struct {
	Name     string
	Type     Type
	Grid     Grid
	Deflated bool
}

// rawBytes returns the byte size of an array, refusing a dimension below
// one and a size (overflow included) beyond what a file of this length
// could hold were it all one DEFLATE stream.
func (d *Decoder) rawBytes(name string, t Type, shape []int) int64 {
	total := int64(t.Size())
	for i, dim := range shape {
		if dim < 1 || int64(dim) > d.size*maxDeflateRatio/total {
			d.Failf("%s: dimension %d has length %d in a %d-byte file", name, i, dim, d.size)
			return 0
		}
		total *= int64(dim)
	}
	return total
}

// claim takes the stored range [off, off+n) for a payload: inside the
// file, past the header and past every payload claimed before it — the
// ascending, non-overlapping order every writer emits, which keeps the sum
// of stored sizes, and through it of raw sizes, under the file's.
func (d *Decoder) claim(name string, off, n int64) {
	if d.err == nil && (off < d.next || n < 1 || n > d.size-off) {
		d.Failf("%s: payload [%d,+%d) outside the unclaimed file [%d,%d)", name, off, n, d.next, d.size)
	}
	d.next = off + n
}

// CheckArray is the container's one validation, run at Open on every
// array with its chunk index: dims > 0 with an overflow-checked volume,
// chunk extents in [1, dim], as many chunks as the chunk grid has cells,
// each raw size = the chunk's clamped box × the element size, stored = raw when not deflated and raw within DEFLATE's maximum
// expansion of stored when deflated, every payload claimed in ascending
// order inside the file. Readers index and allocate by these numbers
// afterwards without re-deriving any of them.
func (d *Decoder) CheckArray(a Layout, chunks []Chunk) {
	if d.err != nil {
		return // what was decoded after a failure is zeroes, not a layout
	}
	g, n := a.Grid, len(chunks)
	if d.rawBytes(a.Name, a.Type, g.Shape); d.err != nil {
		return
	}
	cells := 1
	for i, dim := range g.Shape {
		if g.Chunk[i] < 1 || g.Chunk[i] > dim {
			d.Failf("%s: chunk extent %d outside [1,%d]", a.Name, g.Chunk[i], dim)
			return
		}
		c := g.cells(i)
		if c > n/cells { // cells*c > n: stop before the product can overflow
			cells = n + 1
			break
		}
		cells *= c
	}
	if cells != n {
		d.Failf("%s: %d chunks in the index, the chunk grid has %d or more cells", a.Name, n, cells)
		return
	}
	es := int64(a.Type.Size())
	for j := 0; j < n && d.err == nil; j++ {
		box := es
		g.box(j, func(_, _, extent int) { box *= int64(extent) })
		c := &chunks[j]
		d.claim(a.Name, c.Offset, c.StoredSize)
		switch {
		case d.err != nil:
		case c.RawSize != box:
			d.Failf("%s: chunk %d raw size %d, its box holds %d", a.Name, j, c.RawSize, box)
		case !a.Deflated && c.StoredSize != c.RawSize:
			d.Failf("%s: chunk %d stores %d bytes for %d uncompressed", a.Name, j, c.StoredSize, c.RawSize)
		case c.RawSize > c.StoredSize*maxDeflateRatio:
			d.Failf("%s: chunk %d raw size %d impossible for %d stored bytes", a.Name, j, c.RawSize, c.StoredSize)
		}
	}
}

// ZoneMaps consumes the tag of the statistics trailer that follows the
// dialect's schema in every header: a header without it is refused.
func (d *Decoder) ZoneMaps() {
	if d.err == nil && (len(d.buf)-d.off < 4 || binary.LittleEndian.Uint32(d.buf[d.off:]) != ZoneMapTag) {
		d.Failf("corrupt header: no zone-map trailer tag at %d", d.off)
	}
	d.take(4)
}

// ChunkStats reads one array's section of the trailer (sections follow in
// the dialect's header order): a record count, which must be the array's
// chunk count, then one record per chunk, decoded into that chunk's Stats.
func (d *Decoder) ChunkStats(name string, chunks []Chunk) {
	n := int(d.U32())
	if room := (len(d.buf) - d.off) / ChunkStatsSize; d.err == nil && (n != len(chunks) || n > room) {
		d.Failf("%s: zone-map trailer section holds %d records (room for %d), index has %d chunks", name, n, room, len(chunks))
	}
	for j := range chunks { // zeroes once the decoder has failed
		chunks[j].Stats = DecodeChunkStats(d.take(ChunkStatsSize))
	}
}

// Encoder builds one file. Its chunks are packed first, in storage order
// (Array, then Pack per chunk); then Dialect.Encode runs the dialect's
// header function over the same Encoder, which writes the header around
// the index records Pack returned.
type Encoder struct {
	deflater Deflater // one compressor per level for the whole encode
	payloads [][]byte
	stats    [][]ChunkStats // per array, for the trailer
	buf      []byte
	next     int64 // where the next chunk payload lands
}

// Array starts the next array's chunks (the trailer has a section each).
func (e *Encoder) Array() { e.stats = append(e.stats, nil) }

// Pack stores one raw chunk of the current array, deflated at level
// unless that is 0 and summarised into its zone map while the bytes are in
// hand, and returns its index record for the header's Chunk call.
func (e *Encoder) Pack(t Type, level int, raw []byte) (Chunk, error) {
	payload := raw
	if level > 0 {
		var err error
		if payload, err = e.deflater.Deflate(raw, level); err != nil {
			return Chunk{}, err
		}
	}
	st := SummarizeChunk(len(raw)/t.Size(), func(i int) float64 { return t.Float64At(raw, i) })
	e.stats[len(e.stats)-1] = append(e.stats[len(e.stats)-1], st)
	e.payloads = append(e.payloads, payload)
	return Chunk{StoredSize: int64(len(payload)), RawSize: int64(len(raw))}, nil
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Chunk appends c's index entry — offset, stored size, raw size — placing
// its payload directly after the previous chunk's and recording that in
// c.Offset. Chunks are indexed in the order they were packed.
func (e *Encoder) Chunk(c *Chunk) {
	c.Offset = e.next
	e.U64(uint64(c.Offset))
	e.U64(uint64(c.StoredSize))
	e.U64(uint64(c.RawSize))
	e.next += c.StoredSize
}

// pass writes the header once: the dialect's part, then the statistics
// trailer — the tag, then per array, in packing order, a chunk count and
// one fixed-size record per chunk.
func (e *Encoder) pass(header func() error) error {
	if err := header(); err != nil {
		return err
	}
	e.U32(ZoneMapTag)
	for _, stats := range e.stats {
		e.U32(uint32(len(stats)))
		for _, s := range stats {
			e.buf = s.Append(e.buf)
		}
	}
	return nil
}

// Encode assembles the file whose chunks e has packed: the preamble, the
// header that the dialect's header function writes through e, then the
// payloads. Offsets depend on the header's length and the header holds
// the offsets, so header runs twice: a probe to size it (every field is
// fixed-width once the metadata is), then for real.
func (c Dialect) Encode(e *Encoder, header func() error) ([]byte, error) {
	e.buf, e.next = nil, 0
	if err := e.pass(header); err != nil {
		return nil, err
	}
	hlen := len(e.buf)
	base := len(c.Magic) + 8 + hlen
	total := base
	for _, p := range e.payloads {
		total += len(p)
	}
	e.buf, e.next = append(make([]byte, 0, total), c.Magic...), int64(base)
	e.U64(uint64(hlen))
	if err := e.pass(header); err != nil {
		return nil, err
	}
	if len(e.buf) != base {
		return nil, fmt.Errorf("%s: internal error: header size changed %d -> %d", c.Name, base, len(e.buf))
	}
	for _, p := range e.payloads {
		e.buf = append(e.buf, p...)
	}
	return e.buf, nil
}
