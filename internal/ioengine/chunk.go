package ioengine

import (
	"encoding/binary"
	"fmt"
	"math"

	"scidp/internal/sim"
)

// Type is the element type of a stored array. The values are netcdf's
// on-disk codes; hdf5lite maps its own codes onto them.
type Type uint8

// Element types.
const (
	Byte Type = iota + 1
	Int32
	Int64
	Float32
	Float64
)

var (
	typeSizes = [...]int{Byte: 1, Int32: 4, Int64: 8, Float32: 4, Float64: 8}
	typeNames = [...]string{Byte: "byte", Int32: "int", Int64: "int64", Float32: "float", Float64: "double"}
)

// Valid reports whether t is one of the element types. Open refuses a
// header whose type is not, and the writers refuse to declare one.
func (t Type) Valid() bool { return t >= Byte && t <= Float64 }

// mustValid is the one invariant behind Size and Float64At: every Type of
// an opened file or an accepted declaration is Valid, so only a Type a
// caller made up gets here.
func (t Type) mustValid() {
	if !t.Valid() {
		panic(fmt.Sprintf("ioengine: unknown element type %d", uint8(t)))
	}
}

// Size returns the element width in bytes.
func (t Type) Size() int {
	t.mustValid()
	return typeSizes[t]
}

// String returns the CDL-style name of the type.
func (t Type) String() string {
	if !t.Valid() {
		return fmt.Sprintf("type(%d)", uint8(t))
	}
	return typeNames[t]
}

// Float64At returns element i of a raw little-endian payload as float64.
func (t Type) Float64At(raw []byte, i int) float64 {
	switch t {
	case Byte:
		return float64(raw[i])
	case Int32:
		return float64(int32(binary.LittleEndian.Uint32(raw[i*4:])))
	case Int64:
		return float64(int64(binary.LittleEndian.Uint64(raw[i*8:])))
	case Float32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
	}
	t.mustValid()
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
}

// Float32s decodes a raw little-endian payload as float32 values.
func Float32s(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

// PutFloat32s encodes vals as a fresh little-endian payload.
func PutFloat32s(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// PutFloat64s encodes vals as a fresh little-endian payload.
func PutFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// PutInt32s encodes vals as a fresh little-endian payload.
func PutInt32s(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

// Volume returns the element count of a shape.
func Volume(shape []int) int {
	n := 1
	for _, s := range shape {
		n *= s
	}
	return n
}

// Strides returns the row-major element stride per dimension of shape, so
// a flat index maps to coordinates via (i/stride[d]) % shape[d].
func Strides(shape []int) []int { return strides(make([]int, len(shape)), shape) }

// strides writes shape's strides into st, as long as shape, and returns it.
func strides(st, shape []int) []int {
	acc := 1
	for d := len(shape) - 1; d >= 0; d-- {
		st[d] = acc
		acc *= shape[d]
	}
	return st
}

// MaxRank bounds an array's dimensions (HDF5's H5S_MAX_RANK), so a
// per-chunk coordinate costs a bounded multiple of the chunk's index entry.
const MaxRank = 32

// Chunk locates one stored chunk: the record every dialect's chunk index
// embeds.
type Chunk struct {
	// Offset is the absolute file offset of the stored payload.
	Offset int64
	// StoredSize is the on-disk payload length (compressed).
	StoredSize int64
	// RawSize is the decompressed payload length.
	RawSize int64
	// Stats is the chunk's write-time zone map.
	Stats ChunkStats
}

// ChunkIndex is the read side of one array: the source its file was
// opened over and its chunk index, however the dialect stores it.
type ChunkIndex struct {
	// Src is the source the chunks are read from.
	Src Source
	// Pkg and Name prefix decode errors ("netcdf: QR: ..."); Name may be
	// empty.
	Pkg, Name string
	// Type is the element type of the decoded payloads.
	Type Type
	// Deflated says whether payloads are DEFLATE streams or stored raw.
	Deflated bool
	// Grid is where each chunk lies in the array.
	Grid Grid
	// Chunks is the chunk index in row-major grid order: Chunks[i] holds
	// the box Grid.Box(i). It is the dialect's own slice, not a copy.
	Chunks []Chunk
}

func chunkErrorf(pkg, name, format string, args ...any) error {
	if name != "" {
		pkg += ": " + name
	}
	return fmt.Errorf("%s: %w", pkg, fmt.Errorf(format, args...))
}

// chunkDecoder is the decompress-and-verify step for one chunk, which a
// Bound runs behind a join of its own when it keeps the decoded copy, and
// any other read hands to the consumer in its Payload. It is carried by
// value, so a deferred payload costs no allocation. The index was
// validated at Open, but the chunk is re-checked against the bytes in
// hand: a source may return short, and rawSize sizes the inflate buffer.
type chunkDecoder struct {
	pkg, name            string
	deflated             bool
	off, stored, rawSize int64
}

// decode returns the chunk's decoded bytes from its stored bytes raw.
func (d chunkDecoder) decode(raw []byte) ([]byte, error) {
	if int64(len(raw)) < d.stored {
		return nil, chunkErrorf(d.pkg, d.name, "truncated chunk at %d", d.off)
	}
	if d.deflated {
		out, err := Inflate(raw, d.rawSize)
		if err != nil {
			return nil, chunkErrorf(d.pkg, d.name, "%w", err)
		}
		return out, nil
	}
	if int64(len(raw)) != d.rawSize {
		return nil, chunkErrorf(d.pkg, d.name, "chunk raw size %d, want %d", len(raw), d.rawSize)
	}
	return raw, nil
}

// Payload is one chunk as Read and Scan hand it over: its decoded bytes,
// or, on a Bound's miss nothing keeps a copy of (an uncached Read, every
// Scan miss), its stored bytes with their decoder.
type Payload struct {
	b        []byte
	deferred bool // b is stored bytes, for dec to decode
	dec      chunkDecoder
}

// Bytes returns the decoded chunk. It is pure, and on a deferred payload
// it is the decode: call it inside the data-plane closure that consumes
// the bytes, so the decode runs there and not on the kernel thread.
func (pl Payload) Bytes() ([]byte, error) {
	if !pl.deferred {
		return pl.b, nil
	}
	return pl.dec.decode(pl.b)
}

// read fetches chunk i: through a Bound source's chunk path, where the
// cache, the tier and the prefetcher get a chance to serve or stage it,
// and as a plain read-then-decode on any other source.
func (x ChunkIndex) read(i int, once bool) (Payload, error) {
	if i < 0 || i >= len(x.Chunks) {
		return Payload{}, chunkErrorf(x.Pkg, x.Name, "chunk %d out of range [0,%d)", i, len(x.Chunks))
	}
	c := &x.Chunks[i]
	dec := chunkDecoder{pkg: x.Pkg, name: x.Name, deflated: x.Deflated,
		off: c.Offset, stored: c.StoredSize, rawSize: c.RawSize}
	if b, ok := x.Src.(*Bound); ok {
		return b.readChunk(dec, once)
	}
	raw, err := x.Src.ReadAt(dec.off, dec.stored)
	if err != nil {
		return Payload{}, err
	}
	out, err := dec.decode(raw)
	return Payload{b: out}, err
}

// Read fetches chunk i through the engine's chunk path, so a caching
// source serves (and stores) the decompressed payload and a prefetching
// source stages upcoming chunks.
func (x ChunkIndex) Read(i int) (Payload, error) { return x.read(i, false) }

// Scan fetches chunk i through the engine's single-pass scan path: a
// caching source serves it if resident but does not populate the cache on
// a miss, so a one-shot query scan never evicts hot working-set chunks.
func (x ChunkIndex) Scan(i int) (Payload, error) { return x.read(i, true) }

// Scatter announces chunks, reads them in order and runs consume(k, raw)
// with the k-th one's decoded bytes on the source's data plane: one
// closure per chunk, forked as its payload arrives, all joined once. A
// deferred payload decodes inside its closure, so its decode error
// surfaces at that join, after the later chunks' fetches, not right after
// its own. Scatter returns the first error in read order. consume must be
// pure (see sim.Proc.Compute), and no two chunks' calls may write the same
// bytes.
func (x ChunkIndex) Scatter(chunks []int, consume func(k int, raw []byte)) error {
	x.Announce(chunks)
	var futs []*sim.Future
	if _, ok := x.Src.(*Bound); ok {
		futs = make([]*sim.Future, 0, len(chunks))
	}
	var errs []error // by read position; made at the first deferred payload
	for k, i := range chunks {
		pl, err := x.Read(i)
		if err != nil {
			Join(x.Src, futs...)
			return firstError(errs, err)
		}
		if pl.deferred && errs == nil {
			errs = make([]error, len(chunks))
		}
		es := errs // nil while every payload came decoded: those cannot fail
		if fut := Fork(x.Src, func() {
			raw, err := pl.Bytes()
			if err != nil {
				es[k] = err
				return
			}
			consume(k, raw)
		}); fut != nil {
			futs = append(futs, fut)
		}
	}
	Join(x.Src, futs...)
	return firstError(errs, nil)
}

// ReadBox reads the box [start, start+count) of the array as row-major
// bytes: the hyperslab read of every dialect (netCDF's nc_get_vara). Only
// the chunks the box overlaps are read and decoded — the selective I/O
// SciDP's dummy-block reads resolve to — announced first so a prefetching
// source overlaps their transfers. Each chunk's share of the box is copied
// into place on the data plane: the grid partitions the array, so no two
// copies write the same bytes.
func (x ChunkIndex) ReadBox(start, count []int) ([]byte, error) {
	g := x.Grid
	if err := g.check(start, count); err != nil {
		return nil, chunkErrorf(x.Pkg, x.Name, "%w", err)
	}
	es := x.Type.Size()
	out := make([]byte, Volume(count)*es)
	touched := g.overlapping(start, count)
	rank := len(start) // at most MaxRank (Decoder.Rank): the geometry fits on the stack
	err := x.Scatter(touched, func(k int, raw []byte) {
		var b [5 * MaxRank]int
		cStart, cExtent, src, dst, extent := b[:rank], b[rank:2*rank], b[2*rank:3*rank], b[3*rank:4*rank], b[4*rank:5*rank]
		g.box(touched[k], func(d, s, n int) { cStart[d], cExtent[d] = s, n })
		for d := range rank {
			lo := max(start[d], cStart[d])
			src[d], dst[d] = lo-cStart[d], lo-start[d]
			extent[d] = min(start[d]+count[d], cStart[d]+cExtent[d]) - lo
		}
		CopyBox(out, count, dst, raw, cExtent, src, extent, es)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// firstError returns the first non-nil of errs, else err.
func firstError(errs []error, err error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return err
}

// Announce declares the chunks an upcoming read or pruned scan will
// touch, in read order, so a prefetching source stages exactly those —
// skipped chunks are never fetched, never inflated, never cached.
func (x ChunkIndex) Announce(chunks []int) {
	b, ok := x.Src.(*Bound)
	if !ok {
		return // nothing to stage on a plain source
	}
	plan := make([]Range, 0, len(chunks))
	for _, i := range chunks {
		if i >= 0 && i < len(x.Chunks) {
			c := &x.Chunks[i]
			plan = append(plan, Range{Off: c.Offset, Len: c.StoredSize})
		}
	}
	b.Announce(plan)
}
