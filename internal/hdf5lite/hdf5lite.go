// Package hdf5lite implements a hierarchical scientific format — groups
// nested like directories, each holding typed datasets — standing in for
// HDF5 in SciDP's modular format support. Where the netCDF-like format is
// flat (one list of variables), this one exercises the paper's deeper
// mapping: "if the input files are in the data formats which support
// hierarchical structure, such as HDF5, deeper directory structures will
// be created correspondingly" (Section III-A).
//
// Layout (little-endian):
//
//	magic "HL5F" | headerLen u64 | encoded root group | chunk payloads
//
// Datasets are chunked along the leading dimension (rows per chunk) with
// optional per-chunk DEFLATE, and carry a chunk index in the header so a
// mapper can address segments without reading data.
package hdf5lite

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"scidp/internal/ioengine"
	"scidp/internal/sim"
)

// Magic is the 4-byte file signature.
const Magic = "HL5F"

// Type enumerates dataset element types.
type Type uint8

// Element types.
const (
	Float32 Type = iota + 1
	Float64
	Int32
)

// Size returns the element width in bytes.
func (t Type) Size() int {
	switch t {
	case Float32, Int32:
		return 4
	case Float64:
		return 8
	}
	panic(fmt.Sprintf("hdf5lite: unknown type %d", t))
}

// String names the type.
func (t Type) String() string {
	switch t {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	case Int32:
		return "int32"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Chunk locates one stored chunk of a dataset.
type Chunk struct {
	// RowStart is the first leading-dimension index the chunk covers.
	RowStart int
	// Rows is how many leading-dimension entries it covers.
	Rows int
	// Offset is the absolute file offset of the payload.
	Offset int64
	// StoredSize is the on-disk payload length.
	StoredSize int64
	// RawSize is the decompressed length.
	RawSize int64
	// Stats is the chunk's write-time zone map, or nil for files written
	// before the statistics trailer existed (or with it disabled).
	Stats *ChunkStats
}

// Dataset is one array within a group.
type Dataset struct {
	// Name is the dataset's leaf name.
	Name string
	// Type is the element type.
	Type Type
	// Shape is the extent per dimension.
	Shape []int
	// ChunkRows is the leading-dimension extent per chunk (0 =
	// contiguous single chunk).
	ChunkRows int
	// Deflate is the DEFLATE level (0 = stored).
	Deflate int
	// Chunks is the chunk index in row order.
	Chunks []Chunk

	data []byte // writer-side payload
}

// NumElems returns the element count.
func (d *Dataset) NumElems() int {
	n := 1
	for _, s := range d.Shape {
		n *= s
	}
	return n
}

// RawBytes returns the uncompressed payload size.
func (d *Dataset) RawBytes() int64 { return int64(d.NumElems()) * int64(d.Type.Size()) }

// StoredBytes returns the on-disk payload size.
func (d *Dataset) StoredBytes() int64 {
	var s int64
	for _, c := range d.Chunks {
		s += c.StoredSize
	}
	return s
}

// rowBytes returns the byte width of one leading-dimension entry.
func (d *Dataset) rowBytes() int64 {
	inner := 1
	for _, s := range d.Shape[1:] {
		inner *= s
	}
	return int64(inner) * int64(d.Type.Size())
}

// Group is a node of the hierarchy.
type Group struct {
	// Name is the group's leaf name ("" for the root).
	Name string
	// Attrs are string key/value annotations.
	Attrs map[string]string
	// Children are sub-groups in insertion order.
	Children []*Group
	// Datasets are this group's datasets in insertion order.
	Datasets []*Dataset
}

// Child returns the named sub-group, or nil.
func (g *Group) Child(name string) *Group {
	for _, c := range g.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Dataset returns the named dataset, or nil.
func (g *Group) Dataset(name string) *Dataset {
	for _, d := range g.Datasets {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Writer assembles a file: build the group tree, then call Bytes.
type Writer struct {
	root    *Group
	noStats bool
}

// NewWriter returns a writer with an empty root group.
func NewWriter() *Writer {
	return &Writer{root: &Group{Attrs: map[string]string{}}}
}

// Root returns the root group.
func (w *Writer) Root() *Group { return w.root }

// DisableChunkStats omits the per-chunk statistics trailer, producing the
// pre-zone-map header layout — what legacy-compatibility tests exercise.
func (w *Writer) DisableChunkStats() { w.noStats = true }

// EnsureGroup walks/creates the slash-separated path below g and returns
// the final group.
func (g *Group) EnsureGroup(path string) *Group {
	cur := g
	for _, part := range strings.Split(strings.Trim(path, "/"), "/") {
		if part == "" {
			continue
		}
		next := cur.Child(part)
		if next == nil {
			next = &Group{Name: part, Attrs: map[string]string{}}
			cur.Children = append(cur.Children, next)
		}
		cur = next
	}
	return cur
}

// AddFloat32 adds a float32 dataset to the group. chunkRows of 0 stores
// the dataset contiguously.
func (g *Group) AddFloat32(name string, shape []int, chunkRows, deflate int, vals []float32) (*Dataset, error) {
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return g.addRaw(name, Float32, shape, chunkRows, deflate, raw)
}

// AddInt32 adds an int32 dataset to the group.
func (g *Group) AddInt32(name string, shape []int, chunkRows, deflate int, vals []int32) (*Dataset, error) {
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[i*4:], uint32(v))
	}
	return g.addRaw(name, Int32, shape, chunkRows, deflate, raw)
}

func (g *Group) addRaw(name string, t Type, shape []int, chunkRows, deflate int, raw []byte) (*Dataset, error) {
	if g.Dataset(name) != nil {
		return nil, fmt.Errorf("hdf5lite: dataset %s exists", name)
	}
	if len(shape) == 0 {
		return nil, fmt.Errorf("hdf5lite: dataset %s: need a shape", name)
	}
	n := 1
	for _, s := range shape {
		if s <= 0 {
			return nil, fmt.Errorf("hdf5lite: dataset %s: bad extent %d", name, s)
		}
		n *= s
	}
	if len(raw) != n*t.Size() {
		return nil, fmt.Errorf("hdf5lite: dataset %s: %d bytes, want %d", name, len(raw), n*t.Size())
	}
	if chunkRows < 0 || chunkRows > shape[0] {
		return nil, fmt.Errorf("hdf5lite: dataset %s: chunkRows %d outside [0,%d]", name, chunkRows, shape[0])
	}
	d := &Dataset{Name: name, Type: t, Shape: append([]int(nil), shape...), ChunkRows: chunkRows, Deflate: deflate, data: raw}
	g.Datasets = append(g.Datasets, d)
	return d, nil
}

// Bytes encodes the file.
func (w *Writer) Bytes() ([]byte, error) {
	// Chunk and compress all datasets first (depth-first order fixes the
	// payload layout).
	var payloads [][]byte
	var deflater ioengine.Deflater // one compressor per level for the whole encode
	var prep func(g *Group) error
	prep = func(g *Group) error {
		for _, d := range g.Datasets {
			rows := d.Shape[0]
			per := d.ChunkRows
			if per == 0 {
				per = rows
			}
			rb := d.rowBytes()
			d.Chunks = d.Chunks[:0]
			for r := 0; r < rows; r += per {
				n := per
				if r+n > rows {
					n = rows - r
				}
				raw := d.data[int64(r)*rb : int64(r+n)*rb]
				payload := raw
				if d.Deflate > 0 {
					var err error
					if payload, err = deflater.Deflate(raw, d.Deflate); err != nil {
						return fmt.Errorf("hdf5lite: dataset %s: %w", d.Name, err)
					}
				}
				ck := Chunk{RowStart: r, Rows: n, StoredSize: int64(len(payload)), RawSize: int64(len(raw))}
				if !w.noStats {
					st := ioengine.SummarizeChunk(len(raw)/d.Type.Size(), func(i int) float64 { return Float64At(d.Type, raw, i) })
					ck.Stats = &st
				}
				d.Chunks = append(d.Chunks, ck)
				payloads = append(payloads, payload)
			}
		}
		for _, c := range g.Children {
			if err := prep(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := prep(w.root); err != nil {
		return nil, err
	}

	encodeTree := func(withOffsets bool, base int64) []byte {
		var buf []byte
		u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
		u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
		str := func(s string) { u32(uint32(len(s))); buf = append(buf, s...) }
		cur := base
		var walk func(g *Group)
		walk = func(g *Group) {
			str(g.Name)
			u32(uint32(len(g.Attrs)))
			for _, k := range sortedKeys(g.Attrs) {
				str(k)
				str(g.Attrs[k])
			}
			u32(uint32(len(g.Datasets)))
			for _, d := range g.Datasets {
				str(d.Name)
				buf = append(buf, byte(d.Type))
				u32(uint32(len(d.Shape)))
				for _, s := range d.Shape {
					u64(uint64(s))
				}
				u32(uint32(d.ChunkRows))
				buf = append(buf, byte(d.Deflate))
				u32(uint32(len(d.Chunks)))
				for i := range d.Chunks {
					c := &d.Chunks[i]
					off := int64(0)
					if withOffsets {
						off = cur
						c.Offset = cur
					}
					u64(uint64(off))
					u64(uint64(c.StoredSize))
					u64(uint64(c.RawSize))
					u32(uint32(c.RowStart))
					u32(uint32(c.Rows))
					cur += c.StoredSize
				}
			}
			u32(uint32(len(g.Children)))
			for _, c := range g.Children {
				walk(c)
			}
		}
		walk(w.root)
		// Zone maps ride in a tagged trailer after the tree, one record per
		// chunk in the same depth-first dataset order, each a fixed 32
		// bytes so both encoding passes agree on the header size. Readers
		// that stop at the root group skip it untouched.
		if !w.noStats {
			u32(ioengine.ZoneMapTag)
			for _, d := range datasetsDF(w.root) {
				u32(uint32(len(d.Chunks)))
				for i := range d.Chunks {
					buf = d.Chunks[i].Stats.Append(buf)
				}
			}
		}
		return buf
	}
	probe := encodeTree(false, 0)
	base := int64(len(Magic)) + 8 + int64(len(probe))
	header := encodeTree(true, base)

	out := make([]byte, 0, base)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(header)))
	out = append(out, header...)
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// ReaderAt is the shared ioengine random-access view (the same interface
// the netcdf package parses from).
type ReaderAt = ioengine.Source

// IsHDF5 reports whether r starts with the format magic — the analogue of
// H5Fis_hdf5.
func IsHDF5(r ReaderAt) bool {
	b, err := r.ReadAt(0, int64(len(Magic)))
	return err == nil && string(b) == Magic
}

// File is an opened file.
type File struct {
	r    ReaderAt
	root *Group
	// HeaderBytes is the metadata-only read cost of Open.
	HeaderBytes int64
}

// Open parses the group tree without touching dataset payloads.
func Open(r ReaderAt) (*File, error) {
	prefix, err := r.ReadAt(0, int64(len(Magic))+8)
	if err != nil {
		return nil, err
	}
	if len(prefix) < len(Magic)+8 || string(prefix[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("hdf5lite: not an %s file", Magic)
	}
	hlen := int64(binary.LittleEndian.Uint64(prefix[len(Magic):]))
	if hlen <= 0 || hlen > r.Size() {
		return nil, fmt.Errorf("hdf5lite: corrupt header length %d", hlen)
	}
	hdr, err := r.ReadAt(int64(len(Magic))+8, hlen)
	if err != nil {
		return nil, err
	}
	if int64(len(hdr)) < hlen {
		return nil, fmt.Errorf("hdf5lite: truncated header")
	}
	d := &treeDec{buf: hdr}
	root := d.group()
	// Optional tagged trailer: per-chunk zone maps in depth-first dataset
	// order. Legacy files end at the tree; unrecognized trailing bytes are
	// ignored, mirroring what pre-zone-map readers do with the trailer.
	if d.err == nil && d.off+4 <= len(d.buf) && binary.LittleEndian.Uint32(d.buf[d.off:]) == ioengine.ZoneMapTag {
		d.off += 4
		for _, ds := range datasetsDF(root) {
			n := int(d.u32())
			if d.err != nil {
				break
			}
			if n != len(ds.Chunks) {
				d.err = fmt.Errorf("hdf5lite: %s: stats trailer has %d chunks, index has %d", ds.Name, n, len(ds.Chunks))
				break
			}
			stats := make([]ChunkStats, n)
			for j := 0; j < n; j++ {
				rec := d.need(ioengine.ChunkStatsSize)
				if rec == nil {
					break
				}
				stats[j] = ioengine.DecodeChunkStats(rec)
				ds.Chunks[j].Stats = &stats[j]
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return &File{r: r, root: root, HeaderBytes: int64(len(prefix)) + hlen}, nil
}

type treeDec struct {
	buf []byte
	off int
	err error
}

func (d *treeDec) need(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("hdf5lite: truncated header at %d", d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *treeDec) u32() uint32 {
	b := d.need(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *treeDec) u64() uint64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *treeDec) u8() uint8 {
	b := d.need(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *treeDec) str() string { return string(d.need(int(d.u32()))) }

func (d *treeDec) group() *Group {
	g := &Group{Name: d.str(), Attrs: map[string]string{}}
	na := int(d.u32())
	for i := 0; i < na && d.err == nil; i++ {
		k := d.str()
		g.Attrs[k] = d.str()
	}
	nd := int(d.u32())
	for i := 0; i < nd && d.err == nil; i++ {
		ds := &Dataset{Name: d.str(), Type: Type(d.u8())}
		if d.err == nil && (ds.Type < Float32 || ds.Type > Int32) {
			// Size panics on a type it does not know; a header must not get that far.
			d.err = fmt.Errorf("hdf5lite: %s: unknown element type %d", ds.Name, uint8(ds.Type))
		}
		rank := int(d.u32())
		for j := 0; j < rank && d.err == nil; j++ {
			ds.Shape = append(ds.Shape, int(d.u64()))
		}
		ds.ChunkRows = int(d.u32())
		ds.Deflate = int(d.u8())
		nc := int(d.u32())
		for j := 0; j < nc && d.err == nil; j++ {
			c := Chunk{Offset: int64(d.u64()), StoredSize: int64(d.u64()), RawSize: int64(d.u64())}
			c.RowStart = int(d.u32())
			c.Rows = int(d.u32())
			ds.Chunks = append(ds.Chunks, c)
		}
		g.Datasets = append(g.Datasets, ds)
	}
	ng := int(d.u32())
	for i := 0; i < ng && d.err == nil; i++ {
		g.Children = append(g.Children, d.group())
	}
	return g
}

// Root returns the root group.
func (f *File) Root() *Group { return f.root }

// Find resolves a slash-separated path to a dataset ("model/physics/QR").
func (f *File) Find(path string) (*Dataset, error) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	g := f.root
	for i, part := range parts {
		if i == len(parts)-1 {
			if d := g.Dataset(part); d != nil {
				return d, nil
			}
			return nil, fmt.Errorf("hdf5lite: no dataset %q", path)
		}
		g = g.Child(part)
		if g == nil {
			return nil, fmt.Errorf("hdf5lite: no group %q in %q", part, path)
		}
	}
	return nil, fmt.Errorf("hdf5lite: empty path")
}

// ReadRows reads leading-dimension entries [start, start+count) of d,
// touching only overlapping chunks, and returns raw little-endian bytes.
func (f *File) ReadRows(d *Dataset, start, count int) ([]byte, error) {
	if start < 0 || count <= 0 || start+count > d.Shape[0] {
		return nil, fmt.Errorf("hdf5lite: rows [%d,+%d) outside [0,%d)", start, count, d.Shape[0])
	}
	rb := d.rowBytes()
	out := make([]byte, int64(count)*rb)
	// Announce the overlapping chunks so a prefetching source overlaps
	// their transfers, then read them in plan order.
	var touched []Chunk
	for _, c := range d.Chunks {
		if c.RowStart+c.Rows <= start || c.RowStart >= start+count {
			continue
		}
		touched = append(touched, c)
	}
	plan := make([]ioengine.Range, len(touched))
	for i, c := range touched {
		plan[i] = ioengine.Range{Off: c.Offset, Len: c.StoredSize}
	}
	ioengine.Announce(f.r, plan)
	// Row ranges of distinct chunks are disjoint, so each assembly copy
	// forks onto the data plane and all join after the last fetch.
	var futs []*sim.Future
	for _, c := range touched {
		raw, err := f.readChunk(d, c)
		if err != nil {
			ioengine.Join(f.r, futs...)
			return nil, err
		}
		lo := max(start, c.RowStart)
		hi := min(start+count, c.RowStart+c.Rows)
		c, raw := c, raw
		if fut := ioengine.Fork(f.r, func() {
			copy(out[int64(lo-start)*rb:int64(hi-start)*rb], raw[int64(lo-c.RowStart)*rb:int64(hi-c.RowStart)*rb])
		}); fut != nil {
			futs = append(futs, fut)
		}
	}
	ioengine.Join(f.r, futs...)
	return out, nil
}

// ReadAll reads the full dataset payload.
func (f *File) ReadAll(d *Dataset) ([]byte, error) { return f.ReadRows(d, 0, d.Shape[0]) }

// chunkDecoder builds the decompress-and-verify step for chunk c of d,
// shared by the caching read path and the single-pass scan path.
func chunkDecoder(d *Dataset, c Chunk) func(raw []byte) ([]byte, error) {
	return func(raw []byte) ([]byte, error) {
		if int64(len(raw)) < c.StoredSize {
			return nil, fmt.Errorf("hdf5lite: truncated chunk at %d", c.Offset)
		}
		if d.Deflate > 0 {
			out, err := ioengine.Inflate(raw, c.RawSize)
			if err != nil {
				return nil, fmt.Errorf("hdf5lite: %w", err)
			}
			return out, nil
		}
		if int64(len(raw)) != c.RawSize {
			return nil, fmt.Errorf("hdf5lite: chunk raw size %d, want %d", len(raw), c.RawSize)
		}
		return raw, nil
	}
}

// readChunk fetches and decompresses chunk c through the engine's chunk
// path, so caching/prefetching sources can serve or stage it.
func (f *File) readChunk(d *Dataset, c Chunk) ([]byte, error) {
	return ioengine.ReadChunk(f.r, c.Offset, c.StoredSize, chunkDecoder(d, c))
}

// Source returns the random-access source the file was opened over — the
// handle query adapters use to fork fused-scan work onto the data plane.
func (f *File) Source() ReaderAt { return f.r }

// ScanChunk reads and decompresses the i-th chunk of d through the
// engine's single-pass scan path (cache may serve, never fills on miss).
func (f *File) ScanChunk(d *Dataset, i int) ([]byte, error) {
	if i < 0 || i >= len(d.Chunks) {
		return nil, fmt.Errorf("hdf5lite: %s: chunk %d out of range [0,%d)", d.Name, i, len(d.Chunks))
	}
	c := d.Chunks[i]
	return ioengine.ReadChunkOnce(f.r, c.Offset, c.StoredSize, chunkDecoder(d, c))
}

// AnnounceChunks declares the surviving chunks of a pruned scan so a
// prefetching source stages exactly those.
func (f *File) AnnounceChunks(d *Dataset, chunks []int) {
	plan := make([]ioengine.Range, 0, len(chunks))
	for _, i := range chunks {
		if i < 0 || i >= len(d.Chunks) {
			continue
		}
		plan = append(plan, ioengine.Range{Off: d.Chunks[i].Offset, Len: d.Chunks[i].StoredSize})
	}
	ioengine.Announce(f.r, plan)
}

// Float32s decodes raw little-endian bytes as float32 values.
func Float32s(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}
