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
	"fmt"
	"maps"
	"slices"
	"strings"

	"scidp/internal/ioengine"
)

// Magic is the 4-byte file signature.
const Magic = "HL5F"

// dialect is this format's name and signature on the shared container,
// which owns the preamble, the header codec and the chunk index checks.
var dialect = ioengine.Dialect{Name: "hdf5lite", Magic: Magic}

// Type enumerates dataset element types by their on-disk code.
type Type uint8

// Element types.
const (
	Float32 Type = iota + 1
	Float64
	Int32
)

var (
	elems     = [...]ioengine.Type{Float32: ioengine.Float32, Float64: ioengine.Float64, Int32: ioengine.Int32}
	typeNames = [...]string{Float32: "float32", Float64: "float64", Int32: "int32"}
)

// Elem returns the container's element type for t: what sizes and decodes
// its payloads. It is not Valid for a code the format does not define.
func (t Type) Elem() ioengine.Type {
	if int(t) >= len(elems) {
		return 0
	}
	return elems[t]
}

// Size returns the element width in bytes.
func (t Type) Size() int { return t.Elem().Size() }

// String names the type.
func (t Type) String() string {
	if !t.Elem().Valid() {
		return fmt.Sprintf("type(%d)", uint8(t))
	}
	return typeNames[t]
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
	// Chunks is the chunk index in row order: chunk i holds the box
	// Grid().Box(i).
	Chunks []ioengine.Chunk

	grid ioengine.Grid // built once, at Open: what the chunk index reads
	data []byte        // writer-side payload
}

// NumElems returns the element count.
func (d *Dataset) NumElems() int { return ioengine.Volume(d.Shape) }

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

// Grid returns the dataset's chunk geometry, built from its header:
// chunks of ChunkRows leading-dimension entries (all of them when 0),
// whole in every other dimension. Each call builds a fresh one, so what a
// caller does with it never reaches the grid an opened file's chunk index
// reads.
func (d *Dataset) Grid() ioengine.Grid { return d.gridOf(slices.Clone(d.Shape)) }

// gridOf returns the grid of an array of the given shape cut as d's
// header says.
func (d *Dataset) gridOf(shape []int) ioengine.Grid {
	chunk := slices.Clone(shape)
	if d.ChunkRows != 0 {
		chunk[0] = d.ChunkRows
	}
	return ioengine.Grid{Shape: shape, Chunk: chunk}
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
	root *Group
}

// NewWriter returns a writer with an empty root group.
func NewWriter() *Writer {
	return &Writer{root: &Group{Attrs: map[string]string{}}}
}

// Root returns the root group.
func (w *Writer) Root() *Group { return w.root }

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
	return g.addRaw(name, Float32, shape, chunkRows, deflate, ioengine.PutFloat32s(vals))
}

// AddInt32 adds an int32 dataset to the group.
func (g *Group) AddInt32(name string, shape []int, chunkRows, deflate int, vals []int32) (*Dataset, error) {
	return g.addRaw(name, Int32, shape, chunkRows, deflate, ioengine.PutInt32s(vals))
}

func (g *Group) addRaw(name string, t Type, shape []int, chunkRows, deflate int, raw []byte) (*Dataset, error) {
	if g.Dataset(name) != nil {
		return nil, fmt.Errorf("hdf5lite: dataset %s exists", name)
	}
	if len(shape) == 0 || len(shape) > ioengine.MaxRank {
		return nil, fmt.Errorf("hdf5lite: dataset %s: need a shape of rank 1 to %d", name, ioengine.MaxRank)
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
	// Chunk and pack all datasets first (depth-first order fixes the
	// payload layout), then write the tree around the index records.
	e := &ioengine.Encoder{}
	for _, d := range datasetsDF(w.root) {
		g, es := d.Grid(), d.Type.Size()
		e.Array()
		d.Chunks = d.Chunks[:0]
		// A chunk is whole in every dimension but the first, so the
		// chunks lie end to end in the row-major payload.
		for i, off := 0, 0; i < g.Len(); i++ {
			_, extent := g.Box(i)
			n := ioengine.Volume(extent) * es
			c, err := e.Pack(d.Type.Elem(), d.Deflate, d.data[off:off+n])
			if err != nil {
				return nil, fmt.Errorf("hdf5lite: dataset %s: %w", d.Name, err)
			}
			d.Chunks = append(d.Chunks, c)
			off += n
		}
	}
	return dialect.Encode(e, func() error {
		encodeGroup(e, w.root)
		return nil
	})
}

func encodeGroup(e *ioengine.Encoder, g *Group) {
	e.Str(g.Name)
	e.U32(uint32(len(g.Attrs)))
	for _, k := range slices.Sorted(maps.Keys(g.Attrs)) {
		e.Str(k)
		e.Str(g.Attrs[k])
	}
	e.U32(uint32(len(g.Datasets)))
	for _, d := range g.Datasets {
		e.Str(d.Name)
		e.U8(uint8(d.Type))
		e.U32(uint32(len(d.Shape)))
		for _, s := range d.Shape {
			e.U64(uint64(s))
		}
		e.U32(uint32(d.ChunkRows))
		e.U8(uint8(d.Deflate))
		e.U32(uint32(len(d.Chunks)))
		g := d.Grid()
		for i := range d.Chunks {
			// Each index entry also records the chunk's leading-dimension
			// range, which Open checks against the grid.
			start, extent := g.Box(i)
			e.Chunk(&d.Chunks[i])
			e.U32(uint32(start[0]))
			e.U32(uint32(extent[0]))
		}
	}
	e.U32(uint32(len(g.Children)))
	for _, c := range g.Children {
		encodeGroup(e, c)
	}
}

// datasetsDF lists every dataset under g in depth-first encoding order —
// the order of the payloads and of the statistics trailer.
func datasetsDF(g *Group) []*Dataset {
	out := slices.Clone(g.Datasets)
	for _, c := range g.Children {
		out = append(out, datasetsDF(c)...)
	}
	return out
}

// ReaderAt is the shared ioengine random-access view (the same interface
// the netcdf package parses from).
type ReaderAt = ioengine.Source

// IsHDF5 reports whether r starts with the format magic — the analogue of
// H5Fis_hdf5.
func IsHDF5(r ReaderAt) bool { return dialect.Detect(r) }

// File is an opened file.
type File struct {
	r    ReaderAt
	root *Group
	// Header is what Open read of the header: its length is the
	// metadata-only read cost of Open.
	Header ioengine.Header
}

// Open parses the group tree without touching dataset payloads. Every
// dataset's chunk index has passed the container's validation when Open
// returns.
func Open(r ReaderAt) (*File, error) {
	d, err := dialect.Open(r)
	if err != nil {
		return nil, err
	}
	root := decodeGroup(d)
	d.ZoneMaps()
	for _, ds := range datasetsDF(root) {
		d.ChunkStats(ds.Name, ds.Chunks)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &File{r: r, root: root, Header: d.Header}, nil
}

// decodeGroup reads one group and, recursively, its children. The counts
// carry each element's smallest encoding: an attribute is two strings, a
// dataset 18 bytes before its shape and index, a group four counts.
func decodeGroup(d *ioengine.Decoder) *Group {
	g := &Group{Name: d.Str(), Attrs: map[string]string{}}
	for i, n := 0, d.Count(8); i < n; i++ {
		k := d.Str()
		g.Attrs[k] = d.Str()
	}
	for i, n := 0, d.Count(18); i < n && d.Err() == nil; i++ {
		g.Datasets = append(g.Datasets, decodeDataset(d))
	}
	for i, n := 0, d.Count(16); i < n && d.Err() == nil; i++ {
		g.Children = append(g.Children, decodeGroup(d))
	}
	return g
}

func decodeDataset(d *ioengine.Decoder) *Dataset {
	ds := &Dataset{Name: d.Str(), Type: Type(d.U8())}
	if d.Err() == nil && !ds.Type.Elem().Valid() {
		d.Failf("%s: unknown element type %d", ds.Name, uint8(ds.Type))
	}
	ds.Shape = make([]int, d.Rank(8))
	for j := range ds.Shape {
		ds.Shape[j] = d.Int()
	}
	ds.ChunkRows = int(d.U32())
	ds.Deflate = int(d.U8())
	ds.Chunks = make([]ioengine.Chunk, d.Count(32))
	rows := make([][2]int, len(ds.Chunks)) // each entry's leading-dimension range: start, extent
	for j := range ds.Chunks {
		ds.Chunks[j] = d.Chunk()
		rows[j] = [2]int{int(d.U32()), int(d.U32())}
	}
	if d.Err() != nil {
		return ds
	}
	ds.grid = ds.gridOf(ds.Shape)
	d.CheckArray(ioengine.Layout{Name: ds.Name, Type: ds.Type.Elem(), Grid: ds.grid, Deflated: ds.Deflate > 0}, ds.Chunks)
	for j, r := range rows {
		if d.Err() != nil {
			break
		}
		if start, extent := ds.grid.Box(j); r != [2]int{start[0], extent[0]} {
			d.Failf("%s: chunk %d covers rows [%d,+%d), its place in the index says [%d,+%d)", ds.Name, j, r[0], r[1], start[0], extent[0])
		}
	}
	return ds
}

// Root returns the root group.
func (f *File) Root() *Group { return f.root }

// ChunkIndex returns the read side of d's chunk index: cached reads,
// single-pass scans and readahead announcements by chunk number.
func (f *File) ChunkIndex(d *Dataset) ioengine.ChunkIndex {
	return ioengine.ChunkIndex{Src: f.r, Pkg: dialect.Name, Type: d.Type.Elem(), Deflated: d.Deflate > 0,
		Grid: d.grid, Chunks: d.Chunks}
}
