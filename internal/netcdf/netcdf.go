// Package netcdf implements a self-describing scientific array format with
// the structure SciDP depends on: named dimensions, typed multi-dimensional
// variables with attributes, chunked storage, per-chunk DEFLATE
// compression, a header that can be read without touching variable data,
// and hyperslab access (netCDF's nc_get_vara). The binary layout is this
// repository's own ("NCL1"), but the API mirrors the C netCDF library —
// Open / InqVar / GetVara — so the paper's Data Mapper and PFS Reader
// translate directly.
//
// Layout (little-endian):
//
//	magic "NCL1" | headerLen u64 | header | chunk payloads
//
// The header carries dimensions, global attributes, and per-variable
// metadata including the full chunk index (offset, stored size, raw size
// per chunk). Reading it costs two small range-reads, which is what makes
// SciDP's File Explorer cheap relative to copying data.
package netcdf

import (
	"fmt"

	"scidp/internal/ioengine"
)

// Magic is the 4-byte file signature.
const Magic = "NCL1"

// Type enumerates element types.
type Type uint8

// Element types supported by the format.
const (
	Byte Type = iota + 1
	Int32
	Int64
	Float32
	Float64
)

// Size returns the element width in bytes.
func (t Type) Size() int {
	switch t {
	case Byte:
		return 1
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	}
	panic(fmt.Sprintf("netcdf: unknown type %d", t))
}

// String returns the CDL-style name of the type.
func (t Type) String() string {
	switch t {
	case Byte:
		return "byte"
	case Int32:
		return "int"
	case Int64:
		return "int64"
	case Float32:
		return "float"
	case Float64:
		return "double"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Dim is a named dimension.
type Dim struct {
	// Name is the dimension name ("time", "level", "lat").
	Name string
	// Len is the dimension length.
	Len int
}

// Attr is a named attribute; exactly one of the value fields is used
// according to Kind.
type Attr struct {
	// Name is the attribute name ("units", "long_name").
	Name string
	// Kind selects which value field is populated.
	Kind AttrKind
	// Str holds AttrString values.
	Str string
	// F64 holds AttrFloat64 values.
	F64 float64
	// I64 holds AttrInt64 values.
	I64 int64
}

// AttrKind tags the value type of an attribute.
type AttrKind uint8

// Attribute value kinds.
const (
	AttrString AttrKind = iota + 1
	AttrFloat64
	AttrInt64
)

// StringAttr builds a string attribute.
func StringAttr(name, v string) Attr { return Attr{Name: name, Kind: AttrString, Str: v} }

// Float64Attr builds a double attribute.
func Float64Attr(name string, v float64) Attr { return Attr{Name: name, Kind: AttrFloat64, F64: v} }

// Int64Attr builds an int64 attribute.
func Int64Attr(name string, v int64) Attr { return Attr{Name: name, Kind: AttrInt64, I64: v} }

// ChunkInfo locates one stored chunk of a variable.
type ChunkInfo struct {
	// Index is the chunk's coordinate in the chunk grid (row-major order
	// matches the position in the variable's chunk list).
	Index []int
	// Offset is the absolute file offset of the stored payload.
	Offset int64
	// StoredSize is the on-disk payload length (compressed).
	StoredSize int64
	// RawSize is the decompressed payload length.
	RawSize int64
	// Stats is the chunk's write-time zone map, or nil for files written
	// before the statistics section existed (or with it disabled).
	Stats *ChunkStats
}

// ChunkStats is the write-time zone map of one stored chunk; the record,
// its fold and its header section are ioengine's, shared with hdf5lite.
type ChunkStats = ioengine.ChunkStats

// Var is one variable's metadata.
type Var struct {
	// Name is the variable name ("QR").
	Name string
	// Type is the element type.
	Type Type
	// Dims are the variable's dimensions in storage order.
	Dims []Dim
	// Attrs are the variable attributes.
	Attrs []Attr
	// ChunkShape is the chunk extent per dimension; nil means contiguous
	// storage (a single chunk spanning the variable).
	ChunkShape []int
	// Deflate is the DEFLATE level (0 = stored uncompressed).
	Deflate int
	// Chunks is the chunk index in row-major chunk-grid order.
	Chunks []ChunkInfo
}

// Shape returns the dimension lengths.
func (v *Var) Shape() []int {
	s := make([]int, len(v.Dims))
	for i, d := range v.Dims {
		s[i] = d.Len
	}
	return s
}

// NumElems returns the total element count.
func (v *Var) NumElems() int {
	n := 1
	for _, d := range v.Dims {
		n *= d.Len
	}
	return n
}

// RawBytes returns the uncompressed payload size of the whole variable.
func (v *Var) RawBytes() int64 { return int64(v.NumElems()) * int64(v.Type.Size()) }

// StoredBytes returns the on-disk (compressed) payload size.
func (v *Var) StoredBytes() int64 {
	var s int64
	for _, c := range v.Chunks {
		s += c.StoredSize
	}
	return s
}

// Attr returns the named variable attribute, or false.
func (v *Var) Attr(name string) (Attr, bool) {
	for _, a := range v.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attr{}, false
}

// chunkGrid returns chunks-per-dimension counts for a variable.
func (v *Var) chunkGrid() []int {
	shape := v.Shape()
	cs := v.ChunkShape
	if cs == nil {
		g := make([]int, len(shape))
		for i := range g {
			g[i] = 1
		}
		return g
	}
	g := make([]int, len(shape))
	for i := range shape {
		g[i] = (shape[i] + cs[i] - 1) / cs[i]
	}
	return g
}

// chunkExtent returns the clamped extent of the chunk at grid index idx
// (edge chunks may be partial) and its start coordinate.
func (v *Var) chunkExtent(idx []int) (start, extent []int) {
	shape := v.Shape()
	cs := v.ChunkShape
	if cs == nil {
		return make([]int, len(shape)), shape
	}
	start = make([]int, len(shape))
	extent = make([]int, len(shape))
	for i := range shape {
		start[i] = idx[i] * cs[i]
		e := cs[i]
		if start[i]+e > shape[i] {
			e = shape[i] - start[i]
		}
		extent[i] = e
	}
	return start, extent
}

// ChunkBox returns the start coordinate and clamped extent of the i-th
// chunk in v.Chunks — the geometry a planner needs to turn chunk position
// into coordinate bounds without reading anything.
func (v *Var) ChunkBox(i int) (start, extent []int) {
	return v.chunkExtent(v.Chunks[i].Index)
}

// Array is an in-memory n-dimensional array: raw little-endian bytes plus
// shape and type. It is the value GetVara returns and what the R layer
// converts into data frames.
type Array struct {
	// Type is the element type.
	Type Type
	// Shape is the extent per dimension.
	Shape []int
	// Data is the row-major little-endian payload.
	Data []byte
}

// NumElems returns the element count.
func (a *Array) NumElems() int {
	n := 1
	for _, s := range a.Shape {
		n *= s
	}
	return n
}

// Float32s decodes the payload as []float32 (only valid for Float32).
func (a *Array) Float32s() []float32 {
	if a.Type != Float32 {
		panic("netcdf: Float32s on " + a.Type.String() + " array")
	}
	out := make([]float32, a.NumElems())
	for i := range out {
		out[i] = leFloat32(a.Data[i*4:])
	}
	return out
}

// Float64At returns element i as float64 regardless of numeric type.
func (a *Array) Float64At(i int) float64 {
	switch a.Type {
	case Byte:
		return float64(a.Data[i])
	case Int32:
		return float64(int32(leUint32(a.Data[i*4:])))
	case Int64:
		return float64(int64(leUint64(a.Data[i*8:])))
	case Float32:
		return float64(leFloat32(a.Data[i*4:]))
	case Float64:
		return leFloat64(a.Data[i*8:])
	}
	panic("netcdf: unknown array type")
}

// Sub returns the sub-array at the given leading index (e.g. one level of
// a [level][lat][lon] array), sharing the underlying bytes.
func (a *Array) Sub(i int) *Array {
	if len(a.Shape) < 2 {
		panic("netcdf: Sub on rank<2 array")
	}
	inner := 1
	for _, s := range a.Shape[1:] {
		inner *= s
	}
	es := a.Type.Size()
	return &Array{Type: a.Type, Shape: a.Shape[1:], Data: a.Data[i*inner*es : (i+1)*inner*es]}
}
