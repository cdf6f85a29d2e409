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
	"slices"

	"scidp/internal/ioengine"
)

// Magic is the 4-byte file signature.
const Magic = "NCL1"

// dialect is this format's name and signature on the shared container,
// which owns the preamble, the header codec and the chunk index checks.
var dialect = ioengine.Dialect{Name: "netcdf", Magic: Magic}

// Type enumerates element types: the container's, whose values are this
// format's on-disk codes and whose names are CDL's.
type Type = ioengine.Type

// Element types supported by the format.
const (
	Byte    = ioengine.Byte
	Int32   = ioengine.Int32
	Int64   = ioengine.Int64
	Float32 = ioengine.Float32
	Float64 = ioengine.Float64
)

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
	// Chunks is the chunk index in row-major chunk-grid order: chunk i
	// holds the box Grid().Box(i).
	Chunks []ioengine.Chunk

	grid ioengine.Grid // built once, at Open: what the chunk index reads
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

// Grid returns the variable's chunk geometry, built from its header:
// contiguous storage is one chunk the shape of the variable. Each call
// builds a fresh one, so what a caller does with it never reaches the
// grid an opened file's chunk index reads.
func (v *Var) Grid() ioengine.Grid { return v.gridOf(slices.Clone(v.ChunkShape)) }

// gridOf returns the grid of v's dimensions cut into chunks of the given
// extent, or into one chunk when chunk is nil.
func (v *Var) gridOf(chunk []int) ioengine.Grid {
	g := ioengine.Grid{Shape: v.Shape(), Chunk: chunk}
	if chunk == nil {
		g.Chunk = g.Shape
	}
	return g
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

// Float32s decodes the payload as []float32. Asking it of an array of
// another type is a programmer error, not something a file can cause.
func (a *Array) Float32s() []float32 {
	if a.Type != Float32 {
		panic("netcdf: Float32s on " + a.Type.String() + " array")
	}
	return ioengine.Float32s(a.Data)
}
