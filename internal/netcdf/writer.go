package netcdf

import (
	"fmt"
	"math"

	"scidp/internal/ioengine"
)

// Writer assembles a file in memory: declare dimensions and variables,
// supply each variable's data, then call Bytes to encode — the pattern of
// netCDF's define mode followed by data mode.
type Writer struct {
	dims   []Dim
	dimIdx map[string]int
	gattrs []Attr
	vars   []*writerVar
	varIdx map[string]int
}

type writerVar struct {
	v    Var
	data []byte // raw row-major payload, set by PutVar*
}

// NewWriter returns an empty file under construction.
func NewWriter() *Writer {
	return &Writer{dimIdx: map[string]int{}, varIdx: map[string]int{}}
}

// AddDim declares a dimension. Redeclaring a name with the same length is
// a no-op; a different length is an error.
func (w *Writer) AddDim(name string, length int) error {
	if length <= 0 {
		return fmt.Errorf("netcdf: dim %s: non-positive length %d", name, length)
	}
	if i, ok := w.dimIdx[name]; ok {
		if w.dims[i].Len != length {
			return fmt.Errorf("netcdf: dim %s redeclared with length %d (was %d)", name, length, w.dims[i].Len)
		}
		return nil
	}
	w.dimIdx[name] = len(w.dims)
	w.dims = append(w.dims, Dim{Name: name, Len: length})
	return nil
}

// GlobalAttr attaches a file-level attribute.
func (w *Writer) GlobalAttr(a Attr) { w.gattrs = append(w.gattrs, a) }

// Chunking configures a variable's storage.
type Chunking struct {
	// Shape is the chunk extent per dimension; nil stores the variable
	// contiguously as one chunk.
	Shape []int
	// Deflate is the DEFLATE level 0–9 (0 = no compression).
	Deflate int
}

// AddVar declares a variable over previously declared dimensions.
func (w *Writer) AddVar(name string, t Type, dimNames []string, ck Chunking, attrs ...Attr) error {
	if _, dup := w.varIdx[name]; dup {
		return fmt.Errorf("netcdf: var %s already declared", name)
	}
	if len(dimNames) == 0 || len(dimNames) > ioengine.MaxRank {
		return fmt.Errorf("netcdf: var %s: need between one and %d dimensions", name, ioengine.MaxRank)
	}
	if !t.Valid() {
		return fmt.Errorf("netcdf: var %s: unknown element type %d", name, uint8(t))
	}
	v := Var{Name: name, Type: t, Attrs: attrs, Deflate: ck.Deflate}
	for _, dn := range dimNames {
		i, ok := w.dimIdx[dn]
		if !ok {
			return fmt.Errorf("netcdf: var %s: unknown dimension %q", name, dn)
		}
		v.Dims = append(v.Dims, w.dims[i])
	}
	if ck.Shape != nil {
		if len(ck.Shape) != len(v.Dims) {
			return fmt.Errorf("netcdf: var %s: chunk rank %d != var rank %d", name, len(ck.Shape), len(v.Dims))
		}
		for i, c := range ck.Shape {
			if c <= 0 || c > v.Dims[i].Len {
				return fmt.Errorf("netcdf: var %s: chunk extent %d invalid for dim %s(%d)", name, c, v.Dims[i].Name, v.Dims[i].Len)
			}
		}
		v.ChunkShape = append([]int(nil), ck.Shape...)
	}
	if ck.Deflate < 0 || ck.Deflate > 9 {
		return fmt.Errorf("netcdf: var %s: deflate level %d out of range", name, ck.Deflate)
	}
	w.varIdx[name] = len(w.vars)
	w.vars = append(w.vars, &writerVar{v: v})
	return nil
}

// lookup returns the named variable, which must have been declared with
// element type t unless t is zero (raw bytes fit any type).
func (w *Writer) lookup(name string, t Type) (*writerVar, error) {
	i, ok := w.varIdx[name]
	if !ok {
		return nil, fmt.Errorf("netcdf: unknown variable %q", name)
	}
	if wv := w.vars[i]; t != 0 && wv.v.Type != t {
		return nil, fmt.Errorf("netcdf: var %s is %s, not %s", name, wv.v.Type, t)
	}
	return w.vars[i], nil
}

// PutVarBytes supplies a variable's full payload as raw little-endian
// row-major bytes.
func (w *Writer) PutVarBytes(name string, raw []byte) error { return w.putVar(name, 0, raw) }

// PutVarFloat32 supplies a Float32 variable's full payload.
func (w *Writer) PutVarFloat32(name string, vals []float32) error {
	return w.putVar(name, Float32, ioengine.PutFloat32s(vals))
}

// PutVarFloat64 supplies a Float64 variable's full payload.
func (w *Writer) PutVarFloat64(name string, vals []float64) error {
	return w.putVar(name, Float64, ioengine.PutFloat64s(vals))
}

// PutVarInt32 supplies an Int32 variable's full payload.
func (w *Writer) PutVarInt32(name string, vals []int32) error {
	return w.putVar(name, Int32, ioengine.PutInt32s(vals))
}

func (w *Writer) putVar(name string, t Type, raw []byte) error {
	wv, err := w.lookup(name, t)
	if err != nil {
		return err
	}
	if want := wv.v.RawBytes(); int64(len(raw)) != want {
		return fmt.Errorf("netcdf: var %s: payload %d bytes, want %d", name, len(raw), want)
	}
	wv.data = raw
	return nil
}

// PutVara writes the hyperslab [start, start+count) of a variable from
// raw little-endian row-major bytes — nc_put_vara. Regions never written
// stay zero. Mixing PutVara with a later full PutVarBytes overwrites
// everything.
func (w *Writer) PutVara(name string, start, count []int, raw []byte) error {
	return w.putVara(name, 0, start, count, raw)
}

// PutVaraFloat32 writes a float32 hyperslab — nc_put_vara_float.
func (w *Writer) PutVaraFloat32(name string, start, count []int, vals []float32) error {
	return w.putVara(name, Float32, start, count, ioengine.PutFloat32s(vals))
}

func (w *Writer) putVara(name string, t Type, start, count []int, raw []byte) error {
	wv, err := w.lookup(name, t)
	if err != nil {
		return err
	}
	if err := wv.v.checkSlab(start, count); err != nil {
		return err
	}
	es := wv.v.Type.Size()
	if len(raw) != ioengine.Volume(count)*es {
		return fmt.Errorf("netcdf: var %s: slab payload %d bytes, want %d", name, len(raw), ioengine.Volume(count)*es)
	}
	if wv.data == nil {
		wv.data = make([]byte, wv.v.RawBytes())
	}
	ioengine.CopyBox(wv.data, wv.v.Shape(), start, raw, count, make([]int, len(count)), count, es)
	return nil
}

// Bytes encodes the file: header (with per-chunk index) followed by chunk
// payloads. Every declared variable must have received data.
func (w *Writer) Bytes() ([]byte, error) {
	// Chunk and pack every variable's payload, then write the header
	// around the index records.
	e := &ioengine.Encoder{}
	for _, wv := range w.vars {
		v := &wv.v
		if wv.data == nil {
			return nil, fmt.Errorf("netcdf: var %s has no data", v.Name)
		}
		e.Array()
		v.Chunks = v.Chunks[:0]
		for _, raw := range splitChunks(v, wv.data) {
			c, err := e.Pack(v.Type, v.Deflate, raw)
			if err != nil {
				return nil, fmt.Errorf("netcdf: var %s: %w", v.Name, err)
			}
			v.Chunks = append(v.Chunks, c)
		}
	}
	return dialect.Encode(e, func() error {
		encodeDims(e, w.dims)
		if err := encodeAttrs(e, w.gattrs); err != nil {
			return err
		}
		e.U32(uint32(len(w.vars)))
		for _, wv := range w.vars {
			v := &wv.v
			e.Str(v.Name)
			e.U8(uint8(v.Type))
			encodeDims(e, v.Dims)
			if err := encodeAttrs(e, v.Attrs); err != nil {
				return err
			}
			if v.ChunkShape != nil {
				e.U8(1)
				for _, c := range v.ChunkShape {
					e.U64(uint64(c))
				}
			} else {
				e.U8(0)
			}
			e.U8(uint8(v.Deflate))
			e.U32(uint32(len(v.Chunks)))
			for i := range v.Chunks {
				e.Chunk(&v.Chunks[i])
			}
		}
		return nil
	})
}

func encodeDims(e *ioengine.Encoder, dims []Dim) {
	e.U32(uint32(len(dims)))
	for _, d := range dims {
		e.Str(d.Name)
		e.U64(uint64(d.Len))
	}
}

// encodeAttrs refuses an attribute whose Kind a caller left unset (or made
// up): the reader would refuse the file.
func encodeAttrs(e *ioengine.Encoder, as []Attr) error {
	e.U32(uint32(len(as)))
	for _, a := range as {
		e.Str(a.Name)
		e.U8(uint8(a.Kind))
		switch a.Kind {
		case AttrString:
			e.Str(a.Str)
		case AttrFloat64:
			e.U64(math.Float64bits(a.F64))
		case AttrInt64:
			e.U64(uint64(a.I64))
		default:
			return fmt.Errorf("netcdf: attribute %s: unknown kind %d", a.Name, a.Kind)
		}
	}
	return nil
}

// splitChunks slices a variable's raw payload into its chunks' payloads,
// in the grid's order.
func splitChunks(v *Var, raw []byte) [][]byte {
	if v.ChunkShape == nil {
		return [][]byte{raw} // no copy: the one chunk is the payload
	}
	g, es := v.Grid(), v.Type.Size()
	out := make([][]byte, g.Len())
	for i := range out {
		start, extent := g.Box(i)
		out[i] = make([]byte, ioengine.Volume(extent)*es)
		ioengine.CopyBox(out[i], extent, make([]int, len(extent)), raw, g.Shape, start, extent, es)
	}
	return out
}
