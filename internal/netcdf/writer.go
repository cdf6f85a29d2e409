package netcdf

import (
	"fmt"

	"scidp/internal/ioengine"
)

// Writer assembles a file in memory: declare dimensions and variables,
// supply each variable's data, then call Bytes to encode — the pattern of
// netCDF's define mode followed by data mode.
type Writer struct {
	dims    []Dim
	dimIdx  map[string]int
	gattrs  []Attr
	vars    []*writerVar
	varIdx  map[string]int
	noStats bool
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

// DisableChunkStats omits the per-chunk statistics section, producing the
// pre-zone-map header layout — what legacy-compatibility tests exercise.
func (w *Writer) DisableChunkStats() { w.noStats = true }

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
	if len(dimNames) == 0 {
		return fmt.Errorf("netcdf: var %s: need at least one dimension", name)
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

func (w *Writer) lookup(name string) (*writerVar, error) {
	i, ok := w.varIdx[name]
	if !ok {
		return nil, fmt.Errorf("netcdf: unknown variable %q", name)
	}
	return w.vars[i], nil
}

// PutVarBytes supplies a variable's full payload as raw little-endian
// row-major bytes.
func (w *Writer) PutVarBytes(name string, raw []byte) error {
	wv, err := w.lookup(name)
	if err != nil {
		return err
	}
	if want := wv.v.RawBytes(); int64(len(raw)) != want {
		return fmt.Errorf("netcdf: var %s: payload %d bytes, want %d", name, len(raw), want)
	}
	wv.data = raw
	return nil
}

// PutVarFloat32 supplies a Float32 variable's full payload.
func (w *Writer) PutVarFloat32(name string, vals []float32) error {
	wv, err := w.lookup(name)
	if err != nil {
		return err
	}
	if wv.v.Type != Float32 {
		return fmt.Errorf("netcdf: var %s is %s, not float", name, wv.v.Type)
	}
	return w.PutVarBytes(name, putFloat32s(vals))
}

// PutVarFloat64 supplies a Float64 variable's full payload.
func (w *Writer) PutVarFloat64(name string, vals []float64) error {
	wv, err := w.lookup(name)
	if err != nil {
		return err
	}
	if wv.v.Type != Float64 {
		return fmt.Errorf("netcdf: var %s is %s, not double", name, wv.v.Type)
	}
	return w.PutVarBytes(name, putFloat64s(vals))
}

// PutVarInt32 supplies an Int32 variable's full payload.
func (w *Writer) PutVarInt32(name string, vals []int32) error {
	wv, err := w.lookup(name)
	if err != nil {
		return err
	}
	if wv.v.Type != Int32 {
		return fmt.Errorf("netcdf: var %s is %s, not int", name, wv.v.Type)
	}
	return w.PutVarBytes(name, putInt32s(vals))
}

// PutVara writes the hyperslab [start, start+count) of a variable from
// raw little-endian row-major bytes — nc_put_vara. Regions never written
// stay zero. Mixing PutVara with a later full PutVarBytes overwrites
// everything.
func (w *Writer) PutVara(name string, start, count []int, raw []byte) error {
	wv, err := w.lookup(name)
	if err != nil {
		return err
	}
	shape := wv.v.Shape()
	if len(start) != len(shape) || len(count) != len(shape) {
		return fmt.Errorf("netcdf: var %s: slab rank %d/%d != var rank %d", name, len(start), len(count), len(shape))
	}
	for i := range shape {
		if start[i] < 0 || count[i] <= 0 || start[i]+count[i] > shape[i] {
			return fmt.Errorf("netcdf: var %s: slab [%d,+%d) outside dim %s(%d)", name, start[i], count[i], wv.v.Dims[i].Name, shape[i])
		}
	}
	es := wv.v.Type.Size()
	if len(raw) != volume(count)*es {
		return fmt.Errorf("netcdf: var %s: slab payload %d bytes, want %d", name, len(raw), volume(count)*es)
	}
	if wv.data == nil {
		wv.data = make([]byte, wv.v.RawBytes())
	}
	copyBox(wv.data, shape, start, raw, count, zeros(len(count)), count, es)
	return nil
}

// PutVaraFloat32 writes a float32 hyperslab — nc_put_vara_float.
func (w *Writer) PutVaraFloat32(name string, start, count []int, vals []float32) error {
	wv, err := w.lookup(name)
	if err != nil {
		return err
	}
	if wv.v.Type != Float32 {
		return fmt.Errorf("netcdf: var %s is %s, not float", name, wv.v.Type)
	}
	return w.PutVara(name, start, count, putFloat32s(vals))
}

// Bytes encodes the file: header (with per-chunk index) followed by chunk
// payloads. Every declared variable must have received data.
func (w *Writer) Bytes() ([]byte, error) {
	// First pass: chunk and compress every variable's payload, summarizing
	// each raw chunk into its zone map while the bytes are in hand.
	type stored struct {
		payloads [][]byte
		raws     []int64
		stats    []ChunkStats
	}
	perVar := make([]stored, len(w.vars))
	var deflater ioengine.Deflater // one compressor per level for the whole encode
	for vi, wv := range w.vars {
		if wv.data == nil {
			return nil, fmt.Errorf("netcdf: var %s has no data", wv.v.Name)
		}
		chunks, err := splitChunks(&wv.v, wv.data)
		if err != nil {
			return nil, err
		}
		st := stored{}
		for _, raw := range chunks {
			st.raws = append(st.raws, int64(len(raw)))
			if !w.noStats {
				arr := &Array{Type: wv.v.Type, Data: raw}
				st.stats = append(st.stats, ioengine.SummarizeChunk(len(raw)/wv.v.Type.Size(), arr.Float64At))
			}
			if wv.v.Deflate > 0 {
				comp, err := deflater.Deflate(raw, wv.v.Deflate)
				if err != nil {
					return nil, fmt.Errorf("netcdf: var %s: %w", wv.v.Name, err)
				}
				st.payloads = append(st.payloads, comp)
			} else {
				st.payloads = append(st.payloads, raw)
			}
		}
		perVar[vi] = st
	}

	// Second pass: fix the header size so chunk offsets are final. The
	// header length depends only on metadata and chunk counts, both known.
	assignAndEncode := func(offsets bool, base int64) []byte {
		e := &enc{}
		e.u32(uint32(len(w.dims)))
		for _, d := range w.dims {
			e.str(d.Name)
			e.u64(uint64(d.Len))
		}
		e.attrs(w.gattrs)
		e.u32(uint32(len(w.vars)))
		cur := base
		for vi, wv := range w.vars {
			v := &wv.v
			e.str(v.Name)
			e.u8(uint8(v.Type))
			e.u32(uint32(len(v.Dims)))
			for _, d := range v.Dims {
				e.str(d.Name)
				e.u64(uint64(d.Len))
			}
			e.attrs(v.Attrs)
			if v.ChunkShape != nil {
				e.u8(1)
				for _, c := range v.ChunkShape {
					e.u64(uint64(c))
				}
			} else {
				e.u8(0)
			}
			e.u8(uint8(v.Deflate))
			st := perVar[vi]
			e.u32(uint32(len(st.payloads)))
			for ci, payload := range st.payloads {
				off := int64(0)
				if offsets {
					off = cur
				}
				e.u64(uint64(off))
				e.u64(uint64(len(payload)))
				e.u64(uint64(st.raws[ci]))
				cur += int64(len(payload))
			}
		}
		// Zone maps ride in a tagged trailer after the variable table: a
		// fixed 32 bytes per chunk, so the probe/offset passes agree on the
		// header size, and old readers (which stop at the variable table)
		// skip it untouched.
		if !w.noStats {
			e.u32(ioengine.ZoneMapTag)
			for vi := range w.vars {
				sts := perVar[vi].stats
				e.u32(uint32(len(sts)))
				for _, s := range sts {
					e.buf = s.Append(e.buf)
				}
			}
		}
		return e.buf
	}
	probe := assignAndEncode(false, 0)
	base := int64(len(Magic)) + 8 + int64(len(probe))
	header := assignAndEncode(true, base)
	if len(header) != len(probe) {
		return nil, fmt.Errorf("netcdf: internal error: header size changed %d -> %d", len(probe), len(header))
	}

	out := make([]byte, 0, base)
	out = append(out, Magic...)
	e := &enc{buf: out}
	e.u64(uint64(len(header)))
	e.buf = append(e.buf, header...)
	for _, st := range perVar {
		for _, payload := range st.payloads {
			e.buf = append(e.buf, payload...)
		}
	}
	return e.buf, nil
}

// splitChunks slices a variable's raw payload into row-major chunk
// payloads, clamping edge chunks.
func splitChunks(v *Var, raw []byte) ([][]byte, error) {
	if v.ChunkShape == nil {
		return [][]byte{raw}, nil
	}
	grid := v.chunkGrid()
	n := 1
	for _, g := range grid {
		n *= g
	}
	out := make([][]byte, 0, n)
	idx := make([]int, len(grid))
	shape := v.Shape()
	es := v.Type.Size()
	for {
		start, extent := v.chunkExtent(idx)
		payload := make([]byte, volume(extent)*es)
		copyBox(payload, extent, zeros(len(extent)), raw, shape, start, extent, es)
		out = append(out, payload)
		if !incIndex(idx, grid) {
			break
		}
	}
	return out, nil
}
