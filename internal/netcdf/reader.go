package netcdf

import (
	"fmt"
	"math"
	"slices"

	"scidp/internal/ioengine"
)

// ReaderAt is the random-access source a file is parsed from — the shared
// ioengine view. The PFS client's engine-backed reader implements it
// (charging virtual time per call, optionally caching and prefetching
// chunks); BytesReader implements it over a plain in-memory blob.
type ReaderAt = ioengine.Source

// BytesReader adapts an in-memory blob to ReaderAt.
type BytesReader = ioengine.Bytes

// Detect reports whether r starts with the format magic — the format-
// checking probe the Sci-format Head Reader uses (the analogue of
// nc_open succeeding / H5Fis_hdf5).
func Detect(r ReaderAt) bool { return dialect.Detect(r) }

// File is an opened file: parsed metadata plus the data source for chunk
// reads.
type File struct {
	r      ReaderAt
	dims   []Dim
	gattrs []Attr
	vars   []*Var
	byName map[string]*Var
	// Header is what Open read of the header: its length is the
	// metadata-only cost of exploring the file.
	Header ioengine.Header
}

// Open parses the header (two range-reads: the fixed prefix, then the
// header body) without touching any variable data. Every variable's chunk
// index has passed the container's validation when Open returns, so the
// readers below index and allocate by it as it stands.
func Open(r ReaderAt) (*File, error) {
	d, err := dialect.Open(r)
	if err != nil {
		return nil, err
	}
	f := &File{r: r, byName: map[string]*Var{}, Header: d.Header}
	f.dims = decodeDims(d, d.Count(12))
	f.gattrs = decodeAttrs(d)
	for i, nv := 0, d.Count(19); i < nv && d.Err() == nil; i++ {
		v := decodeVar(d)
		if f.byName[v.Name] != nil {
			d.Failf("variable %s declared twice", v.Name)
		}
		f.vars = append(f.vars, v)
		f.byName[v.Name] = v
	}
	if d.ZoneMaps() {
		for _, v := range f.vars {
			d.ChunkStats(v.Name, len(v.Chunks), v.chunk)
		}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return f, nil
}

// decodeDims reads n dimensions: a name and a length of at least one,
// twelve header bytes or more each.
func decodeDims(d *ioengine.Decoder, n int) []Dim {
	dims := make([]Dim, n)
	for i := range dims {
		dims[i] = Dim{Name: d.Str(), Len: d.Int()}
		if d.Err() == nil && dims[i].Len < 1 {
			d.Failf("dimension %s has no length", dims[i].Name)
		}
	}
	return dims
}

func decodeAttrs(d *ioengine.Decoder) []Attr {
	out := make([]Attr, d.Count(9))
	for i := range out {
		a := Attr{Name: d.Str(), Kind: AttrKind(d.U8())}
		switch a.Kind {
		case AttrString:
			a.Str = d.Str()
		case AttrFloat64:
			a.F64 = math.Float64frombits(d.U64())
		case AttrInt64:
			a.I64 = int64(d.U64())
		default:
			d.Failf("unknown attr kind %d", a.Kind)
		}
		out[i] = a
	}
	return out
}

func decodeVar(d *ioengine.Decoder) *Var {
	v := &Var{Name: d.Str(), Type: Type(d.U8())}
	if d.Err() == nil && !v.Type.Valid() {
		d.Failf("%s: unknown element type %d", v.Name, uint8(v.Type))
	}
	v.Dims = decodeDims(d, d.Rank(12))
	v.Attrs = decodeAttrs(d)
	if d.U8() == 1 {
		v.ChunkShape = make([]int, len(v.Dims))
		for j := range v.ChunkShape {
			v.ChunkShape[j] = d.Int()
		}
	}
	v.Deflate = int(d.U8())
	v.Chunks = make([]ioengine.Chunk, d.Count(24))
	for j := range v.Chunks {
		v.Chunks[j] = d.Chunk()
	}
	v.grid = v.gridOf(v.ChunkShape)
	d.CheckArray(ioengine.Layout{Name: v.Name, Type: v.Type, Grid: v.grid, Deflated: v.Deflate > 0}, len(v.Chunks), v.chunk)
	return v
}

// Dims returns the file's dimensions.
func (f *File) Dims() []Dim { return f.dims }

// GlobalAttrs returns the file-level attributes.
func (f *File) GlobalAttrs() []Attr { return f.gattrs }

// Vars returns every variable's metadata — nc_inq.
func (f *File) Vars() []*Var { return f.vars }

// Var returns the named variable's metadata — nc_inq_var.
func (f *File) Var(name string) (*Var, error) {
	v, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("netcdf: no variable %q", name)
	}
	return v, nil
}

// ChunkIndex returns the read side of v's chunk index: cached reads,
// single-pass scans and readahead announcements by chunk number.
func (f *File) ChunkIndex(v *Var) ioengine.ChunkIndex {
	return ioengine.ChunkIndex{Src: f.r, Pkg: dialect.Name, Name: v.Name, Type: v.Type, Deflated: v.Deflate > 0,
		Grid: v.grid, Len: len(v.Chunks), At: v.chunk}
}

// checkSlab holds the hyperslab [start, start+count) to v's shape.
func (v *Var) checkSlab(start, count []int) error {
	if len(start) != len(v.Dims) || len(count) != len(v.Dims) {
		return fmt.Errorf("netcdf: %s: slab rank %d/%d != var rank %d", v.Name, len(start), len(count), len(v.Dims))
	}
	for i, d := range v.Dims {
		if start[i] < 0 || count[i] <= 0 || start[i]+count[i] > d.Len {
			return fmt.Errorf("netcdf: %s: slab [%d,+%d) outside dim %s(%d)", v.Name, start[i], count[i], d.Name, d.Len)
		}
	}
	return nil
}

// GetVara reads the hyperslab [start, start+count) of the named variable —
// nc_get_vara. Only chunks overlapping the slab are read (and
// decompressed); that selective I/O is what SciDP's dummy-block reads
// resolve to.
func (f *File) GetVara(name string, start, count []int) (*Array, error) {
	v, err := f.Var(name)
	if err != nil {
		return nil, err
	}
	if err := v.checkSlab(start, count); err != nil {
		return nil, err
	}
	data, err := f.ChunkIndex(v).ReadBox(start, count)
	if err != nil {
		return nil, err
	}
	return &Array{Type: v.Type, Shape: slices.Clone(count), Data: data}, nil
}

// GetVar reads a whole variable.
func (f *File) GetVar(name string) (*Array, error) {
	v, err := f.Var(name)
	if err != nil {
		return nil, err
	}
	return f.GetVara(name, make([]int, len(v.Dims)), v.Shape())
}
