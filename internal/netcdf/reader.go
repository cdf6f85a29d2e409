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
// readers below index and allocate by it as it stands. The metadata lands
// in a few slabs per file; only each chunk index is a slice of its own.
func Open(r ReaderAt) (*File, error) {
	d, err := dialect.Open(r)
	if err != nil {
		return nil, err
	}
	f := &File{r: r, Header: d.Header}
	f.dims = decodeDims(d, make([]Dim, d.Count(12)))
	f.gattrs = decodeAttrs(d, make([]Attr, d.Count(9)))
	nv := d.Count(19)
	vars := make([]Var, nv)
	f.vars, f.byName = make([]*Var, 0, nv), make(map[string]*Var, nv)
	var s slabs
	for i := 0; i < nv && d.Err() == nil; i++ {
		v := &vars[i]
		s.decodeVar(d, v, nv-i)
		if f.byName[v.Name] != nil {
			d.Failf("variable %s declared twice", v.Name)
		}
		f.vars = append(f.vars, v)
		f.byName[v.Name] = v
	}
	d.ZoneMaps()
	for _, v := range f.vars {
		d.ChunkStats(v.Name, v.Chunks)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return f, nil
}

// maxBlock caps a slab block's elements, so a block costs a bounded number
// of bytes whatever a header declares.
const maxBlock = 256

// slab carves small slices out of shared blocks. Each piece is capped at
// its own length, so appending to one variable's Dims copies them rather
// than writing into the next variable's; a full block stays with the
// pieces already handed out and a new one is started.
type slab[T any] []T

// carve returns the next n elements. A new block has room for n for each
// of the left variables still to decode — the variable at hand stands in
// for the rest — up to maxBlock.
func (s *slab[T]) carve(n, left int) []T {
	if n > cap(*s)-len(*s) {
		*s = make([]T, 0, max(n, min(n*left, maxBlock)))
	}
	l := len(*s)
	*s = (*s)[:l+n]
	return (*s)[l : l+n : l+n]
}

// slabs are one header's blocks: the variables' dimensions, attributes,
// and grid and chunk extents.
type slabs struct {
	dims  slab[Dim]
	attrs slab[Attr]
	ints  slab[int]
}

// decodeDims reads len(dims) dimensions into dims: a name and a length of
// at least one, twelve header bytes or more each.
func decodeDims(d *ioengine.Decoder, dims []Dim) []Dim {
	for i := range dims {
		dims[i] = Dim{Name: d.Str(), Len: d.Int()}
		if d.Err() == nil && dims[i].Len < 1 {
			d.Failf("dimension %s has no length", dims[i].Name)
		}
	}
	return dims
}

// decodeAttrs reads len(out) attributes into out.
func decodeAttrs(d *ioengine.Decoder, out []Attr) []Attr {
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

// decodeVar reads one variable into v, left counting it and the
// variables after it.
func (s *slabs) decodeVar(d *ioengine.Decoder, v *Var, left int) {
	v.Name, v.Type = d.Str(), Type(d.U8())
	if d.Err() == nil && !v.Type.Valid() {
		d.Failf("%s: unknown element type %d", v.Name, uint8(v.Type))
	}
	rank := d.Rank(12)
	v.Dims = decodeDims(d, s.dims.carve(rank, left))
	v.Attrs = decodeAttrs(d, s.attrs.carve(d.Count(9), left))
	// The grid's shape, then the chunk extents when the header has them.
	n := rank
	if d.U8() == 1 {
		n *= 2
	}
	ext := s.ints.carve(n, left)
	v.grid = ioengine.Grid{Shape: ext[:rank:rank], Chunk: ext[:rank:rank]}
	for j, dim := range v.Dims {
		v.grid.Shape[j] = dim.Len
	}
	if n > rank {
		v.ChunkShape, v.grid.Chunk = ext[rank:], ext[rank:]
		for j := range v.ChunkShape {
			v.ChunkShape[j] = d.Int()
		}
	}
	v.Deflate = int(d.U8())
	v.Chunks = make([]ioengine.Chunk, d.Count(24))
	for j := range v.Chunks {
		v.Chunks[j] = d.Chunk()
	}
	d.CheckArray(ioengine.Layout{Name: v.Name, Type: v.Type, Grid: v.grid, Deflated: v.Deflate > 0}, v.Chunks)
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
		Grid: v.grid, Chunks: v.Chunks}
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
