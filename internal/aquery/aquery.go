// Package aquery adapts the scientific formats' chunked variables to the
// rsql array-query planner: a netcdf variable or hdf5lite dataset becomes
// an rsql.ArrayTable whose per-chunk metadata carries the write-time zone
// maps (so WHERE predicates prune chunks before any I/O), whose
// coordinate columns are computed from chunk geometry instead of being
// materialized, and whose payload reads go through the engine's
// single-pass scan path (cache may serve, never fills on a miss).
package aquery

import (
	"fmt"
	"math"
	"slices"

	"scidp/internal/hdf5lite"
	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/rsql"
	"scidp/internal/sim"
)

// valueCol names the payload column.
const valueCol = "value"

// Option customizes a table adapter.
type Option func(*options)

type options struct {
	consts []constCol
}

type constCol struct {
	name string
	v    float64
}

// WithConst adds a constant column — how a per-file coordinate like the
// timestamp joins the schema without being stored. Constants prune like
// any other column: a predicate excluding the constant skips every chunk.
func WithConst(name string, v float64) Option {
	return func(o *options) { o.consts = append(o.consts, constCol{name: name, v: v}) }
}

// array is what the formats differ in: how a chunked array names its
// dimensions and where chunk i lies in them. What the header says of a
// chunk and how its payload is announced and read is the container's.
type array struct {
	ioengine.ChunkIndex
	dims []string
	box  func(i int) (start, extent []int)
}

// Table is an rsql.ArrayTable over one chunked array. It also implements
// rsql.Projector: when the plan references no payload column the chunk
// payloads are never read at all.
type Table struct {
	array
	options
	cols        []rsql.ColumnInfo
	metas       []rsql.ChunkMeta
	needPayload bool
}

// newTable builds the table over a: the schema, and every chunk's
// metadata — coordinate bounds from its box, constant bounds from the
// options, value bounds from its zone map — before any payload I/O.
func newTable(a array, opts []Option) (*Table, error) {
	t := &Table{array: a, needPayload: true}
	for _, fn := range opts {
		fn(&t.options)
	}
	var err error
	if t.cols, err = schema(a.dims, &t.options); err != nil {
		return nil, err
	}
	for i := 0; i < a.Len; i++ {
		start, extent := a.box(i)
		bounds := map[string]rsql.Interval{}
		for di, name := range a.dims {
			bounds[name] = rsql.Interval{Lo: float64(start[di]), Hi: float64(start[di] + extent[di] - 1)}
		}
		for _, cc := range t.consts {
			bounds[cc.name] = rsql.Interval{Lo: cc.v, Hi: cc.v}
		}
		c := a.At(i)
		if c.Stats != nil {
			bounds[valueCol] = rsql.Interval{Lo: c.Stats.Min, Hi: c.Stats.Max}
		}
		t.metas = append(t.metas, rsql.ChunkMeta{Rows: ioengine.Volume(extent), RawBytes: c.RawSize, StoredBytes: c.StoredSize, Bounds: bounds})
	}
	return t, nil
}

// chunk implements rsql.Chunk via per-column accessor closures.
type chunk struct {
	rows int
	cols map[string]func(int) float64
}

func (c *chunk) NumRows() int { return c.rows }

func (c *chunk) Col(name string) (func(int) float64, error) {
	acc := c.cols[name]
	if acc == nil {
		return nil, fmt.Errorf("aquery: no column %q", name)
	}
	return acc, nil
}

// Columns implements rsql.ArrayTable.
func (t *Table) Columns() []rsql.ColumnInfo { return t.cols }

// NumChunks implements rsql.ArrayTable.
func (t *Table) NumChunks() int { return len(t.metas) }

// Meta implements rsql.ArrayTable.
func (t *Table) Meta(i int) rsql.ChunkMeta { return t.metas[i] }

// Announce implements rsql.ArrayTable; a projected-out payload needs no
// staging at all.
func (t *Table) Announce(chunks []int) {
	if t.needPayload {
		t.ChunkIndex.Announce(chunks)
	}
}

// Read implements rsql.ArrayTable: the geometry-derived columns of chunk i
// and, unless projected out, its payload.
func (t *Table) Read(i int) (rsql.Chunk, error) {
	start, extent := t.box(i)
	cols := geoCols(t.dims, start, extent, &t.options)
	if t.needPayload {
		// The engine's single-pass path: the cache may serve, never fills.
		raw, err := t.Scan(i)
		if err != nil {
			return nil, err
		}
		typ := t.Type
		cols[valueCol] = func(row int) float64 { return typ.Float64At(raw, row) }
	}
	return &chunk{rows: ioengine.Volume(extent), cols: cols}, nil
}

// Fork implements rsql.ArrayTable on the file's source (the bound
// process's data plane when the file was opened over ioengine.Bind).
func (t *Table) Fork(fn func()) *sim.Future { return ioengine.Fork(t.Src, fn) }

// Join implements rsql.ArrayTable.
func (t *Table) Join(futs ...*sim.Future) { ioengine.Join(t.Src, futs...) }

// Project implements rsql.Projector: payload decoding is skipped when no
// referenced column needs it.
func (t *Table) Project(cols []string) bool {
	t.needPayload = slices.Contains(cols, valueCol)
	return t.needPayload
}

// schema assembles the column list: dimensions (integer coordinates),
// then constants, then the payload column.
func schema(dims []string, o *options) ([]rsql.ColumnInfo, error) {
	var cols []rsql.ColumnInfo
	seen := map[string]bool{}
	add := func(c rsql.ColumnInfo) error {
		if seen[c.Name] {
			return fmt.Errorf("aquery: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		cols = append(cols, c)
		return nil
	}
	for _, d := range dims {
		if err := add(rsql.ColumnInfo{Name: d, Int: true}); err != nil {
			return nil, err
		}
	}
	for _, cc := range o.consts {
		if err := add(rsql.ColumnInfo{Name: cc.name, Int: cc.v == math.Trunc(cc.v)}); err != nil {
			return nil, err
		}
	}
	if err := add(rsql.ColumnInfo{Name: valueCol}); err != nil {
		return nil, err
	}
	return cols, nil
}

// strides returns the row-major stride per dimension of an extent, so a
// flat row index maps to coordinates via (row/stride[d]) % extent[d].
func strides(extent []int) []int {
	out := make([]int, len(extent))
	s := 1
	for d := len(extent) - 1; d >= 0; d-- {
		out[d] = s
		s *= extent[d]
	}
	return out
}

// geoCols builds the geometry-derived accessors of one chunk: coordinate
// columns from the chunk box, constant columns from the options.
func geoCols(dims []string, start, extent []int, o *options) map[string]func(int) float64 {
	cols := make(map[string]func(int) float64, len(dims)+len(o.consts)+1)
	str := strides(extent)
	for di, name := range dims {
		di := di
		s0, ex, st := start[di], extent[di], str[di]
		cols[name] = func(row int) float64 { return float64(s0 + (row/st)%ex) }
	}
	for _, cc := range o.consts {
		v := cc.v
		cols[cc.name] = func(int) float64 { return v }
	}
	return cols
}

// NewNetCDF adapts one variable of an opened netcdf file. Dimensions
// become integer coordinate columns named after the variable's dims; the
// payload becomes the value column. Row order is chunk order × row-major
// within each chunk.
func NewNetCDF(f *netcdf.File, varName string, opts ...Option) (*Table, error) {
	v, err := f.Var(varName)
	if err != nil {
		return nil, err
	}
	dims := make([]string, len(v.Dims))
	for i, d := range v.Dims {
		dims[i] = d.Name
	}
	return newTable(array{ChunkIndex: f.ChunkIndex(v), dims: dims, box: v.ChunkBox}, opts)
}

// NewHDF5 adapts one dataset of an opened hdf5lite file. dimNames names
// the dataset's dimensions in storage order (the format stores shapes
// without names); chunking is along the leading dimension.
func NewHDF5(f *hdf5lite.File, path string, dimNames []string, opts ...Option) (*Table, error) {
	d, err := f.Find(path)
	if err != nil {
		return nil, err
	}
	if len(dimNames) != len(d.Shape) {
		return nil, fmt.Errorf("aquery: %s: %d dim names for rank-%d dataset", path, len(dimNames), len(d.Shape))
	}
	return newTable(array{ChunkIndex: f.ChunkIndex(d), dims: dimNames, box: d.ChunkBox}, opts)
}
