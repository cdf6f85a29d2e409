// Package aquery adapts a netcdf file's chunked variables to the rsql
// array-query planner: a variable becomes an rsql.ArrayTable whose
// per-chunk metadata carries the write-time zone maps (so WHERE
// predicates prune chunks before any I/O), whose coordinate columns are
// computed from chunk geometry instead of being materialized, and whose
// payload reads go through the engine's single-pass scan path (cache may
// serve, never fills on a miss).
package aquery

import (
	"fmt"
	"slices"

	"scidp/internal/ioengine"
	"scidp/internal/netcdf"
	"scidp/internal/rsql"
	"scidp/internal/sim"
)

// valueCol names the payload column.
const valueCol = "value"

// Table is an rsql.ArrayTable over one chunked variable. It also
// implements rsql.Projector: when the plan references no payload column
// the chunk payloads are never read at all. What the header says of a
// chunk and how its payload is announced and read is the container's.
type Table struct {
	ioengine.ChunkIndex
	dims        []string
	cols        []rsql.ColumnInfo
	metas       []rsql.ChunkMeta
	needPayload bool
}

// NewNetCDF adapts one variable of an opened netcdf file. Dimensions
// become integer coordinate columns named after the variable's dims; the
// payload becomes the value column. Row order is chunk order × row-major
// within each chunk. Every chunk's metadata — coordinate bounds from its
// box, value bounds from its zone map — is built before any payload I/O.
func NewNetCDF(f *netcdf.File, varName string) (*Table, error) {
	v, err := f.Var(varName)
	if err != nil {
		return nil, err
	}
	t := &Table{ChunkIndex: f.ChunkIndex(v), needPayload: true}
	for _, d := range v.Dims {
		if d.Name == valueCol || slices.Contains(t.dims, d.Name) {
			return nil, fmt.Errorf("aquery: duplicate column %q", d.Name)
		}
		t.dims = append(t.dims, d.Name)
		t.cols = append(t.cols, rsql.ColumnInfo{Name: d.Name, Int: true})
	}
	t.cols = append(t.cols, rsql.ColumnInfo{Name: valueCol})
	for i := range t.Chunks {
		start, extent := t.Grid.Box(i)
		bounds := map[string]rsql.Interval{}
		for di, name := range t.dims {
			bounds[name] = rsql.Interval{Lo: float64(start[di]), Hi: float64(start[di] + extent[di] - 1)}
		}
		c := &t.Chunks[i]
		bounds[valueCol] = rsql.Interval{Lo: c.Stats.Min, Hi: c.Stats.Max}
		t.metas = append(t.metas, rsql.ChunkMeta{Rows: ioengine.Volume(extent), RawBytes: c.RawSize, StoredBytes: c.StoredSize, Bounds: bounds})
	}
	return t, nil
}

// chunk implements rsql.Chunk: the coordinate columns by accessor
// closure, the value column from the chunk's payload.
type chunk struct {
	rows    int
	cols    map[string]func(int) float64
	typ     ioengine.Type
	payload ioengine.Payload
	valued  bool // the payload was read, not projected out
}

func (c *chunk) NumRows() int { return c.rows }

// Col returns a column's accessor. The value column's payload is decoded
// here, inside rsql's ScanChunk on the data plane, when the engine kept
// no copy of it.
func (c *chunk) Col(name string) (func(int) float64, error) {
	if name == valueCol && c.valued {
		raw, err := c.payload.Bytes()
		if err != nil {
			return nil, err
		}
		typ := c.typ
		return func(row int) float64 { return typ.Float64At(raw, row) }, nil
	}
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

// Read implements rsql.ArrayTable: the coordinate columns of chunk i,
// computed from its box, and, unless projected out, its payload.
func (t *Table) Read(i int) (rsql.Chunk, error) {
	start, extent := t.Grid.Box(i)
	c := &chunk{rows: ioengine.Volume(extent), cols: make(map[string]func(int) float64, len(t.dims)), typ: t.Type}
	str := ioengine.Strides(extent)
	for di, name := range t.dims {
		s0, ex, st := start[di], extent[di], str[di]
		c.cols[name] = func(row int) float64 { return float64(s0 + (row/st)%ex) }
	}
	if t.needPayload {
		// The engine's single-pass path: the cache may serve, never fills.
		pl, err := t.Scan(i)
		if err != nil {
			return nil, err
		}
		c.payload, c.valued = pl, true
	}
	return c, nil
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
