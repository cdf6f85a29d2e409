package rsql

import "scidp/internal/sim"

// This file defines the array-table contract the pushdown planner runs
// against: a chunked array whose per-chunk metadata (geometry and
// write-time zone maps) is known before any I/O, whose chunks decode on
// demand, and whose fused-scan work can fork onto the simulation's data
// plane. The netCDF adapter (aquery.NewNetCDF) lives in internal/aquery.

// ColumnInfo describes one column an ArrayTable exposes.
type ColumnInfo struct {
	// Name is the column name referenced from SQL.
	Name string
	// Int marks integer-valued columns (array coordinates, constants);
	// SELECT * keeps them as int64 output columns. Value columns are
	// float.
	Int bool
}

// Interval is a closed numeric range [Lo, Hi]. An inverted interval
// (Lo > Hi) is empty — how an all-fill chunk encodes its value bounds,
// since NaN fill fails every comparison.
type Interval struct {
	// Lo is the inclusive lower bound.
	Lo float64
	// Hi is the inclusive upper bound.
	Hi float64
}

// Disjoint reports whether a and b share no point.
func (a Interval) Disjoint(b Interval) bool { return a.Lo > b.Hi || a.Hi < b.Lo }

// ChunkMeta is everything the planner knows about one chunk before any
// I/O: row count, payload sizes, and per-column value bounds (coordinate
// bounds from chunk geometry, value bounds from the zone maps).
type ChunkMeta struct {
	// Rows is the number of rows the chunk contributes.
	Rows int
	// RawBytes is the decompressed payload size.
	RawBytes int64
	// StoredBytes is the on-disk payload size.
	StoredBytes int64
	// Bounds maps column name to its value interval within the chunk.
	// Columns without an entry are unbounded.
	Bounds map[string]Interval
}

// Chunk is one decoded chunk: column accessors over local row indices.
// Accessors must be pure — ScanChunk runs on the data plane.
type Chunk interface {
	// NumRows returns the chunk's row count.
	NumRows() int
	// Col returns an accessor for the named column's value at a local row.
	Col(name string) (func(row int) float64, error)
}

// ArrayTable is a chunked array a pushdown query scans.
type ArrayTable interface {
	// Columns lists the exposed columns.
	Columns() []ColumnInfo
	// NumChunks returns the chunk count.
	NumChunks() int
	// Meta returns chunk i's pre-I/O metadata.
	Meta(i int) ChunkMeta
	// Announce declares the surviving chunk list before reads, so a
	// prefetching source stages exactly those chunks.
	Announce(chunks []int)
	// Read decodes chunk i (the only per-chunk I/O a scan performs).
	Read(i int) (Chunk, error)
	// Fork submits pure scan work to the data plane; a table with no
	// process behind it runs fn inline and returns nil, which the
	// executor drops. Join awaits the futures Fork did return.
	Fork(fn func()) *sim.Future
	// Join blocks until every future has resolved.
	Join(futs ...*sim.Future)
}
