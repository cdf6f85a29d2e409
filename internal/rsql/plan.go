package rsql

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"scidp/internal/obs"
	"scidp/internal/rframe"
	"scidp/internal/sim"
)

// This file is the chunk-pushdown query engine: a statement compiled into
// two ordinary queries for the executor in exec.go — one that answers a
// chunk, one that answers the chunks' answers — plus the WHERE bounds it
// intersects with per-chunk zone maps before any I/O. Only the surviving
// chunks are scanned, on the data plane, and their answers merge in chunk
// order, so the output is byte-identical at any worker count — and
// byte-identical with pushdown on or off, because a scanned chunk with no
// matching rows contributes exactly what a skipped chunk does: nothing.

// PushdownMode selects whether the planner's chunk skip-list is applied.
type PushdownMode int

const (
	// Pushdown skips chunks the zone maps prove irrelevant (the default).
	Pushdown PushdownMode = iota
	// PushdownOff is the oracle mode: scan every chunk. Results must be
	// byte-identical to Pushdown — the correctness check the bench and
	// tests enforce, mirroring the fair-share FairShareFull oracle.
	PushdownOff
)

// String names the mode.
func (m PushdownMode) String() string {
	if m == PushdownOff {
		return "oracle"
	}
	return "pushdown"
}

// ArrayQueryOpts configures QueryArrays.
type ArrayQueryOpts struct {
	// Mode selects pushdown or the full-scan oracle.
	Mode PushdownMode
	// Obs, when non-nil, receives the query counters
	// (query/chunks_scanned_total, query/chunks_skipped_total,
	// query/bytes_avoided_total) and a per-query span.
	Obs *obs.Registry
}

// ScanStats reports what a query's scan touched and what pruning avoided.
type ScanStats struct {
	// ChunksTotal is the table's chunk count.
	ChunksTotal int
	// ChunksScanned is how many chunks were read and decoded.
	ChunksScanned int
	// ChunksSkipped is how many chunks pruning proved irrelevant.
	ChunksSkipped int
	// BytesInflated is the decompressed payload bytes of scanned chunks.
	BytesInflated int64
	// BytesAvoided is the decompressed payload bytes never inflated.
	BytesAvoided int64
	// StoredRead is the on-disk bytes of scanned chunks.
	StoredRead int64
	// StoredAvoided is the on-disk bytes never read.
	StoredAvoided int64
	// RowsScanned is the row count of scanned chunks.
	RowsScanned int
	// RowsMatched is how many scanned rows passed the WHERE clause.
	RowsMatched int
}

// Projector is the optional ArrayTable extension QueryArrays uses to
// narrow a table to the plan's referenced columns before the scan. The
// return value reports whether chunk payloads still need decoding (false
// when only geometry-derived columns are referenced).
type Projector interface {
	Project(cols []string) bool
}

// ArrayPlan is a compiled pushdown query: two ordinary queries the frame
// executor runs, and the predicate bounds extracted for pruning. The scan
// query answers one chunk; the merge query answers the chunks' answers
// stacked in chunk order (DESIGN.md, "One executor, two queries").
type ArrayPlan struct {
	from   string
	cols   []ColumnInfo // the referenced columns, in schema order
	refs   []string     // their names
	bounds map[string]Interval
	scan   *query
	merge  *query
	schema *rframe.Frame // the scan's answer over no rows: its columns
}

// noRows is the chunk a schema alone stands for: every column, no row.
type noRows struct{}

func (noRows) NumRows() int { return 0 }

func (noRows) Col(string) (func(int) float64, error) {
	return func(int) float64 { return 0 }, nil
}

// chunkItems presents a chunk's columns as items: numbers all, read
// through the chunk's accessors.
func chunkItems(cols []ColumnInfo, c Chunk) ([]item, error) {
	items := make([]item, len(cols))
	for i, info := range cols {
		at, err := c.Col(info.Name)
		if err != nil {
			return nil, err
		}
		items[i] = item{name: info.Name, bound: bound{num: at}, integer: info.Int}
	}
	return items, nil
}

// CompileArray parses sql and compiles it against a table schema. It binds
// the query as Query would over a frame of these columns, so the two reject
// the same queries; the full WHERE clause is still evaluated per row, so
// the extracted bounds are purely an optimization.
func CompileArray(sql string, cols []ColumnInfo) (*ArrayPlan, error) {
	q, err := parse(sql)
	if err != nil {
		return nil, err
	}
	return compileArray(q, cols)
}

func compileArray(q *query, cols []ColumnInfo) (*ArrayPlan, error) {
	all, _ := chunkItems(cols, noRows{}) // which has every column: no error
	user, err := bindQuery(q, all, 0)
	if err != nil {
		return nil, err
	}
	pl := &ArrayPlan{from: q.from, bounds: extractBounds(q.where)}

	// The projection list: the columns the query names, all of them for *.
	named := map[string]bool{}
	name := func(e expr) {
		if c, ok := e.(colRef); ok {
			named[c.name] = true
		}
	}
	walk(q.where, name)
	star := false
	for _, it := range q.sel {
		walk(it.ex, name)
		star = star || it.star
	}
	for _, c := range cols {
		if star || named[c.Name] || slices.Contains(q.groupBy, c.Name) {
			pl.cols, pl.refs = append(pl.cols, c), append(pl.refs, c.Name)
		}
	}

	// A plain select list is evaluated by the scan and the merge only
	// stacks, orders and cuts; an aggregated one is split between them.
	pl.scan = &query{sel: q.sel, from: q.from, where: q.where, groupBy: q.groupBy, limit: -1}
	pl.merge = &query{sel: []selectItem{{star: true}}, from: q.from, groupBy: q.groupBy, orderBy: q.orderBy, limit: q.limit}
	if user.groups != nil {
		pl.scan.sel, pl.merge.sel = splitAggregates(q.sel, pl.refs)
	}
	scan, err := bindQuery(pl.scan, all, 0)
	if err != nil {
		return nil, err
	}
	pl.schema = scan.run().Head(0) // a global aggregate answers one row even over none
	return pl, nil
}

// splitAggregates rewrites an aggregated select list into the scan's —
// every referenced column bare, which in a group is its first row's value,
// then one partial per aggregate call under a name no lexer can produce —
// and the merge's: the same items under the same output names, each
// aggregate call replaced by the combination of its partials.
//
//	SUM(x)             SUM(x) AS p                SUM(p)
//	COUNT(x), COUNT(*) the same AS p              SUM(p)
//	MIN(x), MAX(x)     the same AS p              MIN(p), MAX(p)
//	AVG(x)             SUM(x) AS s, COUNT(*) AS c SUM(s) / SUM(c)
func splitAggregates(sel []selectItem, refs []string) (scan, merge []selectItem) {
	for _, name := range refs {
		scan = append(scan, selectItem{ex: colRef{name: name}})
	}
	partial := func(c call, combine string) expr {
		name := "#" + strconv.Itoa(len(scan))
		scan = append(scan, selectItem{ex: c, alias: name})
		return call{name: combine, args: []expr{colRef{name: name}}}
	}
	var rewrite func(e expr) expr
	rewrite = func(e expr) expr {
		switch x := e.(type) {
		case unary:
			x.x = rewrite(x.x)
			return x
		case binary:
			x.l, x.r = rewrite(x.l), rewrite(x.r)
			return x
		case call:
			switch x.name {
			case "SUM", "MIN", "MAX":
				return partial(x, x.name)
			case "COUNT":
				return partial(x, "SUM")
			case "AVG":
				sum := partial(call{name: "SUM", args: x.args}, "SUM")
				return newBinary("/", sum, partial(call{name: "COUNT", star: true}, "SUM"))
			}
			x.args = []expr{rewrite(x.args[0])} // a scalar function: bind counted its arguments
			return x
		}
		return e
	}
	for i, it := range sel {
		merge = append(merge, selectItem{ex: rewrite(it.ex), alias: itemName(it, i)})
	}
	return scan, merge
}

// extractBounds pulls per-column intervals from the WHERE clause's
// top-level AND conjuncts of the form `col op literal` (or flipped). OR
// and NOT subtrees contribute nothing — pruning stays a conservative
// over-approximation and the full predicate is re-evaluated per row.
func extractBounds(e expr) map[string]Interval {
	out := map[string]Interval{}
	var visit func(e expr)
	visit = func(e expr) {
		b, ok := e.(binary)
		if !ok {
			return
		}
		if b.op == "AND" {
			visit(b.l)
			visit(b.r)
			return
		}
		col, lit, op := "", 0.0, b.op
		if c, ok := b.l.(colRef); ok {
			if n, ok := b.r.(numLit); ok {
				col, lit = c.name, n.v
			}
		} else if c, ok := b.r.(colRef); ok {
			if n, ok := b.l.(numLit); ok {
				// Flip `lit op col` into `col op' lit`.
				col, lit = c.name, n.v
				switch b.op {
				case "<":
					op = ">"
				case "<=":
					op = ">="
				case ">":
					op = "<"
				case ">=":
					op = "<="
				}
			}
		}
		if col == "" {
			return
		}
		iv := Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
		switch op {
		case "<", "<=":
			iv.Hi = lit
		case ">", ">=":
			iv.Lo = lit
		case "=":
			iv.Lo, iv.Hi = lit, lit
		default:
			return
		}
		if prev, ok := out[col]; ok {
			iv.Lo = max(iv.Lo, prev.Lo)
			iv.Hi = min(iv.Hi, prev.Hi)
		}
		out[col] = iv
	}
	visit(e)
	return out
}

// Survivors returns the chunk indices the scan must read: all of them in
// oracle mode, otherwise every chunk whose metadata bounds intersect each
// extracted predicate interval.
func (pl *ArrayPlan) Survivors(t ArrayTable, mode PushdownMode) []int {
	n := t.NumChunks()
	keep := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if mode == Pushdown && pl.prunes(t.Meta(i)) {
			continue
		}
		keep = append(keep, i)
	}
	return keep
}

// Stats summarizes, before any I/O, what a scan of t under mode will
// touch and what pruning avoids, along with the surviving chunk list.
// payload reports whether chunk payloads will be decoded (false when the
// projection drops them).
func (pl *ArrayPlan) Stats(t ArrayTable, mode PushdownMode, payload bool) (*ScanStats, []int) {
	survivors := pl.Survivors(t, mode)
	st := &ScanStats{ChunksTotal: t.NumChunks()}
	surv := make(map[int]bool, len(survivors))
	for _, i := range survivors {
		surv[i] = true
	}
	for i := 0; i < t.NumChunks(); i++ {
		m := t.Meta(i)
		if surv[i] {
			st.ChunksScanned++
			st.RowsScanned += m.Rows
			if payload {
				st.BytesInflated += m.RawBytes
				st.StoredRead += m.StoredBytes
			}
		} else {
			st.ChunksSkipped++
			st.BytesAvoided += m.RawBytes
			st.StoredAvoided += m.StoredBytes
		}
	}
	return st, survivors
}

// prunes reports whether the chunk provably holds no matching row.
func (pl *ArrayPlan) prunes(m ChunkMeta) bool {
	for col, pred := range pl.bounds {
		if b, ok := m.Bounds[col]; ok && b.Disjoint(pred) {
			return true
		}
	}
	return false
}

// ChunkPartial is the scan query's answer for one chunk — pure data, merged
// on the kernel thread in chunk order.
type ChunkPartial struct {
	rows  int
	frame *rframe.Frame // nil when no row matched
}

// ScanChunk runs the scan query over one decoded chunk: one pass for the
// WHERE clause, then the projected outputs or the per-group partials for
// the rows it kept. It is pure (touches only c and its own buffers), so
// callers fork it onto the data plane and merge the partials after Join.
func (pl *ArrayPlan) ScanChunk(c Chunk) (*ChunkPartial, error) {
	cols, err := chunkItems(pl.cols, c)
	if err != nil {
		return nil, err
	}
	p, err := bindQuery(pl.scan, cols, c.NumRows())
	if err != nil {
		return nil, err
	}
	sel, kept := p.filter()
	if kept == 0 {
		return &ChunkPartial{}, nil
	}
	return &ChunkPartial{rows: kept, frame: p.finish(p.group(sel))}, nil
}

// Finalize runs the merge query over the partials stacked in chunk order.
// Only chunks with matching rows are stacked — a global aggregate answers a
// row even for none — so float accumulation sees the exact same operand
// sequence whether non-matching chunks were scanned (oracle) or skipped
// (pushdown): the bitwise-equality invariant.
func (pl *ArrayPlan) Finalize(parts []*ChunkPartial) (*rframe.Frame, error) {
	frames := []*rframe.Frame{pl.schema}
	for _, p := range parts {
		if p.rows > 0 {
			frames = append(frames, p.frame)
		}
	}
	all, err := rframe.Concat(frames...)
	if err != nil {
		return nil, err
	}
	return execute(pl.merge, frameItems(all), all.NumRows())
}

// QueryArrays parses and executes sql against the named array tables with
// chunk pushdown: prune via zone maps, project referenced columns,
// announce and read only surviving chunks, run the scan query over each on
// the data plane, and merge in chunk order.
func QueryArrays(tables map[string]ArrayTable, sql string, opts ArrayQueryOpts) (*rframe.Frame, *ScanStats, error) {
	q, err := parse(sql)
	if err != nil {
		return nil, nil, err
	}
	t, ok := tables[q.from]
	if !ok {
		return nil, nil, fmt.Errorf("rsql: no table %q", q.from)
	}
	pl, err := compileArray(q, t.Columns())
	if err != nil {
		return nil, nil, err
	}
	sp := opts.Obs.StartSpan("rsql/query", "query", nil)
	sp.Arg("table", pl.from)
	sp.Arg("mode", opts.Mode.String())
	payload := true
	if pr, ok := t.(Projector); ok {
		payload = pr.Project(pl.refs)
	}
	st, survivors := pl.Stats(t, opts.Mode, payload)

	t.Announce(survivors)
	parts := make([]*ChunkPartial, len(survivors))
	errs := make([]error, len(survivors))
	var futs []*sim.Future
	for k, ci := range survivors {
		ch, err := t.Read(ci)
		if err != nil {
			t.Join(futs...)
			return nil, nil, err
		}
		if fut := t.Fork(func() { parts[k], errs[k] = pl.ScanChunk(ch) }); fut != nil {
			futs = append(futs, fut)
		}
	}
	t.Join(futs...)
	for _, e := range errs {
		if e != nil {
			return nil, nil, e
		}
	}
	for _, p := range parts {
		st.RowsMatched += p.rows
	}
	out, err := pl.Finalize(parts)
	if err != nil {
		return nil, nil, err
	}
	reg := opts.Obs
	reg.Counter("query/chunks_scanned_total").Add(float64(st.ChunksScanned))
	reg.Counter("query/chunks_skipped_total").Add(float64(st.ChunksSkipped))
	reg.Counter("query/bytes_avoided_total").Add(float64(st.BytesAvoided))
	sp.Arg("chunks_scanned", st.ChunksScanned)
	sp.Arg("chunks_skipped", st.ChunksSkipped)
	sp.Arg("bytes_avoided", st.BytesAvoided)
	sp.Arg("rows_matched", st.RowsMatched)
	sp.End()
	return out, st, nil
}
