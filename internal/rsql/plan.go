package rsql

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"scidp/internal/obs"
	"scidp/internal/rframe"
	"scidp/internal/sim"
)

// This file is the chunk-pushdown query engine: a compiled array-algebra
// plan (slice → filter → project → aggregate) that intersects WHERE
// predicates with per-chunk zone maps before any I/O, scans only the
// surviving chunks in one fused pass per chunk on the data plane, and
// merges per-chunk partials in chunk order so the output is byte-identical
// at any worker count — and byte-identical with pushdown on or off,
// because a scanned chunk with no matching rows contributes exactly what a
// skipped chunk does: nothing.

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

// planItem is one output column of the compiled plan.
type planItem struct {
	name   string
	ex     expr
	native string // star-expanded bare column (keeps Int columns integer)
}

// ArrayPlan is a compiled pushdown query: validated against a table
// schema, with predicate bounds extracted for pruning. Its pieces —
// Survivors, ScanChunk, Finalize — are independently drivable, which is
// how sparklite distributes the same plan the local executor runs.
type ArrayPlan struct {
	q          *query
	byName     map[string]ColumnInfo
	items      []planItem
	refs       []string
	bounds     map[string]Interval
	aggregated bool
	aggs       []call
	aggIdx     map[string]int
}

// From returns the table name the query selects from.
func (pl *ArrayPlan) From() string { return pl.q.from }

// Refs returns the input columns the plan references (select list, WHERE,
// GROUP BY), deduplicated in schema order — the projection list.
func (pl *ArrayPlan) Refs() []string { return pl.refs }

// Bounds returns the per-column predicate intervals extracted from the
// WHERE clause's top-level conjuncts.
func (pl *ArrayPlan) Bounds() map[string]Interval { return pl.bounds }

// CompileArray parses sql and compiles it against a table schema. Only
// numeric single-table queries are supported (array tables have no string
// columns); the full WHERE clause is still evaluated per row, so the
// extracted bounds are purely an optimization.
func CompileArray(sql string, cols []ColumnInfo) (*ArrayPlan, error) {
	q, err := parse(sql)
	if err != nil {
		return nil, err
	}
	pl := &ArrayPlan{q: q, byName: map[string]ColumnInfo{}, aggIdx: map[string]int{}}
	for _, c := range cols {
		pl.byName[c.Name] = c
	}

	refSet := map[string]bool{}
	var validate func(e expr) error
	validate = func(e expr) error {
		switch x := e.(type) {
		case nil:
			return nil
		case numLit:
			return nil
		case strLit:
			return fmt.Errorf("rsql: array queries are numeric; string literal %q unsupported", x.v)
		case colRef:
			if _, ok := pl.byName[x.name]; !ok {
				return fmt.Errorf("rsql: no column %q", x.name)
			}
			refSet[x.name] = true
			return nil
		case unary:
			return validate(x.x)
		case binary:
			if err := validate(x.l); err != nil {
				return err
			}
			return validate(x.r)
		case call:
			if !aggFuncs[x.name] && scalarFuncs[x.name] == nil {
				return fmt.Errorf("rsql: unknown function %s", x.name)
			}
			if !(x.name == "COUNT" && x.star) && len(x.args) != 1 {
				return fmt.Errorf("rsql: %s takes 1 argument", x.name)
			}
			if aggFuncs[x.name] {
				if !x.star && hasAgg(x.args[0]) {
					return fmt.Errorf("rsql: aggregate inside %s", x.name)
				}
				key := renderExpr(x)
				if _, ok := pl.aggIdx[key]; !ok {
					pl.aggIdx[key] = len(pl.aggs)
					pl.aggs = append(pl.aggs, x)
				}
			}
			for _, a := range x.args {
				if err := validate(a); err != nil {
					return err
				}
			}
			return nil
		}
		return fmt.Errorf("rsql: unknown expression %T", e)
	}

	// Expand the select list: star columns first in schema order (matching
	// the frame executor's layout), then named items in select order.
	var named []planItem
	star := false
	for i, it := range q.sel {
		if it.star {
			star = true
			continue
		}
		if err := validate(it.ex); err != nil {
			return nil, err
		}
		if hasAgg(it.ex) {
			pl.aggregated = true
		}
		named = append(named, planItem{name: itemName(it, i), ex: it.ex})
	}
	if len(q.groupBy) > 0 {
		pl.aggregated = true
	}
	if star {
		if pl.aggregated {
			return nil, fmt.Errorf("rsql: SELECT * cannot mix with aggregation")
		}
		for _, c := range cols {
			refSet[c.Name] = true
			pl.items = append(pl.items, planItem{name: c.Name, ex: colRef{name: c.Name}, native: c.Name})
		}
	}
	pl.items = append(pl.items, named...)
	// ORDER BY names output columns, as in the frame executor: bind it
	// against them (numbers all) now, not after the scan in Finalize.
	outputs := make([]item, len(pl.items))
	for i, it := range pl.items {
		if slices.ContainsFunc(outputs[:i], func(o item) bool { return o.name == it.name }) {
			return nil, fmt.Errorf("rsql: duplicate output column %q", it.name)
		}
		outputs[i] = item{name: it.name, bound: bound{num: func(int) float64 { return 0 }}}
	}
	if _, err := bindOrder(q.orderBy, outputs); err != nil {
		return nil, err
	}
	for _, g := range q.groupBy {
		if _, ok := pl.byName[g]; !ok {
			return nil, fmt.Errorf("rsql: GROUP BY column %q missing", g)
		}
		refSet[g] = true
	}
	if q.where != nil {
		if hasAgg(q.where) {
			return nil, fmt.Errorf("rsql: aggregate in WHERE")
		}
		if err := validate(q.where); err != nil {
			return nil, err
		}
	}
	for _, c := range cols {
		if refSet[c.Name] {
			pl.refs = append(pl.refs, c.Name)
		}
	}
	pl.bounds = extractBounds(q.where)
	return pl, nil
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

// aggState is one aggregate call's running partial within a group.
type aggState struct {
	sum      float64
	cnt      int64
	min, max float64
}

// groupPartial is one group's accumulation within a single chunk.
type groupPartial struct {
	key   string
	rows  int64
	first map[string]float64
	aggs  []aggState
}

// ChunkPartial is the result of fusing slice+filter+project+aggregate
// over one chunk — pure data, merged on the kernel thread in chunk order.
type ChunkPartial struct {
	rows   int
	floats [][]float64
	ints   [][]int64
	groups []*groupPartial
}

// Rows returns how many of the chunk's rows passed the WHERE clause.
func (p *ChunkPartial) Rows() int { return p.rows }

// chunkEval evaluates a numeric expression against one chunk row. It
// mirrors rowEval's semantics (truthiness is v != 0, short-circuit
// AND/OR) restricted to numeric values.
func chunkEval(e expr, cols map[string]func(int) float64, row int) (float64, error) {
	switch x := e.(type) {
	case numLit:
		return x.v, nil
	case colRef:
		acc := cols[x.name]
		if acc == nil {
			return 0, fmt.Errorf("rsql: no column %q", x.name)
		}
		return acc(row), nil
	case unary:
		v, err := chunkEval(x.x, cols, row)
		if err != nil {
			return 0, err
		}
		return unaryOp(x.op, v), nil
	case binary:
		l, err := chunkEval(x.l, cols, row)
		if err != nil {
			return 0, err
		}
		switch x.op {
		case "AND":
			if !(l != 0) {
				return 0, nil
			}
			r, err := chunkEval(x.r, cols, row)
			if err != nil {
				return 0, err
			}
			return b2f(r != 0), nil
		case "OR":
			if l != 0 {
				return 1, nil
			}
			r, err := chunkEval(x.r, cols, row)
			if err != nil {
				return 0, err
			}
			return b2f(r != 0), nil
		}
		r, err := chunkEval(x.r, cols, row)
		if err != nil {
			return 0, err
		}
		return x.num(l, r), nil
	case call:
		if aggFuncs[x.name] {
			return 0, fmt.Errorf("rsql: aggregate %s in row context", x.name)
		}
		v, err := chunkEval(x.args[0], cols, row) // CompileArray counted the arguments
		if err != nil {
			return 0, err
		}
		switch x.name {
		case "ABS":
			return math.Abs(v), nil
		case "SQRT":
			return math.Sqrt(v), nil
		}
		return 0, fmt.Errorf("rsql: unknown function %s", x.name)
	}
	return 0, fmt.Errorf("rsql: unknown expression %T", e)
}

// keyPart formats one group-key component.
func keyPart(v float64, isInt bool) string {
	if isInt {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ScanChunk runs the fused single pass over one decoded chunk: evaluate
// the WHERE clause row by row and either materialize the projected
// outputs or fold the row into per-group aggregate partials. It is pure
// (touches only c and its own buffers), so callers fork it onto the data
// plane and merge the partials after Join.
func (pl *ArrayPlan) ScanChunk(c Chunk) (*ChunkPartial, error) {
	cols := map[string]func(int) float64{}
	for _, name := range pl.refs {
		acc, err := c.Col(name)
		if err != nil {
			return nil, err
		}
		cols[name] = acc
	}
	p := &ChunkPartial{}
	if !pl.aggregated {
		p.floats = make([][]float64, len(pl.items))
		p.ints = make([][]int64, len(pl.items))
	}
	var groups map[string]*groupPartial
	if pl.aggregated {
		groups = map[string]*groupPartial{}
	}
	n := c.NumRows()
	for row := 0; row < n; row++ {
		if pl.q.where != nil {
			v, err := chunkEval(pl.q.where, cols, row)
			if err != nil {
				return nil, err
			}
			if !(v != 0) {
				continue
			}
		}
		p.rows++
		if !pl.aggregated {
			for i, it := range pl.items {
				if it.native != "" && pl.byName[it.native].Int {
					p.ints[i] = append(p.ints[i], int64(cols[it.native](row)))
					continue
				}
				v, err := chunkEval(it.ex, cols, row)
				if err != nil {
					return nil, err
				}
				p.floats[i] = append(p.floats[i], v)
			}
			continue
		}
		// Aggregated: fold the row into its group's partial.
		var sb strings.Builder
		for _, gcol := range pl.q.groupBy {
			sb.WriteString(keyPart(cols[gcol](row), pl.byName[gcol].Int))
			sb.WriteByte('\x00')
		}
		key := sb.String()
		g, ok := groups[key]
		if !ok {
			g = &groupPartial{key: key, first: map[string]float64{}, aggs: make([]aggState, len(pl.aggs))}
			for i := range g.aggs {
				g.aggs[i].min = math.Inf(1)
				g.aggs[i].max = math.Inf(-1)
			}
			for _, name := range pl.refs {
				g.first[name] = cols[name](row)
			}
			groups[key] = g
			p.groups = append(p.groups, g)
		}
		g.rows++
		for ai, agg := range pl.aggs {
			if agg.star {
				continue // COUNT(*) rides on g.rows
			}
			v, err := chunkEval(agg.args[0], cols, row)
			if err != nil {
				return nil, err
			}
			st := &g.aggs[ai]
			st.sum += v
			st.cnt++
			st.min = min(st.min, v)
			st.max = max(st.max, v)
		}
	}
	return p, nil
}

// emptyGroup synthesizes the zero-row group a global aggregation reports
// when nothing matched (SUM 0, COUNT 0, AVG NaN, MIN +Inf, MAX -Inf —
// the frame executor's semantics).
func (pl *ArrayPlan) emptyGroup() *groupPartial {
	g := &groupPartial{first: map[string]float64{}, aggs: make([]aggState, len(pl.aggs))}
	for i := range g.aggs {
		g.aggs[i].min = math.Inf(1)
		g.aggs[i].max = math.Inf(-1)
	}
	return g
}

// finalEval evaluates a select item against one merged group.
func (pl *ArrayPlan) finalEval(e expr, g *groupPartial) (float64, error) {
	switch x := e.(type) {
	case numLit:
		return x.v, nil
	case colRef:
		if g.rows == 0 {
			return math.NaN(), nil
		}
		return g.first[x.name], nil
	case unary:
		v, err := pl.finalEval(x.x, g)
		if err != nil {
			return 0, err
		}
		return unaryOp(x.op, v), nil
	case binary:
		l, err := pl.finalEval(x.l, g)
		if err != nil {
			return 0, err
		}
		r, err := pl.finalEval(x.r, g)
		if err != nil {
			return 0, err
		}
		return x.num(l, r), nil // AND and OR too: nothing to short-circuit here
	case call:
		if aggFuncs[x.name] {
			st := g.aggs[pl.aggIdx[renderExpr(x)]]
			switch x.name {
			case "COUNT":
				if x.star {
					return float64(g.rows), nil
				}
				return float64(st.cnt), nil
			case "SUM":
				return st.sum, nil
			case "AVG":
				if st.cnt == 0 {
					return math.NaN(), nil
				}
				return st.sum / float64(st.cnt), nil
			case "MIN":
				return st.min, nil
			case "MAX":
				return st.max, nil
			}
		}
		if g.rows == 0 {
			return math.NaN(), nil
		}
		v, err := pl.finalEval(x.args[0], g)
		if err != nil {
			return 0, err
		}
		switch x.name {
		case "ABS":
			return math.Abs(v), nil
		case "SQRT":
			return math.Sqrt(v), nil
		}
		return 0, fmt.Errorf("rsql: unknown function %s", x.name)
	}
	return 0, fmt.Errorf("rsql: unknown expression %T", e)
}

// Finalize merges per-chunk partials in chunk order and applies ORDER BY
// and LIMIT. Only chunks that produced matching rows contribute to the
// merge, so float accumulation sees the exact same operand sequence
// whether non-matching chunks were scanned (oracle) or skipped
// (pushdown) — the bitwise-equality invariant.
func (pl *ArrayPlan) Finalize(parts []*ChunkPartial) (*rframe.Frame, error) {
	out := rframe.New() // CompileArray checked its column names
	if !pl.aggregated {
		for i, it := range pl.items {
			ints, floats := []int64{}, []float64{}
			for _, p := range parts {
				if p != nil {
					ints, floats = append(ints, p.ints[i]...), append(floats, p.floats[i]...)
				}
			}
			if it.native != "" && pl.byName[it.native].Int {
				out.MustAddInt(it.name, ints)
			} else {
				out.MustAddFloat(it.name, floats)
			}
		}
	} else {
		merged := map[string]*groupPartial{}
		var order []*groupPartial
		for _, p := range parts {
			if p == nil {
				continue
			}
			for _, g := range p.groups {
				m, ok := merged[g.key]
				if !ok {
					m = &groupPartial{key: g.key, rows: g.rows, first: g.first, aggs: append([]aggState(nil), g.aggs...)}
					merged[g.key] = m
					order = append(order, m)
					continue
				}
				m.rows += g.rows
				for i := range m.aggs {
					m.aggs[i].sum += g.aggs[i].sum
					m.aggs[i].cnt += g.aggs[i].cnt
					m.aggs[i].min = min(m.aggs[i].min, g.aggs[i].min)
					m.aggs[i].max = max(m.aggs[i].max, g.aggs[i].max)
				}
			}
		}
		if len(pl.q.groupBy) == 0 && len(order) == 0 {
			order = append(order, pl.emptyGroup())
		}
		cols := make([][]float64, len(pl.items))
		for i := range cols {
			cols[i] = make([]float64, 0, len(order))
		}
		for _, g := range order {
			for i, it := range pl.items {
				v, err := pl.finalEval(it.ex, g)
				if err != nil {
					return nil, err
				}
				cols[i] = append(cols[i], v)
			}
		}
		for i, it := range pl.items {
			out.MustAddFloat(it.name, cols[i])
		}
	}
	items := frameItems(out)
	keys, err := bindOrder(pl.q.orderBy, items)
	if err != nil {
		return nil, err
	}
	return finish(pl.q, keys, items, nil, out.NumRows()), nil
}

// renderExpr renders an expression to a canonical string — the identity
// key deduplicating aggregate calls across select items.
func renderExpr(e expr) string {
	switch x := e.(type) {
	case numLit:
		return strconv.FormatFloat(x.v, 'g', -1, 64)
	case strLit:
		return strconv.Quote(x.v)
	case colRef:
		return x.name
	case unary:
		return "(" + x.op + " " + renderExpr(x.x) + ")"
	case binary:
		return "(" + renderExpr(x.l) + x.op + renderExpr(x.r) + ")"
	case call:
		if x.star {
			return x.name + "(*)"
		}
		args := make([]string, len(x.args))
		for i, a := range x.args {
			args[i] = renderExpr(a)
		}
		return x.name + "(" + strings.Join(args, ",") + ")"
	}
	return fmt.Sprintf("%T", e)
}

// QueryArrays parses and executes sql against the named array tables with
// chunk pushdown: prune via zone maps, project referenced columns,
// announce and read only surviving chunks, fuse filter+project+aggregate
// into one pass per chunk on the data plane, and merge in chunk order.
func QueryArrays(tables map[string]ArrayTable, sql string, opts ArrayQueryOpts) (*rframe.Frame, *ScanStats, error) {
	q, err := parse(sql)
	if err != nil {
		return nil, nil, err
	}
	t, ok := tables[q.from]
	if !ok {
		return nil, nil, fmt.Errorf("rsql: no table %q", q.from)
	}
	pl, err := CompileArray(sql, t.Columns())
	if err != nil {
		return nil, nil, err
	}

	var sp *obs.Span
	if opts.Obs != nil {
		sp = opts.Obs.StartSpan("rsql/query", "query", nil)
		sp.Arg("table", pl.From())
		sp.Arg("mode", opts.Mode.String())
	}

	payload := true
	if pr, ok := t.(Projector); ok {
		payload = pr.Project(pl.Refs())
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
		k, ch := k, ch
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
		st.RowsMatched += p.Rows()
	}
	out, err := pl.Finalize(parts)
	if err != nil {
		return nil, nil, err
	}

	if opts.Obs != nil {
		opts.Obs.Counter("query/chunks_scanned_total").Add(float64(st.ChunksScanned))
		opts.Obs.Counter("query/chunks_skipped_total").Add(float64(st.ChunksSkipped))
		opts.Obs.Counter("query/bytes_avoided_total").Add(float64(st.BytesAvoided))
		sp.Arg("chunks_scanned", st.ChunksScanned)
		sp.Arg("chunks_skipped", st.ChunksSkipped)
		sp.Arg("bytes_avoided", st.BytesAvoided)
		sp.Arg("rows_matched", st.RowsMatched)
		sp.End()
	}
	return out, st, nil
}
