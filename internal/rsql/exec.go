package rsql

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"scidp/internal/rframe"
)

// This file is the executor, the only one: bind → select → order →
// materialise (DESIGN.md, "The frame executor"). Query runs it over a
// frame and QueryChunk over one chunk's accessors; the array path
// (plan.go) runs it over each chunk and then over the chunks' answers.

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// aggFuncs are the recognized aggregate function names.
var aggFuncs = map[string]bool{"SUM": true, "AVG": true, "MIN": true, "MAX": true, "COUNT": true}

// scalarFuncs are the scalar functions, all of one number.
var scalarFuncs = map[string]func(float64) float64{"ABS": math.Abs, "SQRT": math.Sqrt}

// hasAgg reports whether the expression contains an aggregate call.
func hasAgg(e expr) (found bool) {
	walk(e, func(e expr) {
		c, ok := e.(call)
		found = found || ok && aggFuncs[c.name]
	})
	return found
}

// numOps are the binary operators over numbers — every one the parser
// knows — and a comparison is 0 or 1.
var numOps = map[string]func(l, r float64) float64{
	"+":   func(l, r float64) float64 { return l + r },
	"-":   func(l, r float64) float64 { return l - r },
	"*":   func(l, r float64) float64 { return l * r },
	"/":   func(l, r float64) float64 { return l / r },
	"%":   math.Mod,
	"=":   func(l, r float64) float64 { return b2f(l == r) },
	"<>":  func(l, r float64) float64 { return b2f(l != r) },
	"!=":  func(l, r float64) float64 { return b2f(l != r) },
	"<":   func(l, r float64) float64 { return b2f(l < r) },
	">":   func(l, r float64) float64 { return b2f(l > r) },
	"<=":  func(l, r float64) float64 { return b2f(l <= r) },
	">=":  func(l, r float64) float64 { return b2f(l >= r) },
	"AND": func(l, r float64) float64 { return b2f(l != 0 && r != 0) },
	"OR":  func(l, r float64) float64 { return b2f(l != 0 || r != 0) },
}

// strOps are the comparisons, the only operators strings have.
var strOps = map[string]func(l, r string) bool{
	"=":  func(l, r string) bool { return l == r },
	"<>": func(l, r string) bool { return l != r },
	"!=": func(l, r string) bool { return l != r },
	"<":  func(l, r string) bool { return l < r },
	">":  func(l, r string) bool { return l > r },
	"<=": func(l, r string) bool { return l <= r },
	">=": func(l, r string) bool { return l >= r },
}

// bound is an expression after bind. A column's kind and a literal's type
// never change, so number-or-string is a property of the expression, not
// of a row: exactly one of num and str is set. f or s is the column's own
// slice when the expression is a bare Float or String column.
type bound struct {
	num func(row int) float64
	str func(row int) string
	f   []float64
	s   []string
}

// vector evaluates at over sel (nil: every row in [0, n)) into one slice
// sized once; whole, when non-nil, already is the answer for every row.
func vector[T any](at func(int) T, whole []T, sel []int, n int) []T {
	if sel == nil && whole != nil {
		return whole
	}
	if sel != nil {
		n = len(sel)
	}
	out := make([]T, n)
	for i := range out {
		if sel != nil {
			out[i] = at(sel[i])
		} else {
			out[i] = at(i)
		}
	}
	return out
}

// column evaluates the expression over sel (see vector) into a column.
func (b bound) column(name string, sel []int, n int) *rframe.Column {
	if b.str != nil {
		return &rframe.Column{Name: name, Kind: rframe.String, S: vector(b.str, b.s, sel, n)}
	}
	return &rframe.Column{Name: name, Kind: rframe.Float, F: vector(b.num, b.f, sel, n)}
}

// scope is what a name, an aggregate call and a row mean where an
// expression is bound: source rows for WHERE and a plain select list,
// groups for an aggregated one, output rows for ORDER BY.
type scope struct {
	col func(name string) (bound, error)
	agg func(c call) (bound, error) // nil where there is no aggregation
	// groups is set where a row is a group: a scalar function of a group
	// with no rows (a global aggregate over an empty selection) is NaN.
	groups *grouping
}

// itemScope resolves names to items: a frame's columns for WHERE and the
// select list, the select list's own output for ORDER BY — which is how
// ORDER BY sees an alias and does not see an unprojected column.
func itemScope(items []item) *scope {
	return &scope{col: func(name string) (bound, error) {
		for _, it := range items {
			if it.name == name {
				return it.bound, nil
			}
		}
		return bound{}, fmt.Errorf("rsql: no column %q", name)
	}}
}

// number binds e where ctx needs a number.
func (sc *scope) number(e expr, ctx string) (func(int) float64, error) {
	b, err := sc.bind(e)
	if err == nil && b.num == nil {
		err = fmt.Errorf("rsql: %s needs a number, got a string", ctx)
	}
	return b.num, err
}

// bind resolves and types e. Every error a query can raise — unknown
// column or function, arity, operands of mixed or unsupported type, a
// misplaced aggregate — is raised here.
func (sc *scope) bind(e expr) (bound, error) {
	switch x := e.(type) {
	case numLit:
		return bound{num: func(int) float64 { return x.v }}, nil
	case strLit:
		return bound{str: func(int) string { return x.v }}, nil
	case colRef:
		return sc.col(x.name)
	case unary:
		v, err := sc.number(x.x, x.op)
		if err != nil {
			return bound{}, err
		}
		if x.op == "-" {
			return bound{num: func(r int) float64 { return -v(r) }}, nil
		}
		return bound{num: func(r int) float64 { return b2f(v(r) == 0) }}, nil // NOT
	case binary:
		l, err := sc.bind(x.l)
		if err != nil {
			return bound{}, err
		}
		r, err := sc.bind(x.r)
		if err != nil {
			return bound{}, err
		}
		switch {
		case (l.str == nil) != (r.str == nil):
			return bound{}, fmt.Errorf("rsql: mixed string/number operands for %q", x.op)
		case l.str != nil:
			op := strOps[x.op]
			if op == nil {
				return bound{}, fmt.Errorf("rsql: operator %q undefined for strings", x.op)
			}
			return bound{num: func(row int) float64 { return b2f(op(l.str(row), r.str(row))) }}, nil
		}
		return bound{num: func(row int) float64 { return x.num(l.num(row), r.num(row)) }}, nil
	case call:
		if aggFuncs[x.name] {
			if sc.agg == nil {
				return bound{}, fmt.Errorf("rsql: aggregate %s outside aggregation context", x.name)
			}
			return sc.agg(x)
		}
		fn := scalarFuncs[x.name]
		if fn == nil {
			return bound{}, fmt.Errorf("rsql: unknown function %s", x.name)
		}
		if len(x.args) != 1 {
			return bound{}, fmt.Errorf("rsql: %s takes 1 argument", x.name)
		}
		v, err := sc.number(x.args[0], x.name)
		if err != nil {
			return bound{}, err
		}
		if g := sc.groups; g != nil {
			return bound{num: func(r int) float64 {
				if g.first(r) < 0 {
					return math.NaN()
				}
				return fn(v(r))
			}}, nil
		}
		return bound{num: func(r int) float64 { return fn(v(r)) }}, nil
	}
	return bound{}, fmt.Errorf("rsql: unknown expression %T", e)
}

// grouping is the selection split by the GROUP BY columns, in first-seen
// order. group fills it, after the closures that read it were bound.
type grouping struct {
	rows [][]int // each group's source rows, ascending
}

// first returns group g's first source row, -1 if it has none.
func (g *grouping) first(i int) int {
	if len(g.rows[i]) == 0 {
		return -1
	}
	return g.rows[i][0]
}

// split groups sel by the key columns' rendered values. Without keys
// there is one group, even over zero rows.
func (g *grouping) split(keys []item, sel []int) {
	if len(keys) == 0 {
		g.rows = [][]int{sel}
		return
	}
	ids := map[string]int{}
	var key []byte
	for _, r := range sel {
		key = key[:0]
		for k := range keys {
			key = append(keys[k].appendKey(key, r), 0)
		}
		id, ok := ids[string(key)]
		if !ok {
			id = len(g.rows)
			ids[string(key)] = id
			g.rows = append(g.rows, nil)
		}
		g.rows[id] = append(g.rows[id], r)
	}
}

// aggregate is one aggregate call of a select list: its argument bound
// per source row and, once run has reduced it, its value per group.
type aggregate struct {
	name string
	arg  func(row int) float64 // unused by COUNT, which only counts rows
	vals []float64
}

// reduce folds the argument over each group's rows, in row order.
func (a *aggregate) reduce(groups [][]int) {
	a.vals = make([]float64, len(groups))
	for g, rows := range groups {
		var acc float64
		switch a.name {
		case "COUNT":
			acc = float64(len(rows))
		case "SUM", "AVG":
			for _, r := range rows {
				acc += a.arg(r)
			}
			if a.name == "AVG" {
				acc /= float64(len(rows))
				if len(rows) == 0 {
					acc = math.NaN()
				}
			}
		case "MIN":
			acc = math.Inf(1)
			for _, r := range rows {
				if v := a.arg(r); v < acc {
					acc = v
				}
			}
		case "MAX":
			acc = math.Inf(-1)
			for _, r := range rows {
				if v := a.arg(r); v > acc {
					acc = v
				}
			}
		}
		a.vals[g] = acc
	}
}

// item is one column: a select item, or a source column. A frame's column
// is native and SELECT * keeps it as it is (Int stays Int) instead of
// evaluating it; a chunk's (plan.go) is an accessor, integer if the schema
// says its values are. Only SELECT * and GROUP BY see either: a source
// column named in an expression is its bound, a number.
type item struct {
	name string
	bound
	native  *rframe.Column
	integer bool
}

// appendKey appends row r's GROUP BY key part: the value's text. It runs
// once per row and key, hence the pointer: an item is a dozen words.
func (it *item) appendKey(key []byte, r int) []byte {
	switch {
	case it.native != nil:
		return it.native.AppendAt(key, r)
	case it.integer:
		return strconv.AppendInt(key, int64(it.num(r)), 10)
	}
	return strconv.AppendFloat(key, it.num(r), 'g', -1, 64)
}

// materialise evaluates the item over sel (see vector) into a column.
func (it item) materialise(sel []int, n int) *rframe.Column {
	switch {
	case it.native != nil:
		return it.native.Take(sel)
	case it.integer:
		ints := vector(func(r int) int64 { return int64(it.num(r)) }, nil, sel, n)
		return &rframe.Column{Name: it.name, Kind: rframe.Int, I: ints}
	}
	return it.column(it.name, sel, n)
}

// frameItems presents f's columns as items, each kept as it is; bound, an
// Int column reads as float64, as everywhere.
func frameItems(f *rframe.Frame) []item {
	items := make([]item, f.NumCols())
	for i, c := range f.Columns() {
		items[i] = item{name: c.Name, native: c}
		switch c.Kind {
		case rframe.String:
			items[i].bound = bound{str: func(r int) string { return c.S[r] }, s: c.S}
		case rframe.Int:
			items[i].bound = bound{num: func(r int) float64 { return float64(c.I[r]) }}
		default:
			items[i].bound = bound{num: func(r int) float64 { return c.F[r] }, f: c.F}
		}
	}
	return items
}

// itemName derives an output column name for a select item.
func itemName(it selectItem, idx int) string {
	if it.alias != "" {
		return it.alias
	}
	if c, ok := it.ex.(colRef); ok {
		return c.name
	}
	if c, ok := it.ex.(call); ok {
		return strings.ToLower(c.name)
	}
	return fmt.Sprintf("expr%d", idx+1)
}

// identity returns the selection of rows [0, n), spelled out.
func identity(n int) []int {
	sel := make([]int, n)
	for r := range sel {
		sel[r] = r
	}
	return sel
}

// plan is a query bound to its source, a frame's columns or a chunk's:
// whatever is wrong with the query has been reported by the time one
// exists, and run cannot fail.
type plan struct {
	q       *query
	rows    int
	where   func(row int) float64 // nil: keep every row
	groups  *grouping             // non-nil: the select list is aggregated
	groupBy []item
	aggs    []*aggregate
	items   []item
	keys    []bound // ORDER BY
}

// bindQuery binds q to a source of the given columns and row count.
func bindQuery(q *query, cols []item, rows int) (*plan, error) {
	p := &plan{q: q, rows: rows}
	rowScope := itemScope(cols)
	var err error
	if q.where != nil {
		if p.where, err = rowScope.number(q.where, "WHERE"); err != nil {
			return nil, err
		}
	}
	star, aggregated := false, len(q.groupBy) > 0
	for _, it := range q.sel {
		star = star || it.star
		aggregated = aggregated || !it.star && hasAgg(it.ex)
	}
	selScope := rowScope
	if aggregated {
		if star {
			return nil, fmt.Errorf("rsql: SELECT * cannot mix with aggregation")
		}
		for _, g := range q.groupBy {
			i := slices.IndexFunc(cols, func(c item) bool { return c.name == g })
			if i < 0 {
				return nil, fmt.Errorf("rsql: GROUP BY column %q missing", g)
			}
			p.groupBy = append(p.groupBy, cols[i])
		}
		p.groups = &grouping{}
		selScope = p.groupScope(rowScope)
	}
	// Star columns come first in source order, then the named items.
	if star {
		p.items = cols
	}
	p.items = slices.Grow(p.items, len(q.sel))
	for i, it := range q.sel {
		if it.star {
			continue
		}
		b, err := selScope.bind(it.ex)
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, item{name: itemName(it, i), bound: b})
	}
	for i, it := range p.items {
		if slices.ContainsFunc(p.items[:i], func(prev item) bool { return prev.name == it.name }) {
			return nil, fmt.Errorf("rsql: duplicate output column %q", it.name)
		}
	}
	outScope := itemScope(p.items)
	p.keys = make([]bound, len(q.orderBy))
	for i, o := range q.orderBy {
		if p.keys[i], err = outScope.bind(o.ex); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// groupScope is the scope of an aggregated select list, where a row is a
// group: an aggregate is its value for the group, and a bare column is
// the group's first row's — NaN in the one group that can have no rows,
// the global aggregate's, which is why a string column needs GROUP BY.
func (p *plan) groupScope(rows *scope) *scope {
	g := p.groups
	return &scope{
		groups: g,
		col: func(name string) (bound, error) {
			b, err := rows.col(name)
			switch {
			case err != nil:
				return bound{}, err
			case b.str != nil && len(p.groupBy) == 0:
				return bound{}, fmt.Errorf("rsql: string column %q outside an aggregate needs GROUP BY", name)
			case b.str != nil:
				return bound{str: func(i int) string { return b.str(g.first(i)) }}, nil
			}
			return bound{num: func(i int) float64 {
				if r := g.first(i); r >= 0 {
					return b.num(r)
				}
				return math.NaN()
			}}, nil
		},
		agg: func(c call) (bound, error) {
			a := &aggregate{name: c.name}
			if !(c.name == "COUNT" && c.star) {
				if len(c.args) != 1 {
					return bound{}, fmt.Errorf("rsql: %s takes 1 argument", c.name)
				}
				// COUNT counts rows whatever its argument is, so long as it binds.
				b, err := rows.bind(c.args[0])
				if err == nil && b.num == nil && c.name != "COUNT" {
					err = fmt.Errorf("rsql: %s needs a number, got a string", c.name)
				}
				if err != nil {
					return bound{}, err
				}
				a.arg = b.num
			}
			p.aggs = append(p.aggs, a)
			return bound{num: func(i int) float64 { return a.vals[i] }}, nil
		},
	}
}

// filter is WHERE: the rows it keeps (nil: every row) and how many.
func (p *plan) filter() (sel []int, kept int) {
	if p.where == nil {
		return nil, p.rows
	}
	sel = make([]int, 0, p.rows)
	for r := 0; r < p.rows; r++ {
		if p.where(r) != 0 {
			sel = append(sel, r)
		}
	}
	return sel, len(sel)
}

// group, for an aggregated select list, splits sel into groups and reduces
// the aggregates over them; from then on a row is a group. It returns the
// selection and row count finish works on.
func (p *plan) group(sel []int) ([]int, int) {
	if p.groups == nil {
		return sel, p.rows
	}
	if sel == nil {
		sel = identity(p.rows)
	}
	p.groups.split(p.groupBy, sel)
	for _, a := range p.aggs {
		a.reduce(p.groups.rows)
	}
	return nil, len(p.groups.rows)
}

// finish orders the selection by the ORDER BY keys, cuts it at LIMIT (if
// not negative), and only then evaluates the items, for the rows left.
func (p *plan) finish(sel []int, n int) *rframe.Frame {
	limit := p.q.limit
	if len(p.keys) > 0 {
		sortKeys := make([]rframe.SortKey, len(p.keys))
		for i, k := range p.keys {
			sortKeys[i] = rframe.SortKey{Col: k.column("", sel, n), Desc: p.q.orderBy[i].desc}
		}
		order := rframe.Order(sortKeys, limit)
		if sel != nil {
			for i, pos := range order {
				order[i] = sel[pos]
			}
		}
		sel = order
	} else if sel != nil && limit >= 0 {
		sel = sel[:min(limit, len(sel))]
	} else if limit >= 0 && limit < n {
		sel = identity(limit)
	}
	out := rframe.New()
	for _, it := range p.items {
		if err := out.Add(it.materialise(sel, n)); err != nil {
			panic(err) // bind checked the names; the lengths are ours
		}
	}
	return out
}

// run executes the plan.
func (p *plan) run() *rframe.Frame {
	sel, _ := p.filter()
	return p.finish(p.group(sel))
}

// execute binds q to a source of the given columns and row count and
// runs it.
func execute(q *query, cols []item, rows int) (*rframe.Frame, error) {
	p, err := bindQuery(q, cols, rows)
	if err != nil {
		return nil, err
	}
	return p.run(), nil
}

// Query parses and executes sql against the named frames. A bare column of
// an unfiltered, unordered query shares its storage with the source frame.
func Query(tables map[string]*rframe.Frame, sql string) (*rframe.Frame, error) {
	q, err := parse(sql)
	if err != nil {
		return nil, err
	}
	src, ok := tables[q.from]
	if !ok {
		return nil, fmt.Errorf("rsql: no table %q", q.from)
	}
	return execute(q, frameItems(src), src.NumRows())
}

// QueryChunk parses and executes sql against one chunk whose columns are
// cols, read in place through the chunk's accessors: no frame of the
// source is built. The query's FROM names nothing; the chunk is the
// table. It answers as Query over a frame of the same values would (an
// Int column stays Int under SELECT *), with the same errors.
func QueryChunk(c Chunk, cols []ColumnInfo, sql string) (*rframe.Frame, error) {
	q, err := parse(sql)
	if err != nil {
		return nil, err
	}
	items, err := chunkItems(cols, c)
	if err != nil {
		return nil, err
	}
	return execute(q, items, c.NumRows())
}
