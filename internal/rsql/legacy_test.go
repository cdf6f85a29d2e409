package rsql

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"scidp/internal/rframe"
)

// This file is the row-at-a-time executor rsql.Query ran on until the
// bind-once, column-at-a-time executor in exec.go replaced it, moved here
// verbatim (only Query is renamed legacyQuery; b2f, aggFuncs, hasAgg and
// itemName are the ones exec.go still has). It is test-only and it is the
// specification: TestDifferential and FuzzQuery hold the new executor to
// its answers, bit for bit.

// val is a runtime value: numeric or string.
type val struct {
	f   float64
	s   string
	str bool
}

func num(f float64) val  { return val{f: f} }
func str(s string) val   { return val{s: s, str: true} }
func boolVal(b bool) val { return num(b2f(b)) }

func (v val) truthy() bool { return !v.str && v.f != 0 }

// rowEval evaluates e against one row of f.
func rowEval(e expr, f *rframe.Frame, row int) (val, error) {
	switch x := e.(type) {
	case numLit:
		return num(x.v), nil
	case strLit:
		return str(x.v), nil
	case colRef:
		c := f.Col(x.name)
		if c == nil {
			return val{}, fmt.Errorf("rsql: no column %q", x.name)
		}
		if c.Kind == rframe.String {
			return str(c.S[row]), nil
		}
		return num(c.Float64At(row)), nil
	case unary:
		v, err := rowEval(x.x, f, row)
		if err != nil {
			return val{}, err
		}
		switch x.op {
		case "-":
			return num(-v.f), nil
		case "NOT":
			return boolVal(!v.truthy()), nil
		}
		return val{}, fmt.Errorf("rsql: unknown unary %q", x.op)
	case binary:
		l, err := rowEval(x.l, f, row)
		if err != nil {
			return val{}, err
		}
		// Short-circuit logic operators.
		switch x.op {
		case "AND":
			if !l.truthy() {
				return boolVal(false), nil
			}
			r, err := rowEval(x.r, f, row)
			if err != nil {
				return val{}, err
			}
			return boolVal(r.truthy()), nil
		case "OR":
			if l.truthy() {
				return boolVal(true), nil
			}
			r, err := rowEval(x.r, f, row)
			if err != nil {
				return val{}, err
			}
			return boolVal(r.truthy()), nil
		}
		r, err := rowEval(x.r, f, row)
		if err != nil {
			return val{}, err
		}
		return applyBinary(x.op, l, r)
	case call:
		if aggFuncs[x.name] {
			return val{}, fmt.Errorf("rsql: aggregate %s outside aggregation context", x.name)
		}
		return applyScalar(x, f, row)
	}
	return val{}, fmt.Errorf("rsql: unknown expression %T", e)
}

func applyBinary(op string, l, r val) (val, error) {
	if l.str || r.str {
		// String context: only comparisons are defined.
		if !l.str || !r.str {
			return val{}, fmt.Errorf("rsql: mixed string/number operands for %q", op)
		}
		switch op {
		case "=":
			return boolVal(l.s == r.s), nil
		case "<>", "!=":
			return boolVal(l.s != r.s), nil
		case "<":
			return boolVal(l.s < r.s), nil
		case ">":
			return boolVal(l.s > r.s), nil
		case "<=":
			return boolVal(l.s <= r.s), nil
		case ">=":
			return boolVal(l.s >= r.s), nil
		}
		return val{}, fmt.Errorf("rsql: operator %q undefined for strings", op)
	}
	switch op {
	case "+":
		return num(l.f + r.f), nil
	case "-":
		return num(l.f - r.f), nil
	case "*":
		return num(l.f * r.f), nil
	case "/":
		return num(l.f / r.f), nil
	case "%":
		return num(math.Mod(l.f, r.f)), nil
	case "=":
		return boolVal(l.f == r.f), nil
	case "<>", "!=":
		return boolVal(l.f != r.f), nil
	case "<":
		return boolVal(l.f < r.f), nil
	case ">":
		return boolVal(l.f > r.f), nil
	case "<=":
		return boolVal(l.f <= r.f), nil
	case ">=":
		return boolVal(l.f >= r.f), nil
	}
	return val{}, fmt.Errorf("rsql: unknown operator %q", op)
}

func applyScalar(x call, f *rframe.Frame, row int) (val, error) {
	argv := make([]val, len(x.args))
	for i, a := range x.args {
		v, err := rowEval(a, f, row)
		if err != nil {
			return val{}, err
		}
		argv[i] = v
	}
	switch x.name {
	case "ABS":
		if len(argv) != 1 {
			return val{}, fmt.Errorf("rsql: ABS takes 1 argument")
		}
		return num(math.Abs(argv[0].f)), nil
	case "SQRT":
		if len(argv) != 1 {
			return val{}, fmt.Errorf("rsql: SQRT takes 1 argument")
		}
		return num(math.Sqrt(argv[0].f)), nil
	}
	return val{}, fmt.Errorf("rsql: unknown function %s", x.name)
}

// aggEval evaluates an expression over a set of rows (aggregation
// context): aggregates reduce the rows; bare columns take the group's
// first row (valid for GROUP BY keys).
func aggEval(e expr, f *rframe.Frame, rows []int) (val, error) {
	switch x := e.(type) {
	case numLit, strLit:
		return rowEval(e, f, 0)
	case colRef:
		if len(rows) == 0 {
			return num(math.NaN()), nil
		}
		return rowEval(e, f, rows[0])
	case unary:
		v, err := aggEval(x.x, f, rows)
		if err != nil {
			return val{}, err
		}
		switch x.op {
		case "-":
			return num(-v.f), nil
		case "NOT":
			return boolVal(!v.truthy()), nil
		}
		return val{}, fmt.Errorf("rsql: unknown unary %q", x.op)
	case binary:
		l, err := aggEval(x.l, f, rows)
		if err != nil {
			return val{}, err
		}
		r, err := aggEval(x.r, f, rows)
		if err != nil {
			return val{}, err
		}
		switch x.op {
		case "AND":
			return boolVal(l.truthy() && r.truthy()), nil
		case "OR":
			return boolVal(l.truthy() || r.truthy()), nil
		}
		return applyBinary(x.op, l, r)
	case call:
		if !aggFuncs[x.name] {
			// Scalar over aggregate arguments.
			if len(rows) == 0 {
				return num(math.NaN()), nil
			}
			argv := make([]val, len(x.args))
			for i, a := range x.args {
				v, err := aggEval(a, f, rows)
				if err != nil {
					return val{}, err
				}
				argv[i] = v
			}
			switch x.name {
			case "ABS":
				return num(math.Abs(argv[0].f)), nil
			case "SQRT":
				return num(math.Sqrt(argv[0].f)), nil
			}
			return val{}, fmt.Errorf("rsql: unknown function %s", x.name)
		}
		if x.name == "COUNT" && x.star {
			return num(float64(len(rows))), nil
		}
		if len(x.args) != 1 {
			return val{}, fmt.Errorf("rsql: %s takes 1 argument", x.name)
		}
		var acc float64
		switch x.name {
		case "MIN":
			acc = math.Inf(1)
		case "MAX":
			acc = math.Inf(-1)
		}
		count := 0
		for _, r := range rows {
			v, err := rowEval(x.args[0], f, r)
			if err != nil {
				return val{}, err
			}
			count++
			switch x.name {
			case "SUM", "AVG":
				acc += v.f
			case "MIN":
				if v.f < acc {
					acc = v.f
				}
			case "MAX":
				if v.f > acc {
					acc = v.f
				}
			case "COUNT":
				// counting non-star: every evaluated row counts
			}
		}
		switch x.name {
		case "COUNT":
			return num(float64(count)), nil
		case "AVG":
			if count == 0 {
				return num(math.NaN()), nil
			}
			return num(acc / float64(count)), nil
		default:
			return num(acc), nil
		}
	}
	return val{}, fmt.Errorf("rsql: unknown expression %T", e)
}

// legacyQuery parses and executes sql against the named frames.
func legacyQuery(tables map[string]*rframe.Frame, sql string) (*rframe.Frame, error) {
	q, err := parse(sql)
	if err != nil {
		return nil, err
	}
	src, ok := tables[q.from]
	if !ok {
		return nil, fmt.Errorf("rsql: no table %q", q.from)
	}

	// WHERE filter.
	rows := make([]int, 0, src.NumRows())
	for r := 0; r < src.NumRows(); r++ {
		if q.where != nil {
			v, err := rowEval(q.where, src, r)
			if err != nil {
				return nil, err
			}
			if !v.truthy() {
				continue
			}
		}
		rows = append(rows, r)
	}

	aggregated := len(q.groupBy) > 0
	for _, it := range q.sel {
		if !it.star && hasAgg(it.ex) {
			aggregated = true
		}
	}

	var out *rframe.Frame
	if aggregated {
		out, err = execAggregate(q, src, rows)
	} else {
		out, err = execProject(q, src, rows)
	}
	if err != nil {
		return nil, err
	}

	// ORDER BY over the output frame (aliases and projected columns).
	if len(q.orderBy) > 0 {
		out, err = orderFrame(out, q.orderBy)
		if err != nil {
			return nil, err
		}
	}
	if q.limit >= 0 {
		out = out.Head(q.limit)
	}
	return out, nil
}

// execProject evaluates a non-aggregated select list row by row.
func execProject(q *query, src *rframe.Frame, rows []int) (*rframe.Frame, error) {
	type outCol struct {
		name string
		strs []string
		nums []float64
		str  bool
		set  bool
	}
	var cols []*outCol
	star := false
	for i, it := range q.sel {
		if it.star {
			star = true
			continue
		}
		cols = append(cols, &outCol{name: itemName(it, i)})
	}
	// Star expands in place: build by gathering the filtered rows.
	out := rframe.New()
	if star {
		keep := map[int]bool{}
		for _, r := range rows {
			keep[r] = true
		}
		filtered := src.Filter(func(r int) bool { return keep[r] })
		for _, c := range filtered.Columns() {
			switch c.Kind {
			case rframe.Float:
				out.AddFloat(c.Name, c.F)
			case rframe.Int:
				out.AddInt(c.Name, c.I)
			case rframe.String:
				out.AddString(c.Name, c.S)
			}
		}
	}
	ci := 0
	for _, it := range q.sel {
		if it.star {
			continue
		}
		oc := cols[ci]
		ci++
		for _, r := range rows {
			v, err := rowEval(it.ex, src, r)
			if err != nil {
				return nil, err
			}
			if !oc.set {
				oc.str = v.str
				oc.set = true
			}
			if v.str != oc.str {
				return nil, fmt.Errorf("rsql: column %q mixes strings and numbers", oc.name)
			}
			if v.str {
				oc.strs = append(oc.strs, v.s)
			} else {
				oc.nums = append(oc.nums, v.f)
			}
		}
		var err error
		if oc.str {
			err = out.AddString(oc.name, oc.strs)
		} else {
			if oc.nums == nil {
				oc.nums = []float64{}
			}
			err = out.AddFloat(oc.name, oc.nums)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// execAggregate groups the rows and evaluates aggregate select items.
func execAggregate(q *query, src *rframe.Frame, rows []int) (*rframe.Frame, error) {
	for _, g := range q.groupBy {
		if src.Col(g) == nil {
			return nil, fmt.Errorf("rsql: GROUP BY column %q missing", g)
		}
	}
	// Group rows by composite key, preserving first-seen order.
	type group struct{ rows []int }
	var order []string
	groups := map[string]*group{}
	for _, r := range rows {
		var sb strings.Builder
		for _, g := range q.groupBy {
			sb.WriteString(src.Col(g).StringAt(r))
			sb.WriteByte('\x00')
		}
		key := sb.String()
		grp, ok := groups[key]
		if !ok {
			grp = &group{}
			groups[key] = grp
			order = append(order, key)
		}
		grp.rows = append(grp.rows, r)
	}
	if len(q.groupBy) == 0 {
		// Global aggregation: one group, even over zero rows.
		order = []string{""}
		groups[""] = &group{rows: rows}
	}
	type outCol struct {
		name string
		strs []string
		nums []float64
		str  bool
		set  bool
	}
	cols := make([]*outCol, 0, len(q.sel))
	for i, it := range q.sel {
		if it.star {
			return nil, fmt.Errorf("rsql: SELECT * cannot mix with aggregation")
		}
		cols = append(cols, &outCol{name: itemName(it, i)})
	}
	for _, key := range order {
		grp := groups[key]
		for i, it := range q.sel {
			v, err := aggEval(it.ex, src, grp.rows)
			if err != nil {
				return nil, err
			}
			oc := cols[i]
			if !oc.set {
				oc.str = v.str
				oc.set = true
			}
			if v.str != oc.str {
				return nil, fmt.Errorf("rsql: column %q mixes strings and numbers", oc.name)
			}
			if v.str {
				oc.strs = append(oc.strs, v.s)
			} else {
				oc.nums = append(oc.nums, v.f)
			}
		}
	}
	out := rframe.New()
	for _, oc := range cols {
		var err error
		if oc.str {
			err = out.AddString(oc.name, oc.strs)
		} else {
			if oc.nums == nil {
				oc.nums = []float64{}
			}
			err = out.AddFloat(oc.name, oc.nums)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// orderFrame sorts the output frame by the ORDER BY items (evaluated
// against the output's own columns).
func orderFrame(f *rframe.Frame, items []orderItem) (*rframe.Frame, error) {
	n := f.NumRows()
	keys := make([][]val, n)
	for r := 0; r < n; r++ {
		keys[r] = make([]val, len(items))
		for i, it := range items {
			v, err := rowEval(it.ex, f, r)
			if err != nil {
				return nil, err
			}
			keys[r][i] = v
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	lessVal := func(a, b val) int {
		switch {
		case a.str && b.str:
			return strings.Compare(a.s, b.s)
		case !a.str && !b.str:
			switch {
			case a.f < b.f:
				return -1
			case a.f > b.f:
				return 1
			}
			return 0
		default:
			sortErr = fmt.Errorf("rsql: ORDER BY mixes strings and numbers")
			return 0
		}
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		for i, it := range items {
			c := lessVal(keys[a][i], keys[b][i])
			if it.desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	if sortErr != nil {
		return nil, sortErr
	}
	// Rebuild via Filter-preserving gather.
	keep := make([]int, n)
	copy(keep, idx)
	out := rframe.New()
	for _, c := range f.Columns() {
		switch c.Kind {
		case rframe.Float:
			vals := make([]float64, n)
			for i, r := range keep {
				vals[i] = c.F[r]
			}
			out.AddFloat(c.Name, vals)
		case rframe.Int:
			vals := make([]int64, n)
			for i, r := range keep {
				vals[i] = c.I[r]
			}
			out.AddInt(c.Name, vals)
		case rframe.String:
			vals := make([]string, n)
			for i, r := range keep {
				vals[i] = c.S[r]
			}
			out.AddString(c.Name, vals)
		}
	}
	return out, nil
}
