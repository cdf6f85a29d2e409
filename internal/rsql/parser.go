package rsql

import (
	"fmt"
	"strconv"
	"strings"
)

// expr is a parsed expression node.
type expr interface{ exprNode() }

type numLit struct{ v float64 }
type strLit struct{ v string }
type colRef struct{ name string }
type unary struct {
	op string // "-" or "NOT"
	x  expr
}
type binary struct {
	op   string
	l, r expr
	num  func(l, r float64) float64 // op over numbers (numOps), looked up once
}

func newBinary(op string, l, r expr) binary { return binary{op: op, l: l, r: r, num: numOps[op]} }

type call struct {
	name string // upper-cased function name
	star bool   // COUNT(*)
	args []expr
}

func (numLit) exprNode() {}
func (strLit) exprNode() {}
func (colRef) exprNode() {}
func (unary) exprNode()  {}
func (binary) exprNode() {}
func (call) exprNode()   {}

// walk calls visit on e and on every expression under it.
func walk(e expr, visit func(expr)) {
	visit(e)
	switch x := e.(type) {
	case unary:
		walk(x.x, visit)
	case binary:
		walk(x.l, visit)
		walk(x.r, visit)
	case call:
		for _, a := range x.args {
			walk(a, visit)
		}
	}
}

// selectItem is one projection.
type selectItem struct {
	ex    expr
	alias string
	star  bool
}

// orderItem is one ORDER BY key.
type orderItem struct {
	ex   expr
	desc bool
}

// query is a parsed statement.
type query struct {
	sel     []selectItem
	from    string
	where   expr
	groupBy []string
	orderBy []orderItem
	limit   int // -1 when absent
}

// parser consumes the token stream.
type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) acceptKw(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().val == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	if p.cur().kind == tokOp && p.cur().val == op {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("rsql: expected %s at position %d, got %q", kw, p.cur().pos, p.cur().val)
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("rsql: expected %q at position %d, got %q", op, p.cur().pos, p.cur().val)
	}
	return nil
}

// parse parses a full SELECT statement.
func parse(sql string) (*query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &query{limit: -1}
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	for {
		if p.acceptOp("*") {
			q.sel = append(q.sel, selectItem{star: true})
		} else {
			ex, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := selectItem{ex: ex}
			if p.acceptKw("AS") {
				t := p.next()
				if t.kind != tokIdent {
					return nil, fmt.Errorf("rsql: expected alias after AS at %d", t.pos)
				}
				item.alias = t.val
			}
			q.sel = append(q.sel, item)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("rsql: expected table name at %d", t.pos)
	}
	q.from = t.val
	if p.acceptKw("WHERE") {
		ex, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.where = ex
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("rsql: expected column in GROUP BY at %d", t.pos)
			}
			q.groupBy = append(q.groupBy, t.val)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			ex, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := orderItem{ex: ex}
			if p.acceptKw("DESC") {
				item.desc = true
			} else {
				p.acceptKw("ASC")
			}
			q.orderBy = append(q.orderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("rsql: expected number after LIMIT at %d", t.pos)
		}
		n, err := strconv.Atoi(t.val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("rsql: bad LIMIT %q", t.val)
		}
		q.limit = n
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("rsql: trailing input at %d: %q", p.cur().pos, p.cur().val)
	}
	return q, nil
}

// Precedence climbing: OR < AND < NOT < comparison < additive <
// multiplicative < unary.

func (p *parser) parseExpr() (expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = newBinary("OR", l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = newBinary("AND", l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return unary{op: "NOT", x: x}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "<", ">", "="} {
		if p.acceptOp(op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return newBinary(op, l, r), nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = newBinary("+", l, r)
		case p.acceptOp("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = newBinary("-", l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = newBinary("*", l, r)
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = newBinary("/", l, r)
		case p.acceptOp("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = newBinary("%", l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unary{op: "-", x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.val, 64)
		if err != nil {
			return nil, fmt.Errorf("rsql: bad number %q at %d", t.val, t.pos)
		}
		return numLit{v: v}, nil
	case tokString:
		return strLit{v: t.val}, nil
	case tokIdent:
		if p.acceptOp("(") {
			fn := call{name: strings.ToUpper(t.val)}
			if p.acceptOp("*") {
				fn.star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return fn, nil
			}
			if !p.acceptOp(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fn.args = append(fn.args, arg)
					if !p.acceptOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			return fn, nil
		}
		return colRef{name: t.val}, nil
	case tokOp:
		if t.val == "(" {
			ex, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return ex, nil
		}
	}
	return nil, fmt.Errorf("rsql: unexpected token %q at %d", t.val, t.pos)
}
