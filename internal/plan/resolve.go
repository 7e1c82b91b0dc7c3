package plan

import (
	"fmt"
	"strings"

	"shark/internal/catalog"
	"shark/internal/expr"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// scopeBinding is one table visible to name resolution.
type scopeBinding struct {
	name   string
	schema row.Schema
	offset int
}

// scope resolves names against a set of bound tables whose schemas are
// concatenated into one row layout.
type scope struct {
	cat      *catalog.Catalog
	bindings []scopeBinding
	width    int
}

func newScope(cat *catalog.Catalog) *scope { return &scope{cat: cat} }

func (s *scope) add(name string, schema row.Schema) {
	s.bindings = append(s.bindings, scopeBinding{name: name, schema: schema, offset: s.width})
	s.width += len(schema)
}

// combined returns the full row schema of the scope.
func (s *scope) combined() row.Schema {
	out := make(row.Schema, 0, s.width)
	for _, b := range s.bindings {
		out = append(out, b.schema...)
	}
	return out
}

// resolveCol finds a column, honoring an optional table qualifier.
func (s *scope) resolveCol(table, name string) (*expr.Col, error) {
	var found *expr.Col
	for _, b := range s.bindings {
		if table != "" && !strings.EqualFold(table, b.name) {
			continue
		}
		if i := b.schema.Index(name); i >= 0 {
			if found != nil {
				return nil, fmt.Errorf("plan: ambiguous column %q", name)
			}
			t := b.schema[i].Type
			found = &expr.Col{Idx: b.offset + i, Name: name, T: t}
		}
	}
	if found == nil {
		if table != "" {
			return nil, fmt.Errorf("plan: unknown column %s.%s", table, name)
		}
		return nil, fmt.Errorf("plan: unknown column %q", name)
	}
	return found, nil
}

// aggFuncNames are the aggregate functions handled by Aggregate nodes.
var aggFuncNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// resolve converts an AST expression to a typed expression against the
// scope. Aggregate calls are rejected — the analyzer extracts them
// before calling resolve.
func (s *scope) resolve(e sqlparse.Expr) (expr.Expr, error) {
	switch n := e.(type) {
	case *sqlparse.Literal:
		return expr.NewConst(n.Value), nil

	case *sqlparse.ColRef:
		return s.resolveCol(n.Table, n.Name)

	case *sqlparse.BinaryExpr:
		l, err := s.resolve(n.L)
		if err != nil {
			return nil, err
		}
		r, err := s.resolve(n.R)
		if err != nil {
			return nil, err
		}
		return buildBinary(n.Op, l, r)

	case *sqlparse.NotExpr:
		inner, err := s.resolve(n.E)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil

	case *sqlparse.NegExpr:
		inner, err := s.resolve(n.E)
		if err != nil {
			return nil, err
		}
		if !inner.Type().Numeric() {
			return nil, fmt.Errorf("plan: cannot negate %s", inner.Type())
		}
		return fold(&expr.Neg{E: inner, T: inner.Type()}), nil

	case *sqlparse.BetweenExpr:
		v, err := s.resolve(n.E)
		if err != nil {
			return nil, err
		}
		lo, err := s.resolve(n.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := s.resolve(n.Hi)
		if err != nil {
			return nil, err
		}
		ge := &expr.Cmp{Op: expr.Ge, L: v, R: lo}
		le := &expr.Cmp{Op: expr.Le, L: v, R: hi}
		var out expr.Expr = &expr.And{L: ge, R: le}
		if n.Not {
			out = &expr.Not{E: out}
		}
		return out, nil

	case *sqlparse.InExpr:
		v, err := s.resolve(n.E)
		if err != nil {
			return nil, err
		}
		allConst := true
		var vals []any
		items := make([]expr.Expr, len(n.List))
		for i, item := range n.List {
			re, err := s.resolve(item)
			if err != nil {
				return nil, err
			}
			items[i] = re
			if c, ok := re.(*expr.Const); ok {
				vals = append(vals, c.V)
			} else {
				allConst = false
			}
		}
		if allConst {
			return &expr.In{E: v, Set: expr.NewInSet(vals), Invert: n.Not}, nil
		}
		return &expr.In{E: v, List: items, Invert: n.Not}, nil

	case *sqlparse.LikeExpr:
		v, err := s.resolve(n.E)
		if err != nil {
			return nil, err
		}
		if v.Type() != row.TString {
			return nil, fmt.Errorf("plan: LIKE requires a string operand")
		}
		return expr.NewLike(v, n.Pattern, n.Not), nil

	case *sqlparse.IsNullExpr:
		v, err := s.resolve(n.E)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: v, Invert: n.Not}, nil

	case *sqlparse.CaseExpr:
		out := &expr.Case{}
		for _, w := range n.Whens {
			cond, err := s.resolve(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := s.resolve(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, expr.When{Cond: cond, Then: then})
		}
		if n.Else != nil {
			els, err := s.resolve(n.Else)
			if err != nil {
				return nil, err
			}
			out.Else = els
		}
		out.T = out.Whens[0].Then.Type()
		return out, nil

	case *sqlparse.CastExpr:
		v, err := s.resolve(n.E)
		if err != nil {
			return nil, err
		}
		return fold(&expr.Cast{E: v, To: n.To}), nil

	case *sqlparse.FuncCall:
		if aggFuncNames[strings.ToUpper(n.Name)] {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", n.Name)
		}
		f, ok := s.cat.LookupFunc(n.Name)
		if !ok {
			return nil, fmt.Errorf("plan: unknown function %q", n.Name)
		}
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			re, err := s.resolve(a)
			if err != nil {
				return nil, err
			}
			args[i] = re
		}
		call, err := expr.NewCall(f, args)
		if err != nil {
			return nil, err
		}
		return call, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", e)
}

func buildBinary(op sqlparse.BinaryOp, l, r expr.Expr) (expr.Expr, error) {
	switch op {
	case sqlparse.OpAnd:
		return &expr.And{L: l, R: r}, nil
	case sqlparse.OpOr:
		return &expr.Or{L: l, R: r}, nil
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		if err := checkComparable(l.Type(), r.Type()); err != nil {
			return nil, err
		}
		cmpOp := map[sqlparse.BinaryOp]expr.CmpOp{
			sqlparse.OpEq: expr.Eq, sqlparse.OpNe: expr.Ne, sqlparse.OpLt: expr.Lt,
			sqlparse.OpLe: expr.Le, sqlparse.OpGt: expr.Gt, sqlparse.OpGe: expr.Ge,
		}[op]
		return fold(&expr.Cmp{Op: cmpOp, L: l, R: r}), nil
	default:
		// arithmetic
		if !numericish(l.Type()) || !numericish(r.Type()) {
			return nil, fmt.Errorf("plan: arithmetic requires numeric operands, got %s and %s", l.Type(), r.Type())
		}
		t := row.TInt
		if op == sqlparse.OpDiv || l.Type() == row.TFloat || r.Type() == row.TFloat {
			t = row.TFloat
		}
		arOp := map[sqlparse.BinaryOp]expr.ArithOp{
			sqlparse.OpAdd: expr.Add, sqlparse.OpSub: expr.Sub, sqlparse.OpMul: expr.Mul,
			sqlparse.OpDiv: expr.Div, sqlparse.OpMod: expr.Mod,
		}[op]
		return fold(&expr.Arith{Op: arOp, L: l, R: r, T: t}), nil
	}
}

func numericish(t row.Type) bool {
	return t == row.TInt || t == row.TFloat || t == row.TDate || t == row.TNull
}

func checkComparable(a, b row.Type) error {
	if a == row.TNull || b == row.TNull {
		return nil
	}
	if numericish(a) && numericish(b) {
		return nil
	}
	if a == b {
		return nil
	}
	return fmt.Errorf("plan: cannot compare %s with %s", a, b)
}

// fold collapses constant subtrees (constant folding).
func fold(e expr.Expr) expr.Expr {
	if isConstTree(e) {
		return &expr.Const{V: e.Eval(nil), T: e.Type()}
	}
	return e
}

func isConstTree(e expr.Expr) bool {
	switch n := e.(type) {
	case *expr.Const:
		return true
	case *expr.Arith:
		return isConstTree(n.L) && isConstTree(n.R)
	case *expr.Cmp:
		return isConstTree(n.L) && isConstTree(n.R)
	case *expr.Neg:
		return isConstTree(n.E)
	case *expr.Cast:
		return isConstTree(n.E)
	}
	return false
}

// ---------------------------------------------------------------------------
// Expression rewriting utilities shared by the optimizer.

// rewriteCols clones e, replacing every column reference through fn.
func rewriteCols(e expr.Expr, fn func(*expr.Col) expr.Expr) expr.Expr {
	switch n := e.(type) {
	case *expr.Col:
		return fn(n)
	case *expr.Const:
		return n
	case *expr.Arith:
		return &expr.Arith{Op: n.Op, L: rewriteCols(n.L, fn), R: rewriteCols(n.R, fn), T: n.T}
	case *expr.Neg:
		return &expr.Neg{E: rewriteCols(n.E, fn), T: n.T}
	case *expr.Cmp:
		return &expr.Cmp{Op: n.Op, L: rewriteCols(n.L, fn), R: rewriteCols(n.R, fn)}
	case *expr.And:
		return &expr.And{L: rewriteCols(n.L, fn), R: rewriteCols(n.R, fn)}
	case *expr.Or:
		return &expr.Or{L: rewriteCols(n.L, fn), R: rewriteCols(n.R, fn)}
	case *expr.Not:
		return &expr.Not{E: rewriteCols(n.E, fn)}
	case *expr.In:
		out := &expr.In{E: rewriteCols(n.E, fn), Set: n.Set, Invert: n.Invert}
		for _, item := range n.List {
			out.List = append(out.List, rewriteCols(item, fn))
		}
		return out
	case *expr.Like:
		return expr.NewLike(rewriteCols(n.E, fn), n.Pattern, n.Invert)
	case *expr.IsNull:
		return &expr.IsNull{E: rewriteCols(n.E, fn), Invert: n.Invert}
	case *expr.Case:
		out := &expr.Case{T: n.T}
		for _, w := range n.Whens {
			out.Whens = append(out.Whens, expr.When{
				Cond: rewriteCols(w.Cond, fn),
				Then: rewriteCols(w.Then, fn),
			})
		}
		if n.Else != nil {
			out.Else = rewriteCols(n.Else, fn)
		}
		return out
	case *expr.Cast:
		return &expr.Cast{E: rewriteCols(n.E, fn), To: n.To}
	case *expr.Call:
		out := &expr.Call{F: n.F, T: n.T}
		for _, a := range n.Args {
			out.Args = append(out.Args, rewriteCols(a, fn))
		}
		return out
	}
	panic(fmt.Sprintf("plan: rewriteCols: unhandled %T", e))
}

// shiftCols returns e with every column index shifted by delta.
func shiftCols(e expr.Expr, delta int) expr.Expr {
	return rewriteCols(e, func(c *expr.Col) expr.Expr {
		return &expr.Col{Idx: c.Idx + delta, Name: c.Name, T: c.T}
	})
}

// colsOf returns the distinct column indices referenced by e.
func colsOf(e expr.Expr) []int {
	seen := map[int]bool{}
	var out []int
	rewriteCols(e, func(c *expr.Col) expr.Expr {
		if !seen[c.Idx] {
			seen[c.Idx] = true
			out = append(out, c.Idx)
		}
		return c
	})
	return out
}

// splitConjuncts flattens a chain of ANDs.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []expr.Expr{e}
}

// conjoin rebuilds a conjunction (nil for empty).
func conjoin(es []expr.Expr) expr.Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &expr.And{L: out, R: e}
	}
	return out
}
