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
	// hook, when set, sees every node before resolve does and may
	// resolve it itself (or refuse it); (nil, nil) leaves it to resolve.
	// The post-aggregation scope is a hook over no bindings.
	hook func(sqlparse.Expr) (expr.Expr, error)
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

// IsAggregate reports whether name (in any case) is an aggregate
// function: one an Aggregate node computes (buildAggSpec), not a scalar
// the catalog resolves.
func IsAggregate(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// resolve converts an AST expression to a typed expression against the
// scope: the one AST→expr resolver. Aggregate calls are rejected — the
// analyzer extracts them first, and after aggregation the scope's hook
// answers for them.
func (s *scope) resolve(e sqlparse.Expr) (expr.Expr, error) {
	if s.hook != nil {
		if out, err := s.hook(e); out != nil || err != nil {
			return out, err
		}
	}
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
		if IsAggregate(n.Name) {
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

// fold replaces a node all of whose operands are literals by its value
// (constant folding). Operands are resolved, and folded, before their
// parent, so a constant operand is a *expr.Const by now.
func fold(e expr.Expr) expr.Expr {
	constant := true
	expr.Walk(e, func(n expr.Expr) {
		if _, ok := n.(*expr.Const); !ok && n != e {
			constant = false
		}
	})
	if constant {
		return &expr.Const{V: e.Eval(nil), T: e.Type()}
	}
	return e
}

// ---------------------------------------------------------------------------
// Expression utilities shared by the optimizer.

// shiftCols returns e with every column index shifted by delta.
func shiftCols(e expr.Expr, delta int) expr.Expr {
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		if c, ok := n.(*expr.Col); ok {
			return &expr.Col{Idx: c.Idx + delta, Name: c.Name, T: c.T}
		}
		return n
	})
}

// splitConjuncts flattens a chain of ANDs.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []expr.Expr{e}
}

// Conjoin rebuilds a conjunction (nil for empty).
func Conjoin(es []expr.Expr) expr.Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &expr.And{L: out, R: e}
	}
	return out
}
