// Package expr implements typed, analyzed expressions and the engine's
// one row-at-a-time evaluator, Eval: it serves every operator that
// works on row.Row (joins, external scans, sorts, the Hive baseline in
// internal/mr, constant folding in the planner) and, on scans of cached
// tables, the expressions that have no typed kernel (exec's row
// adapter), where it is also the kernels' oracle. The compiled
// evaluators the paper plans (§5) are, in this engine, those typed
// column kernels and the vector forms of built-ins (UDF.Vec) — not a
// second way to run a row.
//
// The shape of an expression tree is written down once, in
// mapChildren; Walk, Rewrite and Cols are derived from it.
//
// NULL semantics follow Hive's practical behaviour: arithmetic over
// NULL yields NULL; comparisons and predicates over NULL yield false
// (UNKNOWN collapses to false at the filter boundary).
package expr

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"

	"shark/internal/row"
)

// EvalFn evaluates a bound expression against a row: an Expr's Eval
// method value.
type EvalFn func(row.Row) any

// Expr is an analyzed, typed expression.
type Expr interface {
	// Type returns the static result type.
	Type() row.Type
	// Eval evaluates the node against a row.
	Eval(r row.Row) any
	// Compile returns Eval. Nothing in the engine calls it; every node
	// keeps the method only because bench/layers.go:457 does, and bench/
	// changes only under ROADMAP 2(c)'s rule (its removal is item 14).
	Compile() EvalFn
	// String renders for EXPLAIN output.
	String() string
}

// mapChildren returns e with each child c replaced by f(c), children
// visited in source order. e is never modified: when f changes a child
// the node is copied, otherwise e itself comes back.
func mapChildren(e Expr, f func(Expr) Expr) Expr {
	switch n := e.(type) {
	case *Arith:
		if l, r := f(n.L), f(n.R); l != n.L || r != n.R {
			return &Arith{Op: n.Op, L: l, R: r, T: n.T}
		}
	case *Neg:
		if c := f(n.E); c != n.E {
			return &Neg{E: c, T: n.T}
		}
	case *Cmp:
		if l, r := f(n.L), f(n.R); l != n.L || r != n.R {
			return &Cmp{Op: n.Op, L: l, R: r}
		}
	case *And:
		if l, r := f(n.L), f(n.R); l != n.L || r != n.R {
			return &And{L: l, R: r}
		}
	case *Or:
		if l, r := f(n.L), f(n.R); l != n.L || r != n.R {
			return &Or{L: l, R: r}
		}
	case *Not:
		if c := f(n.E); c != n.E {
			return &Not{E: c}
		}
	case *In:
		c := f(n.E)
		if list, changed := mapList(n.List, f); changed || c != n.E {
			return &In{E: c, Set: n.Set, List: list, Invert: n.Invert}
		}
	case *Like:
		if c := f(n.E); c != n.E {
			cp := *n // keeps the compiled pattern
			cp.E = c
			return &cp
		}
	case *IsNull:
		if c := f(n.E); c != n.E {
			return &IsNull{E: c, Invert: n.Invert}
		}
	case *Case:
		whens, changed := n.Whens, false
		for i, w := range n.Whens {
			if m := (When{Cond: f(w.Cond), Then: f(w.Then)}); m != w {
				if !changed {
					whens, changed = slices.Clone(n.Whens), true
				}
				whens[i] = m
			}
		}
		els := n.Else
		if els != nil {
			els = f(els)
		}
		if changed || els != n.Else {
			return &Case{Whens: whens, Else: els, T: n.T}
		}
	case *Cast:
		if c := f(n.E); c != n.E {
			return &Cast{E: c, To: n.To}
		}
	case *Call:
		if args, changed := mapList(n.Args, f); changed {
			return &Call{F: n.F, Args: args, T: n.T}
		}
	}
	return e // a leaf (Col, Const), or nothing changed
}

// mapList is mapChildren for a slice of children: es itself when f
// changed none of them.
func mapList(es []Expr, f func(Expr) Expr) (out []Expr, changed bool) {
	out = es
	for i, e := range es {
		if c := f(e); c != e {
			if !changed {
				out, changed = slices.Clone(es), true
			}
			out[i] = c
		}
	}
	return out, changed
}

// Walk calls visit on e and every expression below it, parents first,
// in source order.
func Walk(e Expr, visit func(Expr)) {
	var down func(Expr) Expr
	down = func(c Expr) Expr {
		visit(c)
		mapChildren(c, down)
		return c
	}
	down(e)
}

// Rewrite returns e with f applied to every node, children before
// their parent. Sub-trees f leaves alone are shared with e.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	return f(mapChildren(e, func(c Expr) Expr { return Rewrite(c, f) }))
}

// Cols lists the distinct columns e reads, in the order it first
// mentions them.
func Cols(e Expr) []int {
	var cols []int
	Walk(e, func(n Expr) {
		if c, ok := n.(*Col); ok && !slices.Contains(cols, c.Idx) {
			cols = append(cols, c.Idx)
		}
	})
	return cols
}

// ---------------------------------------------------------------------------

// Col reads column Idx from the input row.
type Col struct {
	Idx  int
	Name string
	T    row.Type
}

// Type implements Expr.
func (c *Col) Type() row.Type { return c.T }

// Eval implements Expr.
func (c *Col) Eval(r row.Row) any { return r[c.Idx] }

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (c *Col) Compile() EvalFn { return c.Eval }

// String implements Expr.
func (c *Col) String() string { return fmt.Sprintf("%s#%d", c.Name, c.Idx) }

// ---------------------------------------------------------------------------

// Const is a literal.
type Const struct {
	V any
	T row.Type
}

// NewConst builds a Const with its natural type.
func NewConst(v any) *Const { return &Const{V: v, T: row.TypeOf(v)} }

// Type implements Expr.
func (c *Const) Type() row.Type { return c.T }

// Eval implements Expr.
func (c *Const) Eval(row.Row) any { return c.V }

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (c *Const) Compile() EvalFn { return c.Eval }

// String implements Expr.
func (c *Const) String() string { return row.FormatValue(c.V) }

// ---------------------------------------------------------------------------

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

var arithNames = map[ArithOp]string{Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%"}

// Arith applies integer or floating arithmetic; the analyzer sets T to
// TInt only when both inputs are integers (SQL integer semantics,
// except '/' which is always floating as in Hive).
type Arith struct {
	Op   ArithOp
	L, R Expr
	T    row.Type
}

// Type implements Expr.
func (a *Arith) Type() row.Type { return a.T }

// String implements Expr.
func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, arithNames[a.Op], a.R)
}

// Eval implements Expr.
func (a *Arith) Eval(r row.Row) any {
	lv, rv := a.L.Eval(r), a.R.Eval(r)
	if lv == nil || rv == nil {
		return nil
	}
	if a.T == row.TInt {
		return intArith(a.Op, lv.(int64), rv.(int64))
	}
	lf, _ := row.AsFloat(lv)
	rf, _ := row.AsFloat(rv)
	return floatArith(a.Op, lf, rf)
}

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (a *Arith) Compile() EvalFn { return a.Eval }

func intArith(op ArithOp, a, b int64) any {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return nil
		}
		return a / b
	case Mod:
		if b == 0 {
			return nil
		}
		return a % b
	}
	panic("expr: bad arith op")
}

func floatArith(op ArithOp, a, b float64) any {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return nil
		}
		return a / b
	case Mod:
		if b == 0 {
			return nil
		}
		return math.Mod(a, b)
	}
	panic("expr: bad arith op")
}

// Neg is arithmetic negation.
type Neg struct {
	E Expr
	T row.Type
}

// Type implements Expr.
func (n *Neg) Type() row.Type { return n.T }

// String implements Expr.
func (n *Neg) String() string { return "-" + n.E.String() }

// Eval implements Expr.
func (n *Neg) Eval(r row.Row) any { return negate(n.E.Eval(r)) }

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (n *Neg) Compile() EvalFn { return n.Eval }

func negate(v any) any {
	switch x := v.(type) {
	case nil:
		return nil
	case int64:
		return -x
	case float64:
		return -x
	}
	panic(fmt.Sprintf("expr: cannot negate %T", v))
}

// ---------------------------------------------------------------------------

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var cmpNames = map[CmpOp]string{Eq: "=", Ne: "<>", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}

// Cmp compares two values; NULL on either side yields false.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Type implements Expr.
func (c *Cmp) Type() row.Type { return row.TBool }

// String implements Expr.
func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, cmpNames[c.Op], c.R)
}

// Eval implements Expr.
func (c *Cmp) Eval(r row.Row) any {
	lv, rv := c.L.Eval(r), c.R.Eval(r)
	if lv == nil || rv == nil {
		return false
	}
	d := row.Compare(lv, rv)
	switch c.Op {
	case Eq:
		return d == 0
	case Ne:
		return d != 0
	case Lt:
		return d < 0
	case Le:
		return d <= 0
	case Gt:
		return d > 0
	case Ge:
		return d >= 0
	}
	panic("expr: bad cmp op")
}

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (c *Cmp) Compile() EvalFn { return c.Eval }

// ---------------------------------------------------------------------------

// And is logical conjunction (short-circuit; NULL collapses to false).
type And struct{ L, R Expr }

// Type implements Expr.
func (*And) Type() row.Type { return row.TBool }

// String implements Expr.
func (a *And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Eval implements Expr.
func (a *And) Eval(r row.Row) any {
	return row.Truth(a.L.Eval(r)) && row.Truth(a.R.Eval(r))
}

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (a *And) Compile() EvalFn { return a.Eval }

// Or is logical disjunction.
type Or struct{ L, R Expr }

// Type implements Expr.
func (*Or) Type() row.Type { return row.TBool }

// String implements Expr.
func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Eval implements Expr.
func (o *Or) Eval(r row.Row) any {
	return row.Truth(o.L.Eval(r)) || row.Truth(o.R.Eval(r))
}

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (o *Or) Compile() EvalFn { return o.Eval }

// Not is logical negation.
type Not struct{ E Expr }

// Type implements Expr.
func (*Not) Type() row.Type { return row.TBool }

// String implements Expr.
func (n *Not) String() string { return "NOT " + n.E.String() }

// Eval implements Expr.
func (n *Not) Eval(r row.Row) any { return !row.Truth(n.E.Eval(r)) }

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (n *Not) Compile() EvalFn { return n.Eval }

// ---------------------------------------------------------------------------

// In tests membership in a literal set (fast map probe) or a general
// expression list.
type In struct {
	E      Expr
	Set    map[any]struct{} // non-nil when every element is a literal
	List   []Expr           // fallback
	Invert bool
}

// Type implements Expr.
func (*In) Type() row.Type { return row.TBool }

// String implements Expr.
func (i *In) String() string {
	if i.Invert {
		return fmt.Sprintf("%s NOT IN (...)", i.E)
	}
	return fmt.Sprintf("%s IN (...)", i.E)
}

// Eval implements Expr.
func (i *In) Eval(r row.Row) any {
	v := i.E.Eval(r)
	if v == nil {
		return false
	}
	if i.Set != nil {
		_, ok := i.Set[normalizeKey(v)]
		return ok != i.Invert
	}
	for _, item := range i.List {
		if iv := item.Eval(r); iv != nil && row.Compare(v, iv) == 0 {
			return !i.Invert
		}
	}
	return i.Invert
}

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (i *In) Compile() EvalFn { return i.Eval }

// normalizeKey folds integral floats to int64 so set probes agree with
// row.Compare semantics.
func normalizeKey(v any) any {
	if f, ok := v.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1e18 {
		return int64(f)
	}
	return v
}

// NewInSet builds the set used by In from literal values.
func NewInSet(values []any) map[any]struct{} {
	set := make(map[any]struct{}, len(values))
	for _, v := range values {
		if v != nil {
			set[normalizeKey(v)] = struct{}{}
		}
	}
	return set
}

// ---------------------------------------------------------------------------

// Like matches SQL LIKE patterns (compiled to a regexp once).
type Like struct {
	E       Expr
	Pattern string
	Invert  bool
	re      *regexp.Regexp
}

// NewLike compiles pattern.
func NewLike(e Expr, pattern string, invert bool) *Like {
	var b strings.Builder
	b.WriteString("^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return &Like{E: e, Pattern: pattern, Invert: invert, re: regexp.MustCompile(b.String())}
}

// Type implements Expr.
func (*Like) Type() row.Type { return row.TBool }

// String implements Expr.
func (l *Like) String() string {
	if l.Invert {
		return fmt.Sprintf("%s NOT LIKE '%s'", l.E, l.Pattern)
	}
	return fmt.Sprintf("%s LIKE '%s'", l.E, l.Pattern)
}

// Eval implements Expr.
func (l *Like) Eval(r row.Row) any {
	s, ok := l.E.Eval(r).(string)
	return ok && l.Match(s)
}

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (l *Like) Compile() EvalFn { return l.Eval }

// Match applies the predicate (pattern and inversion) to a non-NULL
// operand.
func (l *Like) Match(s string) bool { return l.re.MatchString(s) != l.Invert }

// ---------------------------------------------------------------------------

// IsNull tests for NULL.
type IsNull struct {
	E      Expr
	Invert bool // IS NOT NULL
}

// Type implements Expr.
func (*IsNull) Type() row.Type { return row.TBool }

// String implements Expr.
func (i *IsNull) String() string {
	if i.Invert {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// Eval implements Expr.
func (i *IsNull) Eval(r row.Row) any { return (i.E.Eval(r) == nil) != i.Invert }

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (i *IsNull) Compile() EvalFn { return i.Eval }

// ---------------------------------------------------------------------------

// When is one CASE branch.
type When struct{ Cond, Then Expr }

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // may be nil → NULL
	T     row.Type
}

// Type implements Expr.
func (c *Case) Type() row.Type { return c.T }

// String implements Expr.
func (c *Case) String() string { return "CASE..." }

// Eval implements Expr.
func (c *Case) Eval(r row.Row) any {
	for _, w := range c.Whens {
		if row.Truth(w.Cond.Eval(r)) {
			return w.Then.Eval(r)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(r)
	}
	return nil
}

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (c *Case) Compile() EvalFn { return c.Eval }

// ---------------------------------------------------------------------------

// Cast converts between scalar types.
type Cast struct {
	E  Expr
	To row.Type
}

// Type implements Expr.
func (c *Cast) Type() row.Type { return c.To }

// String implements Expr.
func (c *Cast) String() string { return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To) }

// Eval implements Expr.
func (c *Cast) Eval(r row.Row) any { return castValue(c.E.Eval(r), c.To) }

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (c *Cast) Compile() EvalFn { return c.Eval }

func castValue(v any, to row.Type) any {
	if v == nil {
		return nil
	}
	switch to {
	case row.TInt, row.TDate:
		switch x := v.(type) {
		case int64:
			return x
		case float64:
			return int64(x)
		case bool:
			if x {
				return int64(1)
			}
			return int64(0)
		case string:
			if iv, err := row.ParseValue(strings.TrimSpace(x), row.TInt); err == nil {
				return iv
			}
			return nil
		}
	case row.TFloat:
		switch x := v.(type) {
		case int64:
			return float64(x)
		case float64:
			return x
		case string:
			if fv, err := row.ParseValue(strings.TrimSpace(x), row.TFloat); err == nil {
				return fv
			}
			return nil
		}
	case row.TString:
		return row.FormatValue(v)
	case row.TBool:
		switch x := v.(type) {
		case bool:
			return x
		case int64:
			return x != 0
		}
	}
	return nil
}
