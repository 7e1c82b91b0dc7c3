// Package expr implements typed, analyzed expressions and their
// evaluation. Every expression supports two execution modes:
//
//   - Compile() returns a closure tree evaluated without re-walking
//     the AST — the Go analog of Shark's plan to compile Hive's
//     interpreted expression evaluators to JVM bytecode (§5).
//   - Eval() interprets the tree node by node; it exists for the
//     ablation benchmark comparing the two.
//
// NULL semantics follow Hive's practical behaviour: arithmetic over
// NULL yields NULL; comparisons and predicates over NULL yield false
// (UNKNOWN collapses to false at the filter boundary).
package expr

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"shark/internal/row"
)

// EvalFn is a compiled expression evaluator.
type EvalFn func(row.Row) any

// Expr is an analyzed, typed expression.
type Expr interface {
	// Type returns the static result type.
	Type() row.Type
	// Eval interprets the node against a row (slow path).
	Eval(r row.Row) any
	// Compile builds the closure-tree evaluator (fast path).
	Compile() EvalFn
	// String renders for EXPLAIN output.
	String() string
}

// Walk calls visit on e and every expression below it, parents first.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	switch n := e.(type) {
	case *Arith:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *Neg:
		Walk(n.E, visit)
	case *Cmp:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *And:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *Or:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *Not:
		Walk(n.E, visit)
	case *In:
		Walk(n.E, visit)
		for _, item := range n.List {
			Walk(item, visit)
		}
	case *Like:
		Walk(n.E, visit)
	case *IsNull:
		Walk(n.E, visit)
	case *Case:
		for _, w := range n.Whens {
			Walk(w.Cond, visit)
			Walk(w.Then, visit)
		}
		if n.Else != nil {
			Walk(n.Else, visit)
		}
	case *Cast:
		Walk(n.E, visit)
	case *Call:
		for _, a := range n.Args {
			Walk(a, visit)
		}
	}
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

// Compile implements Expr.
func (c *Col) Compile() EvalFn {
	idx := c.Idx
	return func(r row.Row) any { return r[idx] }
}

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

// Compile implements Expr.
func (c *Const) Compile() EvalFn {
	v := c.V
	return func(row.Row) any { return v }
}

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
	return applyArith(a.Op, a.T, a.L.Eval(r), a.R.Eval(r))
}

// Compile implements Expr.
func (a *Arith) Compile() EvalFn {
	l, rr := a.L.Compile(), a.R.Compile()
	op, t := a.Op, a.T
	if t == row.TInt {
		return func(r row.Row) any {
			lv, rv := l(r), rr(r)
			if lv == nil || rv == nil {
				return nil
			}
			return intArith(op, lv.(int64), rv.(int64))
		}
	}
	return func(r row.Row) any {
		lv, rv := l(r), rr(r)
		if lv == nil || rv == nil {
			return nil
		}
		lf, _ := row.AsFloat(lv)
		rf, _ := row.AsFloat(rv)
		return floatArith(op, lf, rf)
	}
}

func applyArith(op ArithOp, t row.Type, lv, rv any) any {
	if lv == nil || rv == nil {
		return nil
	}
	if t == row.TInt {
		return intArith(op, lv.(int64), rv.(int64))
	}
	lf, _ := row.AsFloat(lv)
	rf, _ := row.AsFloat(rv)
	return floatArith(op, lf, rf)
}

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

// Compile implements Expr.
func (n *Neg) Compile() EvalFn {
	e := n.E.Compile()
	return func(r row.Row) any { return negate(e(r)) }
}

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
	return applyCmp(c.Op, c.L.Eval(r), c.R.Eval(r))
}

// Compile implements Expr.
func (c *Cmp) Compile() EvalFn {
	l, rr := c.L.Compile(), c.R.Compile()
	op := c.Op
	// Fast path: both sides statically integer.
	if c.L.Type() == row.TInt && c.R.Type() == row.TInt ||
		c.L.Type() == row.TDate && c.R.Type() == row.TDate ||
		c.L.Type() == row.TDate && c.R.Type() == row.TInt ||
		c.L.Type() == row.TInt && c.R.Type() == row.TDate {
		return func(r row.Row) any {
			lv, rv := l(r), rr(r)
			if lv == nil || rv == nil {
				return false
			}
			return intCmp(op, lv.(int64), rv.(int64))
		}
	}
	return func(r row.Row) any { return applyCmp(op, l(r), rr(r)) }
}

func intCmp(op CmpOp, a, b int64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	panic("expr: bad cmp op")
}

func applyCmp(op CmpOp, lv, rv any) bool {
	if lv == nil || rv == nil {
		return false
	}
	c := row.Compare(lv, rv)
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	panic("expr: bad cmp op")
}

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

// Compile implements Expr.
func (a *And) Compile() EvalFn {
	l, rr := a.L.Compile(), a.R.Compile()
	return func(r row.Row) any { return row.Truth(l(r)) && row.Truth(rr(r)) }
}

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

// Compile implements Expr.
func (o *Or) Compile() EvalFn {
	l, rr := o.L.Compile(), o.R.Compile()
	return func(r row.Row) any { return row.Truth(l(r)) || row.Truth(rr(r)) }
}

// Not is logical negation.
type Not struct{ E Expr }

// Type implements Expr.
func (*Not) Type() row.Type { return row.TBool }

// String implements Expr.
func (n *Not) String() string { return "NOT " + n.E.String() }

// Eval implements Expr.
func (n *Not) Eval(r row.Row) any { return !row.Truth(n.E.Eval(r)) }

// Compile implements Expr.
func (n *Not) Compile() EvalFn {
	e := n.E.Compile()
	return func(r row.Row) any { return !row.Truth(e(r)) }
}

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
func (i *In) Eval(r row.Row) any { return i.Compile()(r) }

// Compile implements Expr.
func (i *In) Compile() EvalFn {
	e := i.E.Compile()
	inv := i.Invert
	if i.Set != nil {
		set := i.Set
		return func(r row.Row) any {
			v := e(r)
			if v == nil {
				return false
			}
			v = normalizeKey(v)
			_, ok := set[v]
			return ok != inv
		}
	}
	items := make([]EvalFn, len(i.List))
	for j, it := range i.List {
		items[j] = it.Compile()
	}
	return func(r row.Row) any {
		v := e(r)
		if v == nil {
			return false
		}
		for _, f := range items {
			if iv := f(r); iv != nil && row.Compare(v, iv) == 0 {
				return !inv
			}
		}
		return inv
	}
}

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
func (l *Like) Eval(r row.Row) any { return l.Compile()(r) }

// Compile implements Expr.
func (l *Like) Compile() EvalFn {
	e := l.E.Compile()
	return func(r row.Row) any {
		s, ok := e(r).(string)
		return ok && l.Match(s)
	}
}

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

// Compile implements Expr.
func (i *IsNull) Compile() EvalFn {
	e := i.E.Compile()
	inv := i.Invert
	return func(r row.Row) any { return (e(r) == nil) != inv }
}

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

// Compile implements Expr.
func (c *Case) Compile() EvalFn {
	type branch struct{ cond, then EvalFn }
	branches := make([]branch, len(c.Whens))
	for i, w := range c.Whens {
		branches[i] = branch{w.Cond.Compile(), w.Then.Compile()}
	}
	var els EvalFn
	if c.Else != nil {
		els = c.Else.Compile()
	}
	return func(r row.Row) any {
		for _, b := range branches {
			if row.Truth(b.cond(r)) {
				return b.then(r)
			}
		}
		if els != nil {
			return els(r)
		}
		return nil
	}
}

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

// Compile implements Expr.
func (c *Cast) Compile() EvalFn {
	e := c.E.Compile()
	to := c.To
	return func(r row.Row) any { return castValue(e(r), to) }
}

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
