package exec

import (
	"math"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/rdd"
	"shark/internal/row"
)

// Expression kernels over a column batch (paper §3.2: a scan reads the
// memstore as primitive arrays). A scanTask binds each expression of a
// fused chain to the batches it reads — encodings are chosen per
// partition, so binding is too — into one of two forms:
//
//   - a filter (selFn) narrows a selection vector: the ascending window
//     positions of the rows still alive;
//   - a value (valFn) yields a columnar.Vec: the expression's results
//     at the selected positions, as a typed vector where the expression
//     has a typed kernel.
//
// Typed kernels exist for column references, numeric and string
// literals, arithmetic, negation and calls of built-ins that have a
// vector form (values; expr.UDF.Vec); comparisons, IN over a
// literal set, LIKE, IS [NOT] NULL, bare boolean columns and
// AND / OR / NOT over any filters (filters); and any call-free
// predicate over a single dictionary-encoded column, which is
// evaluated once per dictionary entry. Every other expression runs
// through the row adapter: expr's row-at-a-time evaluator, Eval,
// applied to a scratch row holding just the columns the expression
// reads. DisableExprCompile sends every expression this way and so
// doubles as the kernels' oracle.
//
// Semantics are the row evaluators': a comparison with NULL is false,
// arithmetic with NULL is NULL, integer % and any / by zero are NULL,
// mixed int/float operands compare and compute as float64, NOT of a
// false-because-NULL predicate is true.

// selFn returns the members of sel its predicate accepts, in order. It
// may overwrite sel's backing array, so callers pass a slice they own.
type selFn func(sel []int32) []int32

// valFn evaluates a value expression at the selected positions.
type valFn func(sel []int32) columnar.Vec

// scanTask is one task's state for reading batches — a cached
// partition's windows, or the batches an operator below hands on: the
// current batch, the source's column mapping, and the row adapter's
// scratch. Everything a task binds hangs off it, so kernels may keep
// per-task buffers without synchronization. Kernels read the current
// batch when they run; what they decide when bound (a column's type,
// its dictionary) holds until load says otherwise.
type scanTask struct {
	e    *Engine
	tc   *rdd.TaskContext
	b    *columnar.Batch
	cols []int // source position → batch column
	// scratch is the row the adapter evaluates against. Only the
	// positions an expression reads are filled before it runs.
	scratch row.Row
	// untilPoll counts adapter rows down to the next cancellation
	// poll: a per-row UDF may be arbitrarily slow, so the adapter polls
	// every rdd.CancelCheckRows rows where typed kernels poll per batch.
	untilPoll int
}

// load makes b the batch the kernels read and reports whether they
// must be bound (again): b is the task's first batch, or a column's
// type or dictionary differs from the batch they were bound to.
func (t *scanTask) load(b *columnar.Batch) bool {
	prev := t.b
	if t.b = b; prev == nil {
		return true
	}
	if prev == b {
		return false
	}
	for c := range b.Width() {
		if b.Type(c) != prev.Type(c) || b.Dict(c) != prev.Dict(c) {
			return true
		}
	}
	return false
}

// interpret is DisableExprCompile: no typed kernels at all, every
// expression through the row adapter.
func (t *scanTask) interpret() bool { return t.e.opts.DisableExprCompile }

// ---------------------------------------------------------------------------
// The row adapter

// rowExpr is an expression bound to the row adapter.
type rowExpr struct {
	fn   expr.EvalFn
	refs []int // scan positions the expression reads
}

func (t *scanTask) rowExpr(x expr.Expr) *rowExpr {
	return &rowExpr{fn: x.Eval, refs: expr.Cols(x)}
}

// evalAt evaluates x against window row i.
func (t *scanTask) evalAt(x *rowExpr, i int32) any {
	if t.untilPoll--; t.untilPoll < 0 {
		t.untilPoll = rdd.CancelCheckRows
		t.tc.FailIfCancelled()
	}
	for _, c := range x.refs {
		t.scratch[c] = t.b.Value(t.cols[c], int(i))
	}
	return x.fn(t.scratch)
}

func (t *scanTask) bindRowFilter(x expr.Expr) selFn {
	rx := t.rowExpr(x)
	return func(sel []int32) []int32 {
		return keepIf(sel, func(i int) bool { return row.Truth(t.evalAt(rx, int32(i))) })
	}
}

func (t *scanTask) bindRowValue(x expr.Expr) valFn {
	rx := t.rowExpr(x)
	out := make([]any, columnar.BatchSize)
	return func(sel []int32) columnar.Vec {
		for _, i := range sel {
			out[i] = t.evalAt(rx, i)
		}
		return columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: out}
	}
}

// ---------------------------------------------------------------------------
// Values

// bindValue binds a value expression: typed when it has a kernel, else
// through the row adapter.
func (t *scanTask) bindValue(x expr.Expr) valFn {
	if f, _ := t.bindTyped(x); f != nil {
		return f
	}
	return t.bindRowValue(x)
}

// bindTyped binds x to a typed kernel and reports the vector kind it
// yields; (nil, VecAny) when x has none.
func (t *scanTask) bindTyped(x expr.Expr) (valFn, columnar.VecKind) {
	if t.interpret() {
		return nil, columnar.VecAny
	}
	switch n := x.(type) {
	case *expr.Col:
		c := t.cols[n.Idx]
		switch t.b.Type(c) {
		case row.TInt, row.TDate:
			return func([]int32) columnar.Vec {
				return columnar.Vec{Kind: columnar.VecInt, Mask: -1, Ints: t.b.Ints(c), Nulls: t.b.Nulls(c)}
			}, columnar.VecInt
		case row.TFloat:
			return func([]int32) columnar.Vec {
				return columnar.Vec{Kind: columnar.VecFloat, Mask: -1, Floats: t.b.Floats(c), Nulls: t.b.Nulls(c)}
			}, columnar.VecFloat
		case row.TString:
			return func([]int32) columnar.Vec {
				return columnar.Vec{Kind: columnar.VecStr, Mask: -1, Strs: t.b.Strings(c), Nulls: t.b.Nulls(c)}
			}, columnar.VecStr
		}
	case *expr.Const:
		var lit columnar.Vec
		switch v := n.V.(type) {
		case int64:
			lit = columnar.Vec{Kind: columnar.VecInt, Ints: []int64{v}}
		case float64:
			lit = columnar.Vec{Kind: columnar.VecFloat, Floats: []float64{v}}
		case string:
			lit = columnar.Vec{Kind: columnar.VecStr, Strs: []string{v}}
		default:
			return nil, columnar.VecAny
		}
		return func([]int32) columnar.Vec { return lit }, lit.Kind
	case *expr.Neg:
		return t.bindNeg(n)
	case *expr.Arith:
		return t.bindArith(n)
	case *expr.Call:
		return t.bindCall(n)
	}
	return nil, columnar.VecAny
}

// bindCall binds a call to its function's vector form, when it has one
// for the kinds of vector the arguments yield; a user UDF, a built-in
// without one, or an argument that itself needs the row adapter sends
// the whole call there.
func (t *scanTask) bindCall(c *expr.Call) (valFn, columnar.VecKind) {
	if c.F.Vec == nil {
		return nil, columnar.VecAny
	}
	args := make([]valFn, len(c.Args))
	kinds := make([]columnar.VecKind, len(c.Args))
	for i, a := range c.Args {
		if args[i], kinds[i] = t.bindTyped(a); args[i] == nil {
			return nil, columnar.VecAny
		}
	}
	kernel, kind := c.F.Vec(kinds)
	if kernel == nil {
		return nil, columnar.VecAny
	}
	vecs := make([]columnar.Vec, len(args))
	return func(sel []int32) columnar.Vec {
		for i, a := range args {
			vecs[i] = a(sel)
		}
		return kernel(sel, vecs)
	}, kind
}

func (t *scanTask) bindNeg(n *expr.Neg) (valFn, columnar.VecKind) {
	in, kind := t.bindTyped(n.E)
	switch kind {
	case columnar.VecInt:
		out := make([]int64, columnar.BatchSize)
		return func(sel []int32) columnar.Vec {
			v := in(sel)
			negate(sel, v.Ints, v.Mask, out)
			return columnar.Vec{Kind: columnar.VecInt, Mask: -1, Ints: out, Nulls: v.Nulls}
		}, columnar.VecInt
	case columnar.VecFloat:
		out := make([]float64, columnar.BatchSize)
		return func(sel []int32) columnar.Vec {
			v := in(sel)
			negate(sel, v.Floats, v.Mask, out)
			return columnar.Vec{Kind: columnar.VecFloat, Mask: -1, Floats: out, Nulls: v.Nulls}
		}, columnar.VecFloat
	}
	return nil, columnar.VecAny
}

func negate[T int64 | float64](sel []int32, x []T, xm int32, out []T) {
	for _, i := range sel {
		out[i] = -x[i&xm]
	}
}

// bindArith follows expr.Arith: int64 arithmetic when the analyzer
// typed the node TInt (both operands are then int64-valued), float64
// otherwise with int operands promoted.
func (t *scanTask) bindArith(a *expr.Arith) (valFn, columnar.VecKind) {
	l, lk := t.bindTyped(a.L)
	r, rk := t.bindTyped(a.R)
	numeric := func(k columnar.VecKind) bool { return k == columnar.VecInt || k == columnar.VecFloat }
	if !numeric(lk) || !numeric(rk) {
		return nil, columnar.VecAny
	}
	nulls := make(columnar.Bitmap, columnar.BatchSize/64)
	if a.T == row.TInt {
		if lk != columnar.VecInt || rk != columnar.VecInt {
			return nil, columnar.VecAny
		}
		out := make([]int64, columnar.BatchSize)
		return func(sel []int32) columnar.Vec {
			lv, rv := l(sel), r(sel)
			nulls := arith(a.Op, sel, lv.Ints, lv.Mask, rv.Ints, rv.Mask, out,
				unionNulls(nulls, lv.Nulls, rv.Nulls), nulls, func(x, y int64) int64 { return x % y })
			return columnar.Vec{Kind: columnar.VecInt, Mask: -1, Ints: out, Nulls: nulls}
		}, columnar.VecInt
	}
	out := make([]float64, columnar.BatchSize)
	l, r = asFloat(l, lk), asFloat(r, rk)
	return func(sel []int32) columnar.Vec {
		lv, rv := l(sel), r(sel)
		nulls := arith(a.Op, sel, lv.Floats, lv.Mask, rv.Floats, rv.Mask, out,
			unionNulls(nulls, lv.Nulls, rv.Nulls), nulls, math.Mod)
		return columnar.Vec{Kind: columnar.VecFloat, Mask: -1, Floats: out, Nulls: nulls}
	}, columnar.VecFloat
}

// arith computes out = x op y at the selected positions and returns the
// result's NULLs: inNulls (the operands' union), or — for / and %,
// which are NULL where the divisor is zero — buf with those positions
// added. buf is where unionNulls built inNulls, or all clear.
func arith[T int64 | float64](op expr.ArithOp, sel []int32, x []T, xm int32, y []T, ym int32, out []T, inNulls, buf columnar.Bitmap, mod func(x, y T) T) columnar.Bitmap {
	switch op {
	case expr.Add:
		for _, i := range sel {
			out[i] = x[i&xm] + y[i&ym]
		}
	case expr.Sub:
		for _, i := range sel {
			out[i] = x[i&xm] - y[i&ym]
		}
	case expr.Mul:
		for _, i := range sel {
			out[i] = x[i&xm] * y[i&ym]
		}
	case expr.Div, expr.Mod:
		for _, i := range sel {
			switch d := y[i&ym]; {
			case d == 0:
				buf.Set(int(i))
			case op == expr.Div:
				out[i] = x[i&xm] / d
			default:
				out[i] = mod(x[i&xm], d)
			}
		}
		return buf
	}
	return inNulls
}

// unionNulls writes a|b into buf. It returns nil — leaving buf all
// clear for a kernel that sets bits of its own — when neither input
// has NULLs.
func unionNulls(buf, a, b columnar.Bitmap) columnar.Bitmap {
	clear(buf)
	if a == nil && b == nil {
		return nil
	}
	for w := range a {
		buf[w] = a[w]
	}
	for w := range b {
		buf[w] |= b[w]
	}
	return buf
}

// asFloat promotes an int64-valued kernel to float64, as the row
// evaluators do for a mixed operand pair; float kernels pass through.
func asFloat(f valFn, kind columnar.VecKind) valFn {
	if kind == columnar.VecFloat {
		return f
	}
	var buf []float64
	return func(sel []int32) columnar.Vec {
		v := f(sel)
		if len(buf) < len(v.Ints) { // a literal's one value, or a window's
			buf = make([]float64, len(v.Ints))
		}
		if v.Mask == 0 {
			buf[0] = float64(v.Ints[0])
		} else {
			for _, i := range sel {
				buf[i] = float64(v.Ints[i])
			}
		}
		return columnar.Vec{Kind: columnar.VecFloat, Mask: v.Mask, Floats: buf, Nulls: v.Nulls}
	}
}

// ---------------------------------------------------------------------------
// Filters

// bindFilter binds a predicate; a row passes when the predicate is
// true (row.Truth: NULL and non-boolean values are false).
func (t *scanTask) bindFilter(x expr.Expr) selFn {
	if t.interpret() {
		return t.bindRowFilter(x)
	}
	if f := t.bindDictFilter(x); f != nil {
		return f
	}
	var f selFn
	switch n := x.(type) {
	case *expr.And:
		l, r := t.bindFilter(n.L), t.bindFilter(n.R)
		f = func(sel []int32) []int32 { return r(l(sel)) }
	case *expr.Or:
		l, r := t.bindFilter(n.L), t.bindFilter(n.R)
		lbuf, rbuf := make([]int32, columnar.BatchSize), make([]int32, columnar.BatchSize)
		f = func(sel []int32) []int32 {
			// R sees only rows L rejected, as short-circuit OR does.
			lsel := l(append(lbuf[:0], sel...))
			rsel := r(without(rbuf[:0], sel, lsel))
			return union(sel[:0], lsel, rsel)
		}
	case *expr.Not:
		in := t.bindFilter(n.E)
		buf := make([]int32, columnar.BatchSize)
		f = func(sel []int32) []int32 {
			return without(sel[:0], sel, in(append(buf[:0], sel...)))
		}
	case *expr.IsNull:
		if col, ok := n.E.(*expr.Col); ok && t.b.Type(t.cols[col.Idx]) != row.TNull {
			c, wantNull := t.cols[col.Idx], !n.Invert
			f = func(sel []int32) []int32 {
				nulls := t.b.Nulls(c)
				return keepIf(sel, func(i int) bool { return nulls.Has(i) == wantNull })
			}
		}
	case *expr.Col:
		if c := t.cols[n.Idx]; t.b.Type(c) == row.TBool {
			f = func(sel []int32) []int32 {
				vals, nulls := t.b.Bools(c), t.b.Nulls(c)
				return keepIf(sel, func(i int) bool { return vals.Has(i) && !nulls.Has(i) })
			}
		}
	case *expr.Cmp:
		f = t.bindCmp(n)
	case *expr.In:
		f = t.bindIn(n)
	case *expr.Like:
		if in, kind := t.bindTyped(n.E); kind == columnar.VecStr {
			f = func(sel []int32) []int32 {
				v := in(sel)
				return keepIf(sel, func(i int) bool { return !v.Nulls.Has(i) && n.Match(v.Strs[int32(i)&v.Mask]) })
			}
		}
	}
	if f == nil {
		f = t.bindRowFilter(x)
	}
	return f
}

// keepIf narrows sel in place to the positions pass accepts.
func keepIf(sel []int32, pass func(i int) bool) []int32 {
	out := sel[:0]
	for _, i := range sel {
		if pass(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// without appends to dst the members of a that are not in b; both are
// ascending and b ⊆ a. dst may be a[:0].
func without(dst, a, b []int32) []int32 {
	for _, i := range a {
		if len(b) > 0 && b[0] == i {
			b = b[1:]
			continue
		}
		dst = append(dst, i)
	}
	return dst
}

// union merges two disjoint ascending selections into dst.
func union(dst, a, b []int32) []int32 {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// bindDictFilter evaluates a predicate over a dictionary-encoded
// column once per dictionary entry (and once for NULL) instead of once
// per row: it applies to any predicate that reads exactly one column,
// when this partition dictionary-encoded that column, and that calls
// no function (a UDF may be stateful or slow on purpose; it runs per
// row as written).
func (t *scanTask) bindDictFilter(x expr.Expr) selFn {
	refs := expr.Cols(x)
	if len(refs) != 1 || containsCall(x) {
		return nil
	}
	ref := refs[0]
	c := t.cols[ref]
	d := t.b.Dict(c)
	if d == nil {
		return nil
	}
	fn := x.Eval
	pass := make([]bool, d.DictLen())
	for code := range pass {
		t.scratch[ref] = d.DictValue(code)
		pass[code] = row.Truth(fn(t.scratch))
	}
	t.scratch[ref] = nil
	nullPass := row.Truth(fn(t.scratch))
	return func(sel []int32) []int32 {
		codes, nulls := t.b.Codes(c), t.b.Nulls(c)
		return keepIf(sel, func(i int) bool {
			if nulls.Has(i) {
				return nullPass
			}
			return pass[codes[i]]
		})
	}
}

// cmpKeep says, for each outcome of a three-way comparison (less,
// equal, greater), whether op accepts it.
func cmpKeep(op expr.CmpOp) [3]bool {
	switch op {
	case expr.Eq:
		return [3]bool{false, true, false}
	case expr.Ne:
		return [3]bool{true, false, true}
	case expr.Lt:
		return [3]bool{true, false, false}
	case expr.Le:
		return [3]bool{true, true, false}
	case expr.Gt:
		return [3]bool{false, false, true}
	case expr.Ge:
		return [3]bool{false, true, true}
	}
	panic("exec: bad cmp op")
}

// bindCmp compares two typed operands of one family — int64 with
// int64 (DATE included), numeric with numeric as float64 (so a float
// literal is never truncated against an int column), string with
// string bytewise — as row.Compare orders them.
func (t *scanTask) bindCmp(c *expr.Cmp) selFn {
	l, lk := t.bindTyped(c.L)
	r, rk := t.bindTyped(c.R)
	if l == nil || r == nil {
		return nil
	}
	keep := cmpKeep(c.Op)
	switch {
	case lk == columnar.VecInt && rk == columnar.VecInt:
		return func(sel []int32) []int32 {
			lv, rv := l(sel), r(sel)
			return cmpSel(sel, lv.Ints, lv.Mask, rv.Ints, rv.Mask, lv.Nulls, rv.Nulls, keep)
		}
	case lk == columnar.VecStr && rk == columnar.VecStr:
		return func(sel []int32) []int32 {
			lv, rv := l(sel), r(sel)
			return cmpSel(sel, lv.Strs, lv.Mask, rv.Strs, rv.Mask, lv.Nulls, rv.Nulls, keep)
		}
	case lk == columnar.VecStr || rk == columnar.VecStr:
		return nil
	}
	l, r = asFloat(l, lk), asFloat(r, rk)
	return func(sel []int32) []int32 {
		lv, rv := l(sel), r(sel)
		return cmpSel(sel, lv.Floats, lv.Mask, rv.Floats, rv.Mask, lv.Nulls, rv.Nulls, keep)
	}
}

func cmpSel[T int64 | float64 | string](sel []int32, x []T, xm int32, y []T, ym int32, xn, yn columnar.Bitmap, keep [3]bool) []int32 {
	out := sel[:0]
	for _, i := range sel {
		if xn.Has(int(i)) || yn.Has(int(i)) {
			continue
		}
		a, b := x[i&xm], y[i&ym]
		c := 1
		if a < b {
			c = 0
		} else if a > b {
			c = 2
		}
		if keep[c] {
			out = append(out, i)
		}
	}
	return out
}

// bindIn probes a literal set with typed keys. expr.In normalizes
// integral float literals to int64 when it builds the set, so an int64
// operand can only ever equal the set's int64 members.
func (t *scanTask) bindIn(n *expr.In) selFn {
	if n.Set == nil {
		return nil
	}
	in, kind := t.bindTyped(n.E)
	switch kind {
	case columnar.VecInt:
		set := make(map[int64]struct{}, len(n.Set))
		for k := range n.Set {
			if x, ok := k.(int64); ok {
				set[x] = struct{}{}
			}
		}
		return func(sel []int32) []int32 {
			v := in(sel)
			return inSel(sel, v.Ints, v.Mask, v.Nulls, set, n.Invert)
		}
	case columnar.VecStr:
		set := make(map[string]struct{}, len(n.Set))
		for k := range n.Set {
			if x, ok := k.(string); ok {
				set[x] = struct{}{}
			}
		}
		return func(sel []int32) []int32 {
			v := in(sel)
			return inSel(sel, v.Strs, v.Mask, v.Nulls, set, n.Invert)
		}
	}
	return nil
}

func inSel[T int64 | string](sel []int32, x []T, xm int32, nulls columnar.Bitmap, set map[T]struct{}, invert bool) []int32 {
	out := sel[:0]
	for _, i := range sel {
		if nulls.Has(int(i)) {
			continue
		}
		if _, ok := set[x[i&xm]]; ok != invert {
			out = append(out, i)
		}
	}
	return out
}
