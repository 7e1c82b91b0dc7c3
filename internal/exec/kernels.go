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
//     at the selected positions.
//
// Every expression has a kernel. Values are typed vectors (BIGINT and
// DATE, DOUBLE, STRING) for column references, literals, arithmetic,
// negation, CAST and the scalar built-ins (expr.UDF.Vec: each derived,
// with the row form Eval calls, from one definition over typed values);
// CASE, IF and COALESCE evaluate each branch only at the rows that
// take it, typed when the branches are of one kind. A boolean is a
// boxed vector (VecAny) of true, false and NULL: a bool column, or a
// predicate's filter read as a value. Filters cover comparisons, IN,
// LIKE, IS [NOT] NULL, bare boolean columns and AND / OR / NOT, and
// any call-free predicate over a single dictionary-encoded column is
// evaluated once per dictionary entry.
//
// The row adapter (bindBoxed) is what is left: a node with no kernel
// for its operands' kinds runs its row form (expr.Boxed) on each row's
// boxed operand values. It serves user UDFs without UDF.Vec — the
// black boxes of §3.1 — and an operand that is itself boxed: a
// boolean, or such a UDF's result.
//
// Semantics are the row evaluators': a comparison with NULL is false,
// arithmetic with NULL is NULL, integer % and any / by zero are NULL,
// mixed int/float operands compare and compute as float64, NOT of a
// false-because-NULL predicate is true. expr's Eval is the oracle every
// kernel is tested against.

// selFn returns the members of sel its predicate accepts, in order. It
// may overwrite sel's backing array, so callers pass a slice they own.
type selFn func(sel []int32) []int32

// valFn evaluates a value expression at the selected positions. It
// does not write sel.
type valFn func(sel []int32) columnar.Vec

// scanTask is one task's state for reading batches — a cached
// partition's windows, or the batches an operator below hands on: the
// current batch and the source's column mapping. Everything a task
// binds hangs off it, so kernels may keep per-task buffers without
// synchronization. Kernels read the current batch when they run; what
// they decide when bound (a column's type, its dictionary) holds until
// load says otherwise.
type scanTask struct {
	e    *Engine
	tc   *rdd.TaskContext
	b    *columnar.Batch
	cols []int // source position → batch column
	// scratch is the row a dictionary filter evaluates its predicate
	// against, once per dictionary entry.
	scratch row.Row
	// rows is the longest window the kernels are bound for: they size
	// their buffers to it, and load has them bound again for a longer
	// one.
	rows int
	// untilPoll counts adapter rows down to the next cancellation
	// poll: a per-row UDF may be arbitrarily slow, so the adapter polls
	// every rdd.CancelCheckRows rows where typed kernels poll per batch.
	untilPoll int
}

// load makes b the batch the kernels read and reports whether they
// must be bound (again): b is the task's first batch, its window is
// longer than they were bound for, or a column's type or dictionary
// differs from the batch they were bound to.
func (t *scanTask) load(b *columnar.Batch) bool {
	prev := t.b
	if t.b = b; prev == nil || b.Len() > t.rows {
		t.rows = max(t.rows, b.Len())
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

// ---------------------------------------------------------------------------
// Values

// bindValue binds a value expression.
func (t *scanTask) bindValue(x expr.Expr) valFn {
	f, _ := t.bind(x)
	return f
}

// bind binds a value expression and reports the kind of vector it
// yields.
func (t *scanTask) bind(x expr.Expr) (valFn, columnar.VecKind) {
	switch n := x.(type) {
	case *expr.Col:
		return t.bindCol(t.cols[n.Idx])
	case *expr.Const:
		lit := literal(n.V)
		return func([]int32) columnar.Vec { return lit }, lit.Kind
	case *expr.Neg:
		return t.bindVec(n, n.Vec, n.E)
	case *expr.Arith:
		return t.bindArith(n)
	case *expr.Cast:
		return t.bindVec(n, n.Vec, n.E)
	case *expr.Case:
		return t.bindCase(n)
	case *expr.Call:
		return t.bindCall(n)
	}
	return t.bindBool(x), columnar.VecAny // a predicate
}

// bindCol reads column c's window: typed where the column is, a bool
// column boxed.
func (t *scanTask) bindCol(c int) (valFn, columnar.VecKind) {
	kinds := map[row.Type]columnar.VecKind{row.TInt: columnar.VecInt, row.TDate: columnar.VecInt,
		row.TFloat: columnar.VecFloat, row.TString: columnar.VecStr}
	return func([]int32) columnar.Vec { return t.b.Vec(c) }, kinds[t.b.Type(c)]
}

// null is the NULL literal: a BIGINT NULL at every window position.
var null = func() columnar.Vec {
	v := columnar.Vec{Kind: columnar.VecInt, Owned: true, Ints: []int64{0}, Nulls: make(columnar.Bitmap, columnar.BatchSize/64)}
	for w := range v.Nulls {
		v.Nulls[w] = ^uint64(0)
	}
	return v
}()

// literal is a constant's vector: one value (Mask 0) for a number or a
// string, which shares no partition's bytes. NULL is a BIGINT NULL at
// every position, which any typed kernel reads as NULL, and a boolean
// is boxed over the whole window.
func literal(v any) columnar.Vec {
	switch x := v.(type) {
	case int64:
		return columnar.Vec{Kind: columnar.VecInt, Ints: []int64{x}}
	case float64:
		return columnar.Vec{Kind: columnar.VecFloat, Floats: []float64{x}}
	case string:
		return columnar.Vec{Kind: columnar.VecStr, Owned: true, Strs: []string{x}}
	case nil:
		return null
	}
	anys := make([]any, columnar.BatchSize)
	for i := range anys {
		anys[i] = v
	}
	return columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: anys}
}

// bindBool binds a predicate as a value: its filter's verdict at each
// row, boxed (a predicate is never NULL).
func (t *scanTask) bindBool(x expr.Expr) valFn {
	f := t.bindFilter(x)
	out, buf := make([]any, t.rows), make([]int32, t.rows)
	return func(sel []int32) columnar.Vec {
		pass := f(append(buf[:0], sel...))
		for _, i := range sel {
			hit := len(pass) > 0 && pass[0] == i
			if hit {
				pass = pass[1:]
			}
			out[i] = hit
		}
		return columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: out}
	}
}

// apply runs a function's kernel over its arguments' kernels.
func apply(kernel columnar.VecFn, args ...valFn) valFn {
	vecs := make([]columnar.Vec, len(args))
	return func(sel []int32) columnar.Vec {
		for i, a := range args {
			vecs[i] = a(sel)
		}
		return kernel(sel, vecs)
	}
}

// bindCall binds a call to its function's vector form, or else to the
// row adapter. IF and COALESCE are conditionals, bound as CASE is.
func (t *scanTask) bindCall(c *expr.Call) (valFn, columnar.VecKind) {
	switch c.F {
	case expr.If:
		return t.bindChoice(t.branch(t.bindFilter(c.Args[0]), c.Args[1]), t.branch(all, c.Args[2]))
	case expr.Coalesce:
		var bs []branch
		for _, a := range c.Args {
			bs = append(bs, t.branch(nil, a))
		}
		return t.bindChoice(bs...)
	}
	return t.bindVec(c, c.F.Vec, c.Args...)
}

// bindVec binds x to its vector form vec for the kinds of vector its
// operands yield or, when vec is nil or has none for them, to the row
// adapter.
func (t *scanTask) bindVec(x expr.Expr, vec func([]columnar.VecKind) (columnar.VecFn, columnar.VecKind), operands ...expr.Expr) (valFn, columnar.VecKind) {
	args := make([]valFn, len(operands))
	kinds := make([]columnar.VecKind, len(operands))
	for i, a := range operands {
		args[i], kinds[i] = t.bind(a)
	}
	if vec != nil {
		if kernel, kind := vec(kinds); kernel != nil {
			return apply(kernel, args...), kind
		}
	}
	return t.bindBoxed(x, args...), columnar.VecAny
}

// bindBoxed is the row adapter: x's row form (expr.Boxed) applied at
// each selected row to the boxed values of its operands' kernels, the
// first of which the caller has bound.
func (t *scanTask) bindBoxed(x expr.Expr, bound ...valFn) valFn {
	operands, fn := expr.Boxed(x)
	args := bound
	for _, o := range operands[len(bound):] {
		args = append(args, t.bindValue(o))
	}
	vals, out := make([]any, len(args)), make([]any, t.rows)
	return apply(func(sel []int32, vecs []columnar.Vec) columnar.Vec {
		for _, i := range sel {
			if t.untilPoll--; t.untilPoll < 0 {
				t.untilPoll = rdd.CancelCheckRows
				t.tc.FailIfCancelled()
			}
			for k := range vecs {
				vals[k] = vecs[k].At(i)
			}
			out[i] = fn(vals)
		}
		return columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: out}
	}, args...)
}

// branch is one way a conditional returns a value: val at the rows
// cond passes or, with no cond, at the rows where val is not NULL.
type branch struct {
	cond selFn
	val  valFn
	kind columnar.VecKind
	null bool // the value is the NULL literal, of no kind
}

func (t *scanTask) branch(cond selFn, x expr.Expr) branch {
	val, kind := t.bind(x)
	c, ok := x.(*expr.Const)
	return branch{cond: cond, val: val, kind: kind, null: ok && c.V == nil}
}

// all is the filter of an ELSE: every row.
func all(sel []int32) []int32 { return sel }

func (t *scanTask) bindCase(c *expr.Case) (valFn, columnar.VecKind) {
	bs := make([]branch, 0, len(c.Whens)+1)
	for _, w := range c.Whens {
		bs = append(bs, t.branch(t.bindFilter(w.Cond), w.Then))
	}
	if c.Else != nil {
		bs = append(bs, t.branch(all, c.Else))
	}
	return t.bindChoice(bs...)
}

// bindChoice binds a conditional: the first branch that takes a row
// gives its value, and a row none takes is NULL. A branch's value is
// computed only at the rows still left to it, as the row evaluator
// evaluates only the branch it returns. The result is typed when every
// branch's value is of one kind, and boxed otherwise.
func (t *scanTask) bindChoice(bs ...branch) (valFn, columnar.VecKind) {
	kind, first := columnar.VecAny, true
	for _, b := range bs {
		if !b.null && first {
			kind, first = b.kind, false
		} else if !b.null && b.kind != kind {
			kind = columnar.VecAny
		}
	}
	out := columnar.Vec{Kind: kind, Mask: -1, Nulls: make(columnar.Bitmap, (t.rows+63)/64)}
	switch kind {
	case columnar.VecInt:
		out.Ints = make([]int64, t.rows)
	case columnar.VecFloat:
		out.Floats = make([]float64, t.rows)
	case columnar.VecStr:
		out.Strs = make([]string, t.rows)
	default:
		out.Anys = make([]any, t.rows)
	}
	var restBuf, hitBuf []int32
	return func(sel []int32) columnar.Vec {
		clear(out.Nulls)
		out.Owned = true
		restBuf = append(restBuf[:0], sel...)
		rest := restBuf
		for _, b := range bs {
			if len(rest) == 0 {
				break
			}
			var hit []int32
			var v columnar.Vec
			if b.cond != nil {
				hitBuf = append(hitBuf[:0], rest...)
				hit = b.cond(hitBuf)
				v = b.val(hit)
			} else {
				v = b.val(rest)
				hitBuf = append(hitBuf[:0], rest...)
				hit = keepIf(hitBuf, func(i int) bool { return !v.Null(int32(i)) })
			}
			scatter(&out, &v, hit)
			rest = without(rest[:0], rest, hit)
		}
		scatter(&out, &null, rest)
		return out
	}, kind
}

// scatter copies src's values at window positions sel into v at the
// same positions: boxed when v is VecAny, else of v's kind. v's strings
// are owned only while every source's are.
func scatter(v, src *columnar.Vec, sel []int32) {
	v.Owned = v.Owned && src.Owned
	for _, i := range sel {
		switch m := src.Mask; {
		case v.Kind == columnar.VecAny:
			v.Anys[i] = src.At(i)
		case src.Nulls.Has(int(i)):
			v.Nulls.Set(int(i))
		case v.Kind == columnar.VecInt:
			v.Ints[i] = src.Ints[i&m]
		case v.Kind == columnar.VecFloat:
			v.Floats[i] = src.Floats[i&m]
		default:
			v.Strs[i] = src.Strs[i&m]
		}
	}
}

// bindArith follows expr.Arith: int64 arithmetic when the analyzer
// typed the node TInt (both operands are then int64-valued), float64
// otherwise with int operands promoted.
func (t *scanTask) bindArith(a *expr.Arith) (valFn, columnar.VecKind) {
	l, lk := t.bind(a.L)
	r, rk := t.bind(a.R)
	numeric := func(k columnar.VecKind) bool { return k == columnar.VecInt || k == columnar.VecFloat }
	if !numeric(lk) || !numeric(rk) || a.T == row.TInt && (lk != columnar.VecInt || rk != columnar.VecInt) {
		return t.bindBoxed(a, l, r), columnar.VecAny
	}
	nulls := make(columnar.Bitmap, (t.rows+63)/64)
	if a.T == row.TInt {
		out := make([]int64, t.rows)
		return func(sel []int32) columnar.Vec {
			lv, rv := l(sel), r(sel)
			nulls := arith(a.Op, sel, lv.Ints, lv.Mask, rv.Ints, rv.Mask, out,
				unionNulls(nulls, lv.Nulls, rv.Nulls), nulls, func(x, y int64) int64 { return x % y })
			return columnar.Vec{Kind: columnar.VecInt, Mask: -1, Ints: out, Nulls: nulls}
		}, columnar.VecInt
	}
	out := make([]float64, t.rows)
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

// unionNulls writes a|b into buf, which covers the window. It returns
// nil — leaving buf all clear for a kernel that sets bits of its own —
// when neither input has NULLs. An input may be longer than buf (a
// built-in's result and the NULL literal cover a whole batch): its
// words past the window are not read.
func unionNulls(buf, a, b columnar.Bitmap) columnar.Bitmap {
	clear(buf)
	if a == nil && b == nil {
		return nil
	}
	copy(buf, a)
	for w, x := range b[:min(len(b), len(buf))] {
		buf[w] |= x
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
		lbuf, rbuf := make([]int32, t.rows), make([]int32, t.rows)
		f = func(sel []int32) []int32 {
			// R sees only rows L rejected, as short-circuit OR does.
			lsel := l(append(lbuf[:0], sel...))
			rsel := r(without(rbuf[:0], sel, lsel))
			return union(sel[:0], lsel, rsel)
		}
	case *expr.Not:
		in := t.bindFilter(n.E)
		buf := make([]int32, t.rows)
		f = func(sel []int32) []int32 {
			return without(sel[:0], sel, in(append(buf[:0], sel...)))
		}
	case *expr.IsNull:
		wantNull := !n.Invert
		if col, ok := n.E.(*expr.Col); ok && t.b.Type(t.cols[col.Idx]) != row.TNull {
			c := t.cols[col.Idx]
			return func(sel []int32) []int32 {
				nulls := t.b.Nulls(c)
				return keepIf(sel, func(i int) bool { return nulls.Has(i) == wantNull })
			}
		}
		in := t.bindValue(n.E)
		f = func(sel []int32) []int32 {
			v := in(sel)
			return keepIf(sel, func(i int) bool { return v.Null(int32(i)) == wantNull })
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
		in, kind := t.bind(n.E)
		if kind != columnar.VecStr {
			return truth(t.bindBoxed(n, in))
		}
		f = func(sel []int32) []int32 {
			v := in(sel)
			return keepIf(sel, func(i int) bool { return !v.Nulls.Has(i) && n.Match(v.Strs[int32(i)&v.Mask]) })
		}
	}
	if f == nil { // a boolean value
		f = truth(t.bindValue(x))
	}
	return f
}

// truth filters by a boolean value, boxed: a row passes where it is
// true.
func truth(in valFn) selFn {
	return func(sel []int32) []int32 {
		v := in(sel)
		return keepIf(sel, func(i int) bool { return v.Kind == columnar.VecAny && row.Truth(v.Anys[i]) })
	}
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

// bindCmp compares two typed operands of one family — int64 with
// int64 (DATE included), numeric with numeric as float64 (so a float
// literal is never truncated against an int column), string with
// string bytewise — as row.Compare orders them.
func (t *scanTask) bindCmp(c *expr.Cmp) selFn {
	l, lk := t.bind(c.L)
	r, rk := t.bind(c.R)
	keep := c.Op.Keep()
	switch {
	case lk == columnar.VecInt && rk == columnar.VecInt:
		return cmpSel(l, r, keep, func(v columnar.Vec) []int64 { return v.Ints })
	case lk == columnar.VecStr && rk == columnar.VecStr:
		return cmpSel(l, r, keep, func(v columnar.Vec) []string { return v.Strs })
	case lk == columnar.VecAny || rk == columnar.VecAny || lk == columnar.VecStr || rk == columnar.VecStr:
		return truth(t.bindBoxed(c, l, r)) // boxed operands
	}
	return cmpSel(asFloat(l, lk), asFloat(r, rk), keep, func(v columnar.Vec) []float64 { return v.Floats })
}

// cmpSel compares the Ts vals reads from l's and r's vectors.
func cmpSel[T int64 | float64 | string](l, r valFn, keep [3]bool, vals func(columnar.Vec) []T) selFn {
	return func(sel []int32) []int32 {
		lv, rv := l(sel), r(sel)
		return cmpVals(sel, vals(lv), lv.Mask, vals(rv), rv.Mask, lv.Nulls, rv.Nulls, keep)
	}
}

func cmpVals[T int64 | float64 | string](sel []int32, x []T, xm int32, y []T, ym int32, xn, yn columnar.Bitmap, keep [3]bool) []int32 {
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
	in, kind := t.bind(n.E)
	switch {
	case n.Set != nil && kind == columnar.VecInt:
		return inSel(n, in, func(v columnar.Vec) []int64 { return v.Ints })
	case n.Set != nil && kind == columnar.VecStr:
		return inSel(n, in, func(v columnar.Vec) []string { return v.Strs })
	}
	return truth(t.bindBoxed(n, in)) // a DOUBLE or boxed operand, or a list of expressions
}

// inSel probes n's set with the Ts vals reads from in's vectors; the
// set's members of another type equal none of them.
func inSel[T int64 | string](n *expr.In, in valFn, vals func(columnar.Vec) []T) selFn {
	set := make(map[T]struct{}, len(n.Set))
	for k := range n.Set {
		if x, ok := k.(T); ok {
			set[x] = struct{}{}
		}
	}
	return func(sel []int32) []int32 {
		v := in(sel)
		return inVals(sel, vals(v), v.Mask, v.Nulls, set, n.Invert)
	}
}

func inVals[T int64 | string](sel []int32, x []T, xm int32, nulls columnar.Bitmap, set map[T]struct{}, invert bool) []int32 {
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
