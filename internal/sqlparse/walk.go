package sqlparse

import "slices"

// The shape of the AST is written down twice in this file and nowhere
// else: mapChildren knows the children of every Expr node, WalkSelect
// (with cloneSelect beside it) the clauses of a SELECT. Every traversal
// and rewrite in the engine — parameter counting and binding here,
// column usage, aggregate detection and name resolution in plan,
// cacheability and input tables in core — is derived from the two, so a
// new node kind or clause is one case here plus its meaning where it is
// resolved (plan's scope.resolve).

// mapChildren returns e with each child c replaced by f(c), children
// visited in source order. e is never modified: when f changes a child
// the node is copied, otherwise e itself comes back.
func mapChildren(e Expr, f func(Expr) Expr) Expr {
	switch n := e.(type) {
	case *BinaryExpr:
		if l, r := f(n.L), f(n.R); l != n.L || r != n.R {
			return &BinaryExpr{Op: n.Op, L: l, R: r}
		}
	case *NotExpr:
		if c := f(n.E); c != n.E {
			return &NotExpr{E: c}
		}
	case *NegExpr:
		if c := f(n.E); c != n.E {
			return &NegExpr{E: c}
		}
	case *FuncCall:
		if args, changed := mapList(n.Args, f); changed {
			return &FuncCall{Name: n.Name, Args: args, Star: n.Star, Distinct: n.Distinct}
		}
	case *BetweenExpr:
		if c, lo, hi := f(n.E), f(n.Lo), f(n.Hi); c != n.E || lo != n.Lo || hi != n.Hi {
			return &BetweenExpr{E: c, Lo: lo, Hi: hi, Not: n.Not}
		}
	case *InExpr:
		c := f(n.E)
		if list, changed := mapList(n.List, f); changed || c != n.E {
			return &InExpr{E: c, List: list, Not: n.Not}
		}
	case *LikeExpr:
		if c := f(n.E); c != n.E {
			return &LikeExpr{E: c, Pattern: n.Pattern, Not: n.Not}
		}
	case *IsNullExpr:
		if c := f(n.E); c != n.E {
			return &IsNullExpr{E: c, Not: n.Not}
		}
	case *CaseExpr:
		whens, changed := n.Whens, false
		for i, w := range n.Whens {
			if m := (WhenClause{Cond: f(w.Cond), Then: f(w.Then)}); m != w {
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
			return &CaseExpr{Whens: whens, Else: els}
		}
	case *CastExpr:
		if c := f(n.E); c != n.E {
			return &CastExpr{E: c, To: n.To}
		}
	}
	return e // a leaf (Literal, ParamExpr, ColRef), or nothing changed
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

// WalkExpr calls visit on e and on every expression below it, parents
// first, in source order. A visit that returns false keeps the walk out
// of that node's children.
func WalkExpr(e Expr, visit func(Expr) bool) {
	var down func(Expr) Expr
	down = func(c Expr) Expr {
		if visit(c) {
			mapChildren(c, down)
		}
		return c
	}
	if e != nil {
		down(e)
	}
}

// WalkSelect visits the clauses of s. It calls ref on each table
// reference — FROM, then every JOIN — and expr on a pointer to each
// expression slot in source order: the select items, each JOIN's ON,
// WHERE, GROUP BY, HAVING, ORDER BY. Empty slots (a * item, a JOIN
// without ON, no WHERE) are skipped, and either callback may be nil.
// With subqueries set, a derived table's own SELECT is walked the same
// way right after its reference is reported; otherwise the walk stays in
// this query block. The LIMIT placeholder is not an expression slot:
// see SelectStmt.LimitParam.
func WalkSelect(s *SelectStmt, subqueries bool, ref func(*TableRef), expr func(*Expr)) {
	slot := func(e *Expr) {
		if expr != nil && *e != nil {
			expr(e)
		}
	}
	table := func(t *TableRef) {
		if t == nil {
			return
		}
		if ref != nil {
			ref(t)
		}
		if subqueries && t.Sub != nil {
			WalkSelect(t.Sub, true, ref, expr)
		}
	}
	for i := range s.Items {
		slot(&s.Items[i].Expr)
	}
	table(s.From)
	for i := range s.Joins {
		table(s.Joins[i].Ref)
		slot(&s.Joins[i].On)
	}
	slot(&s.Where)
	for i := range s.GroupBy {
		slot(&s.GroupBy[i])
	}
	slot(&s.Having)
	for i := range s.OrderBy {
		slot(&s.OrderBy[i].Expr)
	}
}

// cloneSelect copies s, and the derived tables below it, far enough
// that every slot and reference WalkSelect reports on the copy can be
// assigned without touching s. The expressions themselves are shared.
func cloneSelect(s *SelectStmt) *SelectStmt {
	ref := func(t *TableRef) *TableRef {
		if t == nil {
			return nil
		}
		cp := *t
		if t.Sub != nil {
			cp.Sub = cloneSelect(t.Sub)
		}
		return &cp
	}
	cp := *s
	cp.Items = slices.Clone(s.Items)
	cp.From = ref(s.From)
	cp.Joins = slices.Clone(s.Joins)
	for i := range cp.Joins {
		cp.Joins[i].Ref = ref(cp.Joins[i].Ref)
	}
	cp.GroupBy = slices.Clone(s.GroupBy)
	cp.OrderBy = slices.Clone(s.OrderBy)
	return &cp
}
