package plan

import (
	"shark/internal/expr"
	"shark/internal/memtable"
)

// Optimize applies the rule-based passes: predicate pushdown into
// scans (through joins, with index shifting) and extraction of
// partition-pruning predicates for memstore scans. Column pruning
// already happened during analysis; constant folding during
// resolution.
func Optimize(root Node) Node {
	root = pushFilters(root)
	extractAllPruning(root)
	return root
}

// pushFilters pushes filter conjuncts as close to the scans as
// possible.
func pushFilters(n Node) Node {
	switch t := n.(type) {
	case *Filter:
		t.Child = pushFilters(t.Child)
		var remaining []expr.Expr
		for _, c := range splitConjuncts(t.Cond) {
			if !tryPush(c, t.Child) {
				remaining = append(remaining, c)
			}
		}
		if len(remaining) == 0 {
			return t.Child
		}
		t.Cond = Conjoin(remaining)
		return t
	case *Project:
		t.Child = pushFilters(t.Child)
	case *Aggregate:
		t.Child = pushFilters(t.Child)
	case *Join:
		t.Left = pushFilters(t.Left)
		t.Right = pushFilters(t.Right)
	case *Sort:
		t.Child = pushFilters(t.Child)
	case *Limit:
		t.Child = pushFilters(t.Child)
	}
	return n
}

// tryPush attempts to sink one conjunct into n; returns true when the
// conjunct was absorbed.
func tryPush(c expr.Expr, n Node) bool {
	switch t := n.(type) {
	case *Scan:
		t.Filters = append(t.Filters, c)
		return true
	case *Filter:
		if tryPush(c, t.Child) {
			return true
		}
		t.Cond = &expr.And{L: t.Cond, R: c}
		return true
	case *Join:
		nl := len(t.Left.Schema())
		cols := expr.Cols(c)
		allLeft, allRight := true, true
		for _, idx := range cols {
			if idx >= nl {
				allLeft = false
			} else {
				allRight = false
			}
		}
		if len(cols) == 0 {
			allRight = false // constant predicate: keep left-side placement
		}
		if allLeft {
			if !tryPush(c, t.Left) {
				t.Left = &Filter{Cond: c, Child: t.Left}
			}
			return true
		}
		if allRight {
			shifted := shiftCols(c, -nl)
			if !tryPush(shifted, t.Right) {
				t.Right = &Filter{Cond: shifted, Child: t.Right}
			}
			return true
		}
		return false
	}
	return false
}

// extractAllPruning derives memstore pruning predicates from the
// filters pushed into each cached-table scan.
func extractAllPruning(n Node) {
	if s, ok := n.(*Scan); ok {
		if s.Table.Cached() {
			s.Pruning = extractPruning(s.Filters)
		}
		return
	}
	for _, c := range n.Children() {
		extractAllPruning(c)
	}
}

// extractPruning converts scan-level conjuncts of the forms
// col⊕const, const⊕col, and col IN (literals) into partition
// predicates. Inequalities are relaxed to inclusive bounds, which is
// conservative (never prunes a partition that could match).
func extractPruning(filters []expr.Expr) []memtable.ColPredicate {
	var out []memtable.ColPredicate
	for _, f := range filters {
		for _, c := range splitConjuncts(f) {
			if p, ok := pruningOf(c); ok {
				out = append(out, p)
			}
		}
	}
	return out
}

func pruningOf(c expr.Expr) (memtable.ColPredicate, bool) {
	switch e := c.(type) {
	case *expr.Cmp:
		col, konst, flipped := colConstSides(e.L, e.R)
		if col == nil {
			return memtable.ColPredicate{}, false
		}
		op := e.Op
		if flipped {
			op = flipCmp(op)
		}
		p := memtable.ColPredicate{Col: col.Idx}
		switch op {
		case expr.Eq:
			p.Lo, p.Hi = konst, konst
			p.Eq = []any{konst}
		case expr.Lt, expr.Le:
			p.Hi = konst
		case expr.Gt, expr.Ge:
			p.Lo = konst
		default:
			return memtable.ColPredicate{}, false // Ne prunes nothing useful
		}
		return p, true
	case *expr.In:
		col, ok := e.E.(*expr.Col)
		if !ok || e.Set == nil || e.Invert {
			return memtable.ColPredicate{}, false
		}
		p := memtable.ColPredicate{Col: col.Idx}
		for v := range e.Set {
			p.Eq = append(p.Eq, v)
		}
		return p, true
	}
	return memtable.ColPredicate{}, false
}

func colConstSides(l, r expr.Expr) (col *expr.Col, konst any, flipped bool) {
	if c, ok := l.(*expr.Col); ok {
		if k, ok := r.(*expr.Const); ok {
			return c, k.V, false
		}
	}
	if c, ok := r.(*expr.Col); ok {
		if k, ok := l.(*expr.Const); ok {
			return c, k.V, true
		}
	}
	return nil, nil, false
}

func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.Lt:
		return expr.Gt
	case expr.Le:
		return expr.Ge
	case expr.Gt:
		return expr.Lt
	case expr.Ge:
		return expr.Le
	}
	return op
}
