package plan

import (
	"fmt"
	"strings"

	"shark/internal/catalog"
	"shark/internal/expr"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// Analyze converts a parsed SELECT into an optimized logical plan.
func Analyze(cat *catalog.Catalog, sel *sqlparse.SelectStmt) (Node, error) {
	n, err := analyzeSelect(cat, sel)
	if err != nil {
		return nil, err
	}
	return Optimize(n), nil
}

func analyzeSelect(cat *catalog.Catalog, sel *sqlparse.SelectStmt) (Node, error) {
	if sel.From == nil {
		return analyzeNoFrom(cat, sel)
	}
	u := collectUsage(sel)

	sc := newScope(cat)
	node, err := planRef(cat, sel.From, u, sc)
	if err != nil {
		return nil, err
	}

	whereConjuncts := splitASTConjuncts(sel.Where)

	// Joins (left-deep, in syntactic order).
	for _, j := range sel.Joins {
		rightScope := newScope(cat)
		rightNode, err := planRef(cat, j.Ref, u, rightScope)
		if err != nil {
			return nil, err
		}
		rightBinding := j.Ref.Binding()

		onConjuncts := splitASTConjuncts(j.On)
		if j.On == nil {
			// implicit join: steal the linking equi-conjunct from WHERE
			var rest []sqlparse.Expr
			for _, c := range whereConjuncts {
				if linksScopes(c, sc, rightScope) {
					onConjuncts = append(onConjuncts, c)
				} else {
					rest = append(rest, c)
				}
			}
			whereConjuncts = rest
		}

		var lk, rk expr.Expr
		for _, c := range onConjuncts {
			if lk != nil {
				whereConjuncts = append(whereConjuncts, c)
				continue
			}
			lAST, rAST, ok := equiSides(c, sc, rightScope)
			if !ok {
				whereConjuncts = append(whereConjuncts, c)
				continue
			}
			if lk, err = sc.resolve(lAST); err != nil {
				return nil, err
			}
			if rk, err = rightScope.resolve(rAST); err != nil {
				return nil, err
			}
		}
		if lk == nil {
			return nil, fmt.Errorf("plan: join with %q requires an equality condition", rightBinding)
		}
		node = NewJoin(node, rightNode, lk, rk)
		sc.add(rightBinding, rightNode.Schema())
	}

	// WHERE (post-join-extraction remainder).
	if len(whereConjuncts) > 0 {
		var resolved []expr.Expr
		for _, c := range whereConjuncts {
			e, err := sc.resolve(c)
			if err != nil {
				return nil, err
			}
			resolved = append(resolved, e)
		}
		node = &Filter{Cond: Conjoin(resolved), Child: node}
	}

	// Aggregation. post resolves what comes after it — HAVING and the
	// SELECT list — against the Aggregate's output; without aggregation
	// that is the FROM scope itself.
	post := sc
	calls := aggregateCalls(sel)
	hasAgg := len(sel.GroupBy) > 0 || len(calls) > 0
	if hasAgg {
		var err error
		if node, post, err = buildAggregate(sel, calls, sc, node); err != nil {
			return nil, err
		}
		if sel.Having != nil {
			h, err := post.resolve(sel.Having)
			if err != nil {
				return nil, err
			}
			node = &Filter{Cond: h, Child: node}
		}
	} else if sel.Having != nil {
		return nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
	}

	// SELECT list.
	var names []string
	var exprs []expr.Expr
	var itemKeys []string // canonical AST per output column ("" for star expansions)
	for _, item := range sel.Items {
		if item.Star {
			if hasAgg {
				return nil, fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
			}
			// expand to every column of every bound table, by position
			// (duplicate names across tables stay positionally correct)
			for pos, f := range sc.combined() {
				names = append(names, f.Name)
				exprs = append(exprs, &expr.Col{Idx: pos, Name: f.Name, T: f.Type})
				itemKeys = append(itemKeys, "")
			}
			continue
		}
		re, err := post.resolve(item.Expr)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlparse.ColRef); ok {
				name = cr.Name
			} else {
				name = compactName(item.Expr.String())
			}
		}
		names = append(names, name)
		exprs = append(exprs, re)
		itemKeys = append(itemKeys, canonicalKey(item.Expr))
	}
	project := NewProject(names, exprs, node)
	node = project

	// ORDER BY (resolved against the projected output).
	if len(sel.OrderBy) > 0 {
		var keys []SortKey
		for _, oi := range sel.OrderBy {
			idx, err := orderTarget(oi.Expr, project, itemKeys)
			if err != nil {
				return nil, err
			}
			keys = append(keys, SortKey{
				Expr: &expr.Col{Idx: idx, Name: project.Names[idx], T: project.Schema()[idx].Type},
				Desc: oi.Desc,
			})
		}
		node = &Sort{Keys: keys, Child: node}
	}
	if sel.Limit >= 0 {
		node = &Limit{N: sel.Limit, Child: node}
	}
	return node, nil
}

func analyzeNoFrom(cat *catalog.Catalog, sel *sqlparse.SelectStmt) (Node, error) {
	sc := newScope(cat)
	var names []string
	var exprs []expr.Expr
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("plan: SELECT * requires FROM")
		}
		e, err := sc.resolve(item.Expr)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = compactName(item.Expr.String())
		}
		names = append(names, name)
		exprs = append(exprs, e)
	}
	return NewProject(names, exprs, OneRow{}), nil
}

// orderTarget maps an ORDER BY expression to a projected column index:
// 1-based position, output alias, or a structural match with a
// projected expression.
func orderTarget(e sqlparse.Expr, p *Project, itemKeys []string) (int, error) {
	if lit, ok := e.(*sqlparse.Literal); ok {
		if n, ok := lit.Value.(int64); ok {
			if n < 1 || int(n) > len(p.Exprs) {
				return 0, fmt.Errorf("plan: ORDER BY position %d out of range", n)
			}
			return int(n - 1), nil
		}
	}
	if cr, ok := e.(*sqlparse.ColRef); ok && cr.Table == "" {
		for i, name := range p.Names {
			if strings.EqualFold(name, cr.Name) {
				return i, nil
			}
		}
	}
	key := canonicalKey(e)
	for i, k := range itemKeys {
		if k != "" && k == key {
			return i, nil
		}
	}
	return 0, fmt.Errorf("plan: ORDER BY expression %s must appear in the SELECT list", e)
}

// planRef plans a FROM/JOIN table reference and adds it to the scope.
func planRef(cat *catalog.Catalog, ref *sqlparse.TableRef, u *usage, sc *scope) (Node, error) {
	if ref.Sub != nil {
		sub, err := analyzeSelect(cat, ref.Sub)
		if err != nil {
			return nil, err
		}
		sc.add(ref.Alias, sub.Schema())
		return sub, nil
	}
	t, err := cat.Get(ref.Name)
	if err != nil {
		return nil, err
	}
	binding := ref.Binding()
	needed := u.neededCols(binding, t.Schema)
	schema := make(row.Schema, len(needed))
	for i, c := range needed {
		schema[i] = t.Schema[c]
	}
	scan := &Scan{Table: t, Binding: binding, NeededCols: needed, schema: schema}
	sc.add(binding, schema)
	return scan, nil
}

// ---------------------------------------------------------------------------
// Column usage pre-pass (analysis-time column pruning).

type usage struct {
	all         bool
	qualified   map[string]map[string]bool // binding → column
	unqualified map[string]bool
}

func collectUsage(sel *sqlparse.SelectStmt) *usage {
	u := &usage{
		qualified:   map[string]map[string]bool{},
		unqualified: map[string]bool{},
	}
	for _, item := range sel.Items {
		u.all = u.all || item.Star
	}
	sqlparse.WalkSelect(sel, false, nil, func(e *sqlparse.Expr) { sqlparse.WalkExpr(*e, u.see) })
	if sel.DistributeBy != "" {
		u.unqualified[strings.ToLower(sel.DistributeBy)] = true
	}
	return u
}

// see records a column reference; it is a sqlparse.WalkExpr visitor.
func (u *usage) see(e sqlparse.Expr) bool {
	if n, ok := e.(*sqlparse.ColRef); ok {
		if n.Table != "" {
			k := strings.ToLower(n.Table)
			if u.qualified[k] == nil {
				u.qualified[k] = map[string]bool{}
			}
			u.qualified[k][strings.ToLower(n.Name)] = true
		} else {
			u.unqualified[strings.ToLower(n.Name)] = true
		}
	}
	return true
}

// neededCols returns the table columns (by index) this query block can
// touch for the given binding.
func (u *usage) neededCols(binding string, schema row.Schema) []int {
	if u.all {
		out := make([]int, len(schema))
		for i := range out {
			out[i] = i
		}
		return out
	}
	var out []int
	q := u.qualified[strings.ToLower(binding)]
	for i, f := range schema {
		lname := strings.ToLower(f.Name)
		if q[lname] || u.unqualified[lname] {
			out = append(out, i)
		}
	}
	if out == nil {
		out = []int{} // e.g. SELECT COUNT(*): zero-column scan
	}
	return out
}

// ---------------------------------------------------------------------------
// Aggregation planning.

// aggregateCalls lists the aggregate calls of a query block in source
// order, outermost only: an aggregate's argument is resolved below the
// Aggregate node, where another aggregate is an error.
func aggregateCalls(sel *sqlparse.SelectStmt) []*sqlparse.FuncCall {
	var calls []*sqlparse.FuncCall
	sqlparse.WalkSelect(sel, false, nil, func(e *sqlparse.Expr) {
		sqlparse.WalkExpr(*e, func(x sqlparse.Expr) bool {
			fc, ok := x.(*sqlparse.FuncCall)
			if ok && IsAggregate(fc.Name) {
				calls = append(calls, fc)
				return false
			}
			return true
		})
	})
	return calls
}

// buildAggregate plans the Aggregate node computing calls and returns
// the scope that resolves post-aggregation expressions (HAVING, the
// SELECT list) against its output: an expression that is a GROUP BY
// key or an aggregate call is that output column, and a column that is
// neither is an error, wherever in the expression it stands.
func buildAggregate(sel *sqlparse.SelectStmt, calls []*sqlparse.FuncCall, sc *scope, child Node) (Node, *scope, error) {
	groupIdx := map[string]int{}
	var groupExprs []expr.Expr
	var groupNames []string
	for i, g := range sel.GroupBy {
		ge, err := sc.resolve(g)
		if err != nil {
			return nil, nil, err
		}
		key := canonicalKey(g)
		groupIdx[key] = i
		name := fmt.Sprintf("group%d", i)
		if cr, ok := g.(*sqlparse.ColRef); ok {
			name = cr.Name
		}
		// prefer a SELECT alias naming the same expression
		for _, item := range sel.Items {
			if !item.Star && item.Alias != "" && canonicalKey(item.Expr) == key {
				name = item.Alias
				break
			}
		}
		groupExprs = append(groupExprs, ge)
		groupNames = append(groupNames, name)
	}

	aggIdx := map[string]int{}
	var specs []AggSpec
	for _, fc := range calls {
		key := canonicalKey(fc)
		if _, ok := aggIdx[key]; ok {
			continue
		}
		spec, err := buildAggSpec(fc, sc)
		if err != nil {
			return nil, nil, err
		}
		aggIdx[key] = len(groupExprs) + len(specs)
		specs = append(specs, spec)
	}

	agg := NewAggregate(groupExprs, groupNames, specs, child)
	out := agg.Schema()
	post := &scope{cat: sc.cat, hook: func(e sqlparse.Expr) (expr.Expr, error) {
		key := canonicalKey(e)
		i, ok := groupIdx[key]
		if !ok {
			i, ok = aggIdx[key]
		}
		if ok {
			return &expr.Col{Idx: i, Name: out[i].Name, T: out[i].Type}, nil
		}
		if cr, isCol := e.(*sqlparse.ColRef); isCol {
			return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", cr)
		}
		return nil, nil
	}}
	return agg, post, nil
}

func buildAggSpec(fc *sqlparse.FuncCall, sc *scope) (AggSpec, error) {
	name := strings.ToUpper(fc.Name)
	var arg expr.Expr
	if !fc.Star {
		if len(fc.Args) != 1 {
			return AggSpec{}, fmt.Errorf("plan: %s takes exactly one argument", name)
		}
		var err error
		arg, err = sc.resolve(fc.Args[0])
		if err != nil {
			return AggSpec{}, err
		}
	}
	switch name {
	case "COUNT":
		kind := AggCount
		if fc.Distinct {
			kind = AggCountDistinct
		}
		return AggSpec{Kind: kind, Arg: arg, Out: row.TInt}, nil
	case "SUM":
		if arg == nil || !arg.Type().Numeric() {
			return AggSpec{}, fmt.Errorf("plan: SUM requires a numeric argument")
		}
		out := row.TFloat
		if arg.Type() == row.TInt {
			out = row.TInt
		}
		return AggSpec{Kind: AggSum, Arg: arg, Out: out}, nil
	case "AVG":
		if arg == nil || !arg.Type().Numeric() {
			return AggSpec{}, fmt.Errorf("plan: AVG requires a numeric argument")
		}
		return AggSpec{Kind: AggAvg, Arg: arg, Out: row.TFloat}, nil
	case "MIN":
		if arg == nil {
			return AggSpec{}, fmt.Errorf("plan: MIN requires an argument")
		}
		return AggSpec{Kind: AggMin, Arg: arg, Out: arg.Type()}, nil
	case "MAX":
		if arg == nil {
			return AggSpec{}, fmt.Errorf("plan: MAX requires an argument")
		}
		return AggSpec{Kind: AggMax, Arg: arg, Out: arg.Type()}, nil
	}
	return AggSpec{}, fmt.Errorf("plan: unknown aggregate %q", name)
}

// ---------------------------------------------------------------------------
// AST helpers.

func splitASTConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlparse.BinaryExpr); ok && be.Op == sqlparse.OpAnd {
		return append(splitASTConjuncts(be.L), splitASTConjuncts(be.R)...)
	}
	return []sqlparse.Expr{e}
}

// linksScopes reports whether e is an equality whose sides resolve in
// the two scopes respectively (in either order).
func linksScopes(e sqlparse.Expr, left, right *scope) bool {
	_, _, ok := equiSides(e, left, right)
	return ok
}

// equiSides splits an equality conjunct into (left-scope side,
// right-scope side) when possible.
func equiSides(e sqlparse.Expr, left, right *scope) (sqlparse.Expr, sqlparse.Expr, bool) {
	be, ok := e.(*sqlparse.BinaryExpr)
	if !ok || be.Op != sqlparse.OpEq {
		return nil, nil, false
	}
	lInLeft := resolvable(be.L, left)
	rInRight := resolvable(be.R, right)
	if lInLeft && rInRight && hasColumns(be.L) && hasColumns(be.R) {
		return be.L, be.R, true
	}
	lInRight := resolvable(be.L, right)
	rInLeft := resolvable(be.R, left)
	if lInRight && rInLeft && hasColumns(be.L) && hasColumns(be.R) {
		return be.R, be.L, true
	}
	return nil, nil, false
}

func resolvable(e sqlparse.Expr, sc *scope) bool {
	_, err := sc.resolve(e)
	return err == nil
}

func hasColumns(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExpr(e, func(x sqlparse.Expr) bool {
		_, isCol := x.(*sqlparse.ColRef)
		found = found || isCol
		return !found
	})
	return found
}

// canonicalKey renders an AST expression with identifiers upper-cased,
// giving a structural identity for matching GROUP BY and aggregate
// expressions across clauses.
func canonicalKey(e sqlparse.Expr) string {
	return strings.ToUpper(canon(e))
}

func canon(e sqlparse.Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

// compactName names an unaliased SELECT item after its expression:
// the rendered AST without the parentheses that wrap the whole of it
// — "(a + b)" is "a + b", while "COUNT(*)" and "(a + b) * (c + d)" end
// in a parenthesis that closes something else and keep it — cut to 40
// bytes.
func compactName(s string) string {
	if wrappedInParens(s) {
		s = s[1 : len(s)-1]
	}
	if len(s) > 40 {
		s = s[:40]
	}
	return s
}

// wrappedInParens reports whether s opens with a parenthesis whose
// match is its last byte. Parentheses inside quoted literals do not
// count.
func wrappedInParens(s string) bool {
	if len(s) < 2 || s[0] != '(' {
		return false
	}
	depth, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'':
			quoted = !quoted
		case quoted:
		case c == '(':
			depth++
		case c == ')':
			if depth--; depth == 0 {
				return i == len(s)-1
			}
		}
	}
	return false
}
