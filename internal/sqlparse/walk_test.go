package sqlparse

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	"shark/internal/row"
)

// The traversal-completeness tests build their trees by reflection —
// every field that can hold an expression gets a distinct leaf — so
// they know the shape of the AST from its type declarations, not from
// the shape functions they check. A node or clause that gains a child
// and is not taught to mapChildren / WalkSelect fails here.

var exprType = reflect.TypeOf((*Expr)(nil)).Elem()

// filler plants `?` leaves, numbered in the order it creates them, in
// every expression slot reachable from a value.
type filler struct {
	leaves  int
	selects int // nesting budget for *SelectStmt
}

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Interface:
		if v.Type() == exprType {
			v.Set(reflect.ValueOf(&ParamExpr{Idx: f.leaves}))
			f.leaves++
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	case reflect.Pointer:
		// Sub-structure (a table reference, a derived table), but not an
		// expression node held by concrete type (the LIMIT placeholder).
		if v.Type().Elem().Kind() != reflect.Struct || v.Type().Implements(exprType) {
			return
		}
		if v.Type() == reflect.TypeOf((*SelectStmt)(nil)) {
			if f.selects == 0 {
				return
			}
			f.selects--
		}
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	}
}

// exprNodeTypes lists, from the source, every type with an exprNode
// method.
func exprNodeTypes(t *testing.T) []string {
	t.Helper()
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "exprNode" || fn.Recv == nil {
			continue
		}
		names = append(names, fn.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
	}
	sort.Strings(names)
	return names
}

// paramOrder walks e and returns the Idx of every placeholder it meets.
func paramOrder(e Expr) []int {
	order := []int{}
	WalkExpr(e, func(x Expr) bool {
		if p, ok := x.(*ParamExpr); ok {
			order = append(order, p.Idx)
		}
		return true
	})
	return order
}

// ascending renders 0..n-1 as fmt.Sprint renders a []int.
func ascending(n int) string {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return fmt.Sprint(out)
}

func TestExprTraversalComplete(t *testing.T) {
	nodes := []Expr{
		&Literal{}, &ParamExpr{}, &ColRef{}, &BinaryExpr{}, &NotExpr{}, &NegExpr{}, &FuncCall{},
		&BetweenExpr{}, &InExpr{}, &LikeExpr{}, &IsNullExpr{}, &CaseExpr{}, &CastExpr{},
	}
	var have []string
	for _, n := range nodes {
		have = append(have, reflect.TypeOf(n).Elem().Name())
	}
	sort.Strings(have)
	if want := exprNodeTypes(t); !reflect.DeepEqual(have, want) {
		t.Fatalf("this test covers %v; ast.go declares %v", have, want)
	}

	for _, n := range nodes {
		name := reflect.TypeOf(n).Elem().Name()
		f := &filler{}
		f.fill(reflect.ValueOf(n).Elem())
		if _, leaf := n.(*ParamExpr); leaf {
			f.leaves = 1 // a placeholder is its own (only) leaf
		}
		before := n.String()

		if got := paramOrder(n); fmt.Sprint(got) != ascending(f.leaves) {
			t.Errorf("%s: WalkExpr met placeholders %v, want each of %d once, in source order", name, got, f.leaves)
		}
		if same := mapChildren(n, func(c Expr) Expr { return c }); same != n || same.String() != before {
			t.Errorf("%s: the identity rewrite returned %s, want the node itself (%s)", name, same, before)
		}

		// Bind replaces every placeholder: argument i is the integer i.
		args := make(row.Row, f.leaves)
		for i := range args {
			args[i] = int64(i)
		}
		bound, err := Bind(&SelectStmt{Items: []SelectItem{{Expr: n}}, Limit: -1}, args)
		if err != nil {
			t.Errorf("%s: Bind: %v", name, err)
			continue
		}
		lits := []int{}
		WalkExpr(bound.(*SelectStmt).Items[0].Expr, func(x Expr) bool {
			if _, ok := x.(*ParamExpr); ok {
				t.Errorf("%s: Bind left a placeholder in %s", name, bound.(*SelectStmt).Items[0].Expr)
			}
			if l, ok := x.(*Literal); ok && l.Value != nil {
				lits = append(lits, int(l.Value.(int64)))
			}
			return true
		})
		if fmt.Sprint(lits) != ascending(f.leaves) {
			t.Errorf("%s: bound tree holds arguments %v, want 0..%d in order", name, lits, f.leaves-1)
		}
		if n.String() != before {
			t.Errorf("%s: Bind changed its input: %s, was %s", name, n, before)
		}
	}
}

// TestWalkDoesNotDescend: a visit that returns false keeps WalkExpr out
// of that node's children, and only those.
func TestWalkDoesNotDescend(t *testing.T) {
	e, err := ParseExpr("SUM(a + ?) > ? AND NOT (b = ?)")
	if err != nil {
		t.Fatal(err)
	}
	var params []int
	WalkExpr(e, func(x Expr) bool {
		if p, ok := x.(*ParamExpr); ok {
			params = append(params, p.Idx)
		}
		_, call := x.(*FuncCall)
		return !call
	})
	if !reflect.DeepEqual(params, []int{1, 2}) {
		t.Errorf("placeholders met outside the call: %v, want [1 2]", params)
	}
}

func TestSelectTraversalComplete(t *testing.T) {
	sel := &SelectStmt{}
	f := &filler{selects: 4}
	f.fill(reflect.ValueOf(sel).Elem())

	walk := func(s *SelectStmt, subqueries bool) (params []int, refs int) {
		WalkSelect(s, subqueries, func(*TableRef) { refs++ }, func(e *Expr) {
			idx := -1 // a slot that no longer holds its placeholder
			if p, ok := (*e).(*ParamExpr); ok {
				idx = p.Idx
			}
			params = append(params, idx)
		})
		return params, refs
	}
	// Everything the filler planted, in the order it planted it (the
	// order of the struct's fields is the order of the clauses).
	if got, _ := walk(sel, true); fmt.Sprint(got) != ascending(f.leaves) {
		t.Errorf("WalkSelect with sub-queries met placeholders %v, want each of %d once, in order", got, f.leaves)
	}
	// Without sub-queries: exactly this block's own slots and references
	// (FROM and two JOINs), i.e. what is left when the derived tables
	// are cut off.
	all, refsAll := walk(sel, true)
	own, refsOwn := walk(sel, false)
	cut := *sel
	cut.From = &TableRef{}
	cut.Joins = []JoinClause{{On: sel.Joins[0].On}, {On: sel.Joins[1].On}}
	if want, _ := walk(&cut, true); !reflect.DeepEqual(own, want) || len(own) >= len(all) {
		t.Errorf("WalkSelect without sub-queries met %v, want %v", own, want)
	}
	if refsOwn != 3 || refsAll <= refsOwn {
		t.Errorf("table references reported: %d in the block, %d with sub-queries; want 3 and more", refsOwn, refsAll)
	}

	// cloneSelect: assigning every slot and reference of the copy leaves
	// the original as it was.
	before, _ := walk(sel, true)
	cp := cloneSelect(sel)
	WalkSelect(cp, true, func(r *TableRef) { r.Name = "changed" }, func(e *Expr) { *e = &Literal{} })
	if after, _ := walk(sel, true); !reflect.DeepEqual(after, before) {
		t.Errorf("assigning into a cloneSelect copy changed the original: %v, was %v", after, before)
	}
	WalkSelect(sel, true, func(r *TableRef) {
		if r.Name != "" {
			t.Errorf("assigning into a cloneSelect copy renamed a table reference of the original")
		}
	}, nil)
	if n := NumParams(cp); n != 0 {
		t.Errorf("%d placeholders survive assigning every slot of the copy", n)
	}
}

// renderStatement renders every expression of a statement and each
// block's LIMIT — enough to tell whether Bind touched its input.
func renderStatement(stmt Statement) string {
	var b strings.Builder
	walkStatement(stmt, func(s *SelectStmt) {
		fmt.Fprintf(&b, " [block: limit %d, placeholder %v]", s.Limit, s.LimitParam != nil)
	}, func(e *Expr) { b.WriteString(" " + (*e).String()) })
	return b.String()
}
