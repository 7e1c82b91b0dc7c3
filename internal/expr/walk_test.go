package expr

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"

	"shark/internal/row"
)

// The traversal-completeness test builds one instance of every node
// type by reflection — each field that can hold an expression gets a
// distinct column leaf — so it knows the shape of a node from its
// declaration, not from mapChildren, which it checks. A node that gains
// a child mapChildren is not taught about fails here.

var exprType = reflect.TypeOf((*Expr)(nil)).Elem()

// fillLeaves plants column leaves, numbered from *n in the order it
// creates them, in every expression slot of a struct value.
func fillLeaves(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Interface:
		if v.Type() == exprType {
			v.Set(reflect.ValueOf(&Col{Idx: *n, Name: "c"}))
			*n++
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillLeaves(v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillLeaves(v.Field(i), n)
			}
		}
	case reflect.Pointer: // a Call's *UDF: String needs one
		if v.Type().Elem().Kind() == reflect.Struct {
			v.Set(reflect.New(v.Type().Elem()))
		}
	}
}

// nodeTypes lists, from the package source, every type with an Eval
// method: the implementations of Expr.
func nodeTypes(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range pkgs["expr"].Files {
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "Eval" && fn.Recv != nil {
				names = append(names, fn.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

func ascending(n int) string {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return fmt.Sprint(out)
}

func TestTraversalComplete(t *testing.T) {
	nodes := []Expr{
		&Col{}, &Const{}, &Arith{}, &Neg{}, &Cmp{}, &And{}, &Or{}, &Not{},
		&In{}, &Like{}, &IsNull{}, &Case{}, &Cast{}, &Call{},
	}
	var have []string
	for _, n := range nodes {
		have = append(have, reflect.TypeOf(n).Elem().Name())
	}
	sort.Strings(have)
	if want := nodeTypes(t); !reflect.DeepEqual(have, want) {
		t.Fatalf("this test covers %v; the package declares %v", have, want)
	}

	for _, n := range nodes {
		name := reflect.TypeOf(n).Elem().Name()
		leaves := 0
		fillLeaves(reflect.ValueOf(n).Elem(), &leaves)
		if _, leaf := n.(*Col); leaf {
			leaves = 1 // a column is its own (only) leaf, number 0
		}
		before := n.String()

		visited := []int{}
		Walk(n, func(x Expr) {
			if c, ok := x.(*Col); ok {
				visited = append(visited, c.Idx)
			}
		})
		if fmt.Sprint(visited) != ascending(leaves) {
			t.Errorf("%s: Walk met columns %v, want each of %d once, in source order", name, visited, leaves)
		}
		if got := fmt.Sprint(append([]int{}, Cols(n)...)); got != ascending(leaves) {
			t.Errorf("%s: Cols = %s, want %s", name, got, ascending(leaves))
		}
		if same := Rewrite(n, func(x Expr) Expr { return x }); same != n || same.String() != before {
			t.Errorf("%s: the identity rewrite returned %s, want the node itself (%s)", name, same, before)
		}

		// Replace every column by the literal of its number.
		out := Rewrite(n, func(x Expr) Expr {
			if c, ok := x.(*Col); ok {
				return &Const{V: int64(c.Idx), T: row.TInt}
			}
			return x
		})
		consts := []int{}
		Walk(out, func(x Expr) {
			if _, ok := x.(*Col); ok {
				t.Errorf("%s: Rewrite left a column in %s", name, out)
			}
			if c, ok := x.(*Const); ok && c.V != nil {
				consts = append(consts, int(c.V.(int64)))
			}
		})
		if fmt.Sprint(consts) != ascending(leaves) {
			t.Errorf("%s: rewritten tree holds literals %v, want 0..%d in order", name, consts, leaves-1)
		}
		if reflect.TypeOf(out) != reflect.TypeOf(n) && leaves > 0 && name != "Col" {
			t.Errorf("%s: Rewrite returned a %T", name, out)
		}
		if n.String() != before {
			t.Errorf("%s: Rewrite changed its input: %s, was %s", name, n, before)
		}
	}
}

// TestRewriteKeepsWhatItDoesNotCopy: the fields of a rebuilt node that
// are not children survive — types, operators, the IN set, the compiled
// LIKE pattern — so the rewritten tree evaluates as the original does
// on shifted columns.
func TestRewriteKeepsWhatItDoesNotCopy(t *testing.T) {
	substr, _ := LookupBuiltin("SUBSTR")
	call, err := NewCall(substr, []Expr{&Col{Idx: 2, T: row.TString}, NewConst(int64(1)), NewConst(int64(2))})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Expr{
		&Arith{Op: Sub, L: &Col{Idx: 0, T: row.TInt}, R: &Neg{E: &Col{Idx: 1, T: row.TInt}, T: row.TInt}, T: row.TInt},
		&Or{L: &Cmp{Op: Ge, L: &Col{Idx: 0, T: row.TInt}, R: NewConst(int64(4))}, R: &Not{E: &IsNull{E: &Col{Idx: 1, T: row.TInt}, Invert: true}}},
		&In{E: &Col{Idx: 2, T: row.TString}, Set: NewInSet([]any{"ab", "x"}), Invert: true},
		&In{E: &Col{Idx: 0, T: row.TInt}, List: []Expr{&Col{Idx: 1, T: row.TInt}}},
		NewLike(&Col{Idx: 2, T: row.TString}, "a%", true),
		&Case{Whens: []When{{Cond: &Col{Idx: 3, T: row.TBool}, Then: call}}, Else: &Cast{E: &Col{Idx: 0, T: row.TInt}, To: row.TString}, T: row.TString},
	} {
		shifted := Rewrite(e, func(x Expr) Expr {
			if c, ok := x.(*Col); ok {
				return &Col{Idx: c.Idx + 2, T: c.T}
			}
			return x
		})
		for _, r := range []row.Row{{int64(3), int64(-3), "abc", true}, {int64(5), nil, "xyz", false}, {nil, int64(1), nil, nil}} {
			wide := append(row.Row{"pad", "pad"}, r...)
			if got, want := shifted.Eval(wide), e.Eval(r); got != want || shifted.Type() != e.Type() {
				t.Errorf("%s shifted by 2 over %v = %v (%s), want %v (%s)", e, r, got, shifted.Type(), want, e.Type())
			}
		}
	}
}
