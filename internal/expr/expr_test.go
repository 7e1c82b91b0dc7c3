package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shark/internal/row"
)

// check evaluates e against r and pins the value it must produce.
func check(t *testing.T, e Expr, r row.Row, want any) {
	t.Helper()
	if got := e.Eval(r); got != want {
		t.Errorf("%s over %v = %#v, want %#v", e, r, got, want)
	}
}

func TestColAndConst(t *testing.T) {
	r := row.Row{int64(42), "hi"}
	check(t, &Col{Idx: 0, Name: "a", T: row.TInt}, r, int64(42))
	check(t, NewConst("x"), r, "x")
}

func TestArithInt(t *testing.T) {
	a := &Col{Idx: 0, T: row.TInt}
	b := &Col{Idx: 1, T: row.TInt}
	r := row.Row{int64(17), int64(5)}
	for _, tc := range []struct {
		op   ArithOp
		want int64
	}{{Add, 22}, {Sub, 12}, {Mul, 85}, {Div, 3}, {Mod, 2}} {
		check(t, &Arith{Op: tc.op, L: a, R: b, T: row.TInt}, r, tc.want)
	}
}

func TestArithFloatAndMixed(t *testing.T) {
	a := &Col{Idx: 0, T: row.TFloat}
	b := &Col{Idx: 1, T: row.TInt}
	check(t, &Arith{Op: Mul, L: a, R: b, T: row.TFloat}, row.Row{2.5, int64(2)}, 5.0)
}

func TestArithNullPropagation(t *testing.T) {
	e := &Arith{Op: Add, L: &Col{Idx: 0, T: row.TInt}, R: NewConst(int64(1)), T: row.TInt}
	check(t, e, row.Row{nil}, nil) // NULL + 1 is NULL
}

func TestDivByZero(t *testing.T) {
	check(t, &Arith{Op: Div, L: NewConst(int64(1)), R: NewConst(int64(0)), T: row.TInt}, nil, nil)
	check(t, &Arith{Op: Mod, L: NewConst(2.0), R: NewConst(0.0), T: row.TFloat}, nil, nil)
}

func TestCmp(t *testing.T) {
	r := row.Row{int64(10), int64(20), "abc", nil}
	a := &Col{Idx: 0, T: row.TInt}
	b := &Col{Idx: 1, T: row.TInt}
	for _, tc := range []struct {
		op   CmpOp
		want bool
	}{{Lt, true}, {Le, true}, {Gt, false}, {Ge, false}, {Eq, false}, {Ne, true}} {
		check(t, &Cmp{Op: tc.op, L: a, R: b}, r, tc.want)
	}
	// NULL comparisons are false
	check(t, &Cmp{Op: Eq, L: &Col{Idx: 3, T: row.TInt}, R: a}, r, false)
	// cross numeric
	check(t, &Cmp{Op: Eq, L: NewConst(int64(2)), R: NewConst(2.0)}, r, true)
}

func TestLogic(t *testing.T) {
	tr, fa := NewConst(true), NewConst(false)
	check(t, &And{tr, tr}, nil, true)
	check(t, &And{tr, fa}, nil, false)
	check(t, &Or{fa, tr}, nil, true)
	check(t, &Or{fa, fa}, nil, false)
	check(t, &Not{tr}, nil, false)
	check(t, &Not{fa}, nil, true)
}

func TestInSet(t *testing.T) {
	e := &In{E: &Col{Idx: 0, T: row.TString}, Set: NewInSet([]any{"US", "CA"})}
	check(t, e, row.Row{"US"}, true)
	check(t, e, row.Row{"VN"}, false)
	inv := &In{E: &Col{Idx: 0, T: row.TString}, Set: NewInSet([]any{"US"}), Invert: true}
	check(t, inv, row.Row{"VN"}, true)
	check(t, inv, row.Row{"US"}, false)
	check(t, inv, row.Row{nil}, false) // NULL NOT IN (...) is unknown
}

func TestInSetNumericCrossType(t *testing.T) {
	e := &In{E: &Col{Idx: 0, T: row.TFloat}, Set: NewInSet([]any{int64(5)})}
	check(t, e, row.Row{5.0}, true)
	check(t, e, row.Row{5.5}, false)
}

// TestInList: a list with a non-literal member is probed member by
// member; a NULL member matches nothing, a NULL operand is unknown.
func TestInList(t *testing.T) {
	list := []Expr{&Col{Idx: 1, T: row.TInt}, NewConst(nil), NewConst(7.0)}
	e := &In{E: &Col{Idx: 0, T: row.TInt}, List: list}
	inv := &In{E: &Col{Idx: 0, T: row.TInt}, List: list, Invert: true}
	for _, tc := range []struct {
		r    row.Row
		want bool
	}{
		{row.Row{int64(3), int64(3)}, true},
		{row.Row{int64(7), int64(3)}, true}, // 7 = 7.0
		{row.Row{int64(4), int64(3)}, false},
		{row.Row{int64(4), nil}, false},
	} {
		check(t, e, tc.r, tc.want)
		check(t, inv, tc.r, !tc.want)
	}
	check(t, e, row.Row{nil, int64(3)}, false)
	check(t, inv, row.Row{nil, int64(3)}, false)
}

func TestLike(t *testing.T) {
	e := NewLike(&Col{Idx: 0, T: row.TString}, "http%", false)
	check(t, e, row.Row{"http://x"}, true)
	check(t, e, row.Row{"ftp://x"}, false)
	check(t, e, row.Row{nil}, false)
	u := NewLike(&Col{Idx: 0, T: row.TString}, "a_c", false)
	check(t, u, row.Row{"abc"}, true)
	check(t, u, row.Row{"abbc"}, false)
	// regex metacharacters are quoted
	check(t, NewLike(&Col{Idx: 0, T: row.TString}, "a.c", false), row.Row{"axc"}, false)
	not := NewLike(&Col{Idx: 0, T: row.TString}, "http%", true)
	check(t, not, row.Row{"ftp://x"}, true)
	check(t, not, row.Row{"http://x"}, false)
	check(t, not, row.Row{nil}, false)
}

func TestIsNull(t *testing.T) {
	e := &IsNull{E: &Col{Idx: 0, T: row.TInt}}
	check(t, e, row.Row{nil}, true)
	check(t, e, row.Row{int64(1)}, false)
	n := &IsNull{E: &Col{Idx: 0, T: row.TInt}, Invert: true}
	check(t, n, row.Row{nil}, false)
	check(t, n, row.Row{int64(1)}, true)
}

func TestCase(t *testing.T) {
	e := &Case{
		Whens: []When{
			{Cond: &Cmp{Op: Gt, L: &Col{Idx: 0, T: row.TInt}, R: NewConst(int64(10))}, Then: NewConst("big")},
			{Cond: &Cmp{Op: Gt, L: &Col{Idx: 0, T: row.TInt}, R: NewConst(int64(0))}, Then: NewConst("small")},
		},
		Else: NewConst("neg"),
		T:    row.TString,
	}
	check(t, e, row.Row{int64(100)}, "big")
	check(t, e, row.Row{int64(5)}, "small")
	check(t, e, row.Row{int64(-1)}, "neg")
	check(t, &Case{Whens: e.Whens, T: row.TString}, row.Row{int64(-5)}, nil) // no ELSE: NULL
}

func TestCast(t *testing.T) {
	r := row.Row{int64(42), "3.5", 2.9, true}
	check(t, &Cast{E: &Col{Idx: 0, T: row.TInt}, To: row.TFloat}, r, 42.0)
	check(t, &Cast{E: &Col{Idx: 1, T: row.TString}, To: row.TFloat}, r, 3.5)
	check(t, &Cast{E: &Col{Idx: 2, T: row.TFloat}, To: row.TInt}, r, int64(2)) // truncates
	check(t, &Cast{E: &Col{Idx: 0, T: row.TInt}, To: row.TString}, r, "42")
	check(t, &Cast{E: &Col{Idx: 3, T: row.TBool}, To: row.TInt}, r, int64(1))
	check(t, &Cast{E: NewConst("junk"), To: row.TInt}, r, nil)
}

func TestNeg(t *testing.T) {
	check(t, &Neg{E: &Col{Idx: 0, T: row.TInt}, T: row.TInt}, row.Row{int64(5)}, int64(-5))
	check(t, &Neg{E: &Col{Idx: 0, T: row.TFloat}, T: row.TFloat}, row.Row{2.5}, -2.5)
	check(t, &Neg{E: &Col{Idx: 0, T: row.TInt}, T: row.TInt}, row.Row{nil}, nil)
}

func TestCallEval(t *testing.T) {
	f, _ := LookupBuiltin("SUBSTR")
	c, err := NewCall(f, []Expr{&Col{Idx: 0, T: row.TString}, NewConst(int64(1)), &Col{Idx: 1, T: row.TInt}})
	if err != nil {
		t.Fatal(err)
	}
	check(t, c, row.Row{"10.20.30.40", int64(5)}, "10.20")
	check(t, c, row.Row{nil, int64(5)}, nil)
}

func TestBuiltins(t *testing.T) {
	call := func(name string, args ...any) any {
		f, ok := LookupBuiltin(name)
		if !ok {
			t.Fatalf("missing builtin %s", name)
		}
		return f.Fn(args)
	}
	if got := call("SUBSTR", "255.255.255.1", int64(1), int64(7)); got.(string) != "255.255" {
		t.Errorf("SUBSTR = %v", got)
	}
	if got := call("SUBSTR", "hello", int64(2)); got.(string) != "ello" {
		t.Errorf("SUBSTR 1-arg-len = %v", got)
	}
	if got := call("SUBSTR", "hello", int64(-3)); got.(string) != "llo" {
		t.Errorf("SUBSTR negative = %v", got)
	}
	if got := call("SUBSTR", "hi", int64(10)); got.(string) != "" {
		t.Errorf("SUBSTR past end = %v", got)
	}
	// SUBSTR's edges, pinned by value: Fn and the vector form share the
	// scalar code, so comparing them with each other cannot see a bug in
	// it. 1-based, 0 ≡ 1, negatives from the end, clamped at both ends.
	for _, c := range []struct {
		args []any
		want any
	}{
		{[]any{"hello", int64(0)}, "hello"},
		{[]any{"hello", int64(0), int64(2)}, "he"},
		{[]any{"hello", int64(-9), int64(2)}, "he"},
		{[]any{"hello", int64(-2), int64(9)}, "lo"},
		{[]any{"hello", int64(5)}, "o"},
		{[]any{"hello", int64(6)}, ""},
		{[]any{"hello", int64(2), int64(0)}, ""},
		{[]any{"hello", int64(2), int64(-1)}, ""},
		{[]any{"hello", int64(2), int64(math.MaxInt64)}, "ello"},
		{[]any{"hello", int64(math.MinInt64), int64(1)}, "h"},
		{[]any{"", int64(1), int64(1)}, ""},
		{[]any{"hello", 2.9, 1.9}, "e"}, // float arguments truncate
		{[]any{nil, int64(1)}, nil},
		{[]any{"hello", nil}, nil},
		{[]any{"hello", int64(2), nil}, nil},
		{[]any{"hello", int64(9), nil}, ""}, // past the end wins over a NULL length
	} {
		if got := call("SUBSTR", c.args...); got != c.want {
			t.Errorf("SUBSTR%v = %#v, want %#v", c.args, got, c.want)
		}
	}
	if got := call("CONCAT", "a", int64(1), "b"); got.(string) != "a1b" {
		t.Errorf("CONCAT = %v", got)
	}
	if got := call("UPPER", "abc"); got.(string) != "ABC" {
		t.Errorf("UPPER = %v", got)
	}
	if got := call("LENGTH", "abcd"); got.(int64) != 4 {
		t.Errorf("LENGTH = %v", got)
	}
	if got := call("ABS", int64(-5)); got.(int64) != 5 {
		t.Errorf("ABS = %v", got)
	}
	if got := call("ROUND", 2.567, int64(1)); got.(float64) != 2.6 {
		t.Errorf("ROUND = %v", got)
	}
	if got := call("FLOOR", 2.9); got.(int64) != 2 {
		t.Errorf("FLOOR = %v", got)
	}
	d, _ := row.ParseDate("2000-01-15")
	if got := call("YEAR", d); got.(int64) != 2000 {
		t.Errorf("YEAR = %v", got)
	}
	if got := call("MONTH", d); got.(int64) != 1 {
		t.Errorf("MONTH = %v", got)
	}
	if got := call("IF", true, "a", "b"); got.(string) != "a" {
		t.Errorf("IF = %v", got)
	}
	if got := call("COALESCE", nil, nil, int64(3)); got.(int64) != 3 {
		t.Errorf("COALESCE = %v", got)
	}
}

func TestCallArity(t *testing.T) {
	f, _ := LookupBuiltin("SUBSTR")
	if _, err := NewCall(f, []Expr{NewConst("x")}); err == nil {
		t.Error("too few args must fail")
	}
	if _, err := NewCall(f, []Expr{NewConst("x"), NewConst(int64(1)), NewConst(int64(2)), NewConst(int64(3))}); err == nil {
		t.Error("too many args must fail")
	}
}

// TestEvalMatchesReferenceFold: over random integer arithmetic trees
// and random rows, Eval agrees with refFold, a fold of the same tree
// written without it.
func TestEvalMatchesReferenceFold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 3)
		for i := 0; i < 20; i++ {
			r := row.Row{int64(rng.Intn(100) - 50), rng.Float64() * 100}
			want, null := refFold(e, r)
			if got := e.Eval(r); null != (got == nil) || (!null && got != want) {
				t.Logf("%s over %v = %v, reference %v (null %v)", e, r, got, want, null)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refFold evaluates the trees randomExpr builds: int64 columns,
// literals and arithmetic, NULL from % or / by zero and from a NULL
// operand.
func refFold(e Expr, r row.Row) (v int64, null bool) {
	switch n := e.(type) {
	case *Col:
		return r[n.Idx].(int64), false
	case *Const:
		return n.V.(int64), false
	}
	a := e.(*Arith)
	x, xn := refFold(a.L, r)
	y, yn := refFold(a.R, r)
	if xn || yn || (y == 0 && (a.Op == Div || a.Op == Mod)) {
		return 0, true
	}
	switch a.Op {
	case Add:
		return x + y, false
	case Sub:
		return x - y, false
	case Mul:
		return x * y, false
	case Div:
		return x / y, false
	}
	return x % y, false
}

// randomExpr builds a random int-typed expression over columns
// {0: int, 1: float}.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return &Col{Idx: 0, T: row.TInt}
		case 1:
			return NewConst(int64(rng.Intn(20) - 10))
		default:
			return NewConst(int64(rng.Intn(5) + 1))
		}
	}
	l, r := randomExpr(rng, depth-1), randomExpr(rng, depth-1)
	return &Arith{Op: ArithOp(rng.Intn(5)), L: l, R: r, T: row.TInt}
}

// rowEvalCases are the shapes the row evaluator still serves per row:
// a conjunction of comparisons, an IN probe of a literal set and of an
// expression list, and a LIKE.
var rowEvalCases = []struct {
	name string
	e    Expr
}{
	{"and_cmp", &And{
		L: &Cmp{Op: Gt, L: &Col{Idx: 0, T: row.TInt}, R: NewConst(int64(10))},
		R: &Cmp{Op: Lt, L: &Col{Idx: 1, T: row.TFloat}, R: NewConst(99.5)},
	}},
	{"in_set", &In{E: &Col{Idx: 2, T: row.TString}, Set: NewInSet([]any{"US", "CA", "VN"})}},
	{"in_list", &In{E: &Col{Idx: 0, T: row.TInt}, List: []Expr{&Col{Idx: 3, T: row.TInt}, NewConst(int64(50))}}},
	{"like", NewLike(&Col{Idx: 4, T: row.TString}, "http://%.com", false)},
}

var rowEvalRow = row.Row{int64(50), 42.0, "VN", int64(7), "http://example.com"}

// TestEvalDoesNotAllocate: evaluating a predicate builds nothing per
// row — no closure tree, no boxed intermediate.
func TestEvalDoesNotAllocate(t *testing.T) {
	for _, c := range rowEvalCases {
		if c.e.Eval(rowEvalRow) != true {
			t.Errorf("%s: %s over %v is not true", c.name, c.e, rowEvalRow)
		}
		if n := testing.AllocsPerRun(200, func() { sink = c.e.Eval(rowEvalRow) }); n != 0 {
			t.Errorf("%s: %v allocations per row, want 0", c.name, n)
		}
	}
}

var sink any

// BenchmarkRowEval times Eval, the engine's one row-at-a-time
// evaluator, on each of rowEvalCases.
func BenchmarkRowEval(b *testing.B) {
	for _, c := range rowEvalCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = c.e.Eval(rowEvalRow)
			}
		})
	}
}
