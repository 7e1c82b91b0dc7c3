package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shark/internal/row"
)

// evalBoth checks that the interpreter and the compiled closure agree,
// then returns the value.
func evalBoth(t *testing.T, e Expr, r row.Row) any {
	t.Helper()
	a := e.Eval(r)
	b := e.Compile()(r)
	if (a == nil) != (b == nil) || (a != nil && !row.Equal(a, b)) {
		t.Fatalf("interpreted %v != compiled %v for %s", a, b, e)
	}
	return a
}

func TestColAndConst(t *testing.T) {
	r := row.Row{int64(42), "hi"}
	c := &Col{Idx: 0, Name: "a", T: row.TInt}
	if evalBoth(t, c, r).(int64) != 42 {
		t.Error("col")
	}
	k := NewConst("x")
	if evalBoth(t, k, r).(string) != "x" {
		t.Error("const")
	}
}

func TestArithInt(t *testing.T) {
	a := &Col{Idx: 0, T: row.TInt}
	b := &Col{Idx: 1, T: row.TInt}
	r := row.Row{int64(17), int64(5)}
	for _, tc := range []struct {
		op   ArithOp
		want int64
	}{{Add, 22}, {Sub, 12}, {Mul, 85}, {Div, 3}, {Mod, 2}} {
		e := &Arith{Op: tc.op, L: a, R: b, T: row.TInt}
		if got := evalBoth(t, e, r).(int64); got != tc.want {
			t.Errorf("op %v = %d, want %d", tc.op, got, tc.want)
		}
	}
}

func TestArithFloatAndMixed(t *testing.T) {
	a := &Col{Idx: 0, T: row.TFloat}
	b := &Col{Idx: 1, T: row.TInt}
	r := row.Row{2.5, int64(2)}
	e := &Arith{Op: Mul, L: a, R: b, T: row.TFloat}
	if got := evalBoth(t, e, r).(float64); got != 5.0 {
		t.Errorf("mixed mul = %v", got)
	}
}

func TestArithNullPropagation(t *testing.T) {
	e := &Arith{Op: Add, L: &Col{Idx: 0, T: row.TInt}, R: NewConst(int64(1)), T: row.TInt}
	if evalBoth(t, e, row.Row{nil}) != nil {
		t.Error("NULL + 1 must be NULL")
	}
}

func TestDivByZero(t *testing.T) {
	e := &Arith{Op: Div, L: NewConst(int64(1)), R: NewConst(int64(0)), T: row.TInt}
	if evalBoth(t, e, nil) != nil {
		t.Error("x/0 must be NULL")
	}
	f := &Arith{Op: Mod, L: NewConst(2.0), R: NewConst(0.0), T: row.TFloat}
	if evalBoth(t, f, nil) != nil {
		t.Error("x%0.0 must be NULL")
	}
}

func TestCmp(t *testing.T) {
	r := row.Row{int64(10), int64(20), "abc", nil}
	a := &Col{Idx: 0, T: row.TInt}
	b := &Col{Idx: 1, T: row.TInt}
	for _, tc := range []struct {
		op   CmpOp
		want bool
	}{{Lt, true}, {Le, true}, {Gt, false}, {Ge, false}, {Eq, false}, {Ne, true}} {
		e := &Cmp{Op: tc.op, L: a, R: b}
		if got := evalBoth(t, e, r).(bool); got != tc.want {
			t.Errorf("10 %v 20 = %v", tc.op, got)
		}
	}
	// NULL comparisons are false
	n := &Cmp{Op: Eq, L: &Col{Idx: 3, T: row.TInt}, R: a}
	if evalBoth(t, n, r).(bool) {
		t.Error("NULL = x must be false")
	}
	// cross numeric
	x := &Cmp{Op: Eq, L: NewConst(int64(2)), R: NewConst(2.0)}
	if !evalBoth(t, x, r).(bool) {
		t.Error("2 = 2.0")
	}
}

func TestLogic(t *testing.T) {
	tr, fa := NewConst(true), NewConst(false)
	if !evalBoth(t, &And{tr, tr}, nil).(bool) || evalBoth(t, &And{tr, fa}, nil).(bool) {
		t.Error("AND")
	}
	if !evalBoth(t, &Or{fa, tr}, nil).(bool) || evalBoth(t, &Or{fa, fa}, nil).(bool) {
		t.Error("OR")
	}
	if evalBoth(t, &Not{tr}, nil).(bool) || !evalBoth(t, &Not{fa}, nil).(bool) {
		t.Error("NOT")
	}
}

func TestInSet(t *testing.T) {
	e := &In{E: &Col{Idx: 0, T: row.TString}, Set: NewInSet([]any{"US", "CA"})}
	if !evalBoth(t, e, row.Row{"US"}).(bool) {
		t.Error("US in set")
	}
	if evalBoth(t, e, row.Row{"VN"}).(bool) {
		t.Error("VN not in set")
	}
	inv := &In{E: &Col{Idx: 0, T: row.TString}, Set: NewInSet([]any{"US"}), Invert: true}
	if !evalBoth(t, inv, row.Row{"VN"}).(bool) {
		t.Error("NOT IN")
	}
	if evalBoth(t, inv, row.Row{nil}).(bool) {
		t.Error("NULL NOT IN (...) is false (unknown)")
	}
}

func TestInSetNumericCrossType(t *testing.T) {
	e := &In{E: &Col{Idx: 0, T: row.TFloat}, Set: NewInSet([]any{int64(5)})}
	if !evalBoth(t, e, row.Row{5.0}).(bool) {
		t.Error("5.0 IN (5)")
	}
}

func TestLike(t *testing.T) {
	e := NewLike(&Col{Idx: 0, T: row.TString}, "http%", false)
	if !evalBoth(t, e, row.Row{"http://x"}).(bool) {
		t.Error("prefix match")
	}
	if evalBoth(t, e, row.Row{"ftp://x"}).(bool) {
		t.Error("no match")
	}
	u := NewLike(&Col{Idx: 0, T: row.TString}, "a_c", false)
	if !evalBoth(t, u, row.Row{"abc"}).(bool) || evalBoth(t, u, row.Row{"abbc"}).(bool) {
		t.Error("underscore")
	}
	dot := NewLike(&Col{Idx: 0, T: row.TString}, "a.c", false)
	if evalBoth(t, dot, row.Row{"axc"}).(bool) {
		t.Error("regex metachars must be quoted")
	}
}

func TestIsNull(t *testing.T) {
	e := &IsNull{E: &Col{Idx: 0, T: row.TInt}}
	if !evalBoth(t, e, row.Row{nil}).(bool) || evalBoth(t, e, row.Row{int64(1)}).(bool) {
		t.Error("IS NULL")
	}
	n := &IsNull{E: &Col{Idx: 0, T: row.TInt}, Invert: true}
	if evalBoth(t, n, row.Row{nil}).(bool) || !evalBoth(t, n, row.Row{int64(1)}).(bool) {
		t.Error("IS NOT NULL")
	}
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
	for _, tc := range []struct {
		in   int64
		want string
	}{{100, "big"}, {5, "small"}, {-1, "neg"}} {
		if got := evalBoth(t, e, row.Row{tc.in}).(string); got != tc.want {
			t.Errorf("case(%d) = %q", tc.in, got)
		}
	}
	noElse := &Case{Whens: e.Whens, T: row.TString}
	if evalBoth(t, noElse, row.Row{int64(-5)}) != nil {
		t.Error("missing ELSE yields NULL")
	}
}

func TestCast(t *testing.T) {
	r := row.Row{int64(42), "3.5", 2.9, true}
	if evalBoth(t, &Cast{E: &Col{Idx: 0, T: row.TInt}, To: row.TFloat}, r).(float64) != 42.0 {
		t.Error("int→float")
	}
	if evalBoth(t, &Cast{E: &Col{Idx: 1, T: row.TString}, To: row.TFloat}, r).(float64) != 3.5 {
		t.Error("string→float")
	}
	if evalBoth(t, &Cast{E: &Col{Idx: 2, T: row.TFloat}, To: row.TInt}, r).(int64) != 2 {
		t.Error("float→int truncates")
	}
	if evalBoth(t, &Cast{E: &Col{Idx: 0, T: row.TInt}, To: row.TString}, r).(string) != "42" {
		t.Error("int→string")
	}
	if evalBoth(t, &Cast{E: &Col{Idx: 3, T: row.TBool}, To: row.TInt}, r).(int64) != 1 {
		t.Error("bool→int")
	}
	if evalBoth(t, &Cast{E: NewConst("junk"), To: row.TInt}, r) != nil {
		t.Error("bad cast yields NULL")
	}
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

func TestCompiledMatchesInterpretedProperty(t *testing.T) {
	// Random arithmetic/comparison trees over random rows must agree
	// between the two evaluators.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 3)
		compiled := e.Compile()
		for i := 0; i < 20; i++ {
			r := row.Row{int64(rng.Intn(100) - 50), rng.Float64() * 100}
			a := e.Eval(r)
			b := compiled(r)
			if (a == nil) != (b == nil) {
				return false
			}
			if a != nil && !row.Equal(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
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

func BenchmarkCompiledVsInterpreted(b *testing.B) {
	// the §5 "bytecode compilation" ablation in micro form
	e := &And{
		L: &Cmp{Op: Gt, L: &Col{Idx: 0, T: row.TInt}, R: NewConst(int64(10))},
		R: &Cmp{Op: Lt, L: &Col{Idx: 1, T: row.TFloat}, R: NewConst(99.5)},
	}
	r := row.Row{int64(50), 42.0}
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = e.Eval(r)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		f := e.Compile()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = f(r)
		}
	})
}
