package expr

import (
	"fmt"
	"math"
	"strings"
	"time"

	"shark/internal/columnar"
	"shark/internal/row"
)

// UDF is a scalar function implementation: built-in or user-defined.
// The optimizer deliberately treats UDFs as black boxes with unknown
// selectivity — exactly the situation that motivates PDE (§3.1).
type UDF struct {
	Name    string
	Ret     row.Type
	MinArgs int
	MaxArgs int // -1 = variadic
	Fn      func(args []any) any
	// RetFromArg, when >= 0, makes the return type follow the type of
	// that argument (e.g. ABS, ROUND on ints).
	RetFromArg int
	// Vec, when non-nil, is the function's vector form, used by scans of
	// cached tables. It is called once per task with the kind of each
	// argument's vector and returns a kernel for them and the kind of
	// its result, or nil when it has none for those kinds: the call then
	// runs Fn row by row over boxed arguments (exec's row adapter). For
	// every row the kernel must yield exactly what Fn returns on that
	// row's boxed arguments, Go type included. Every scalar built-in
	// has one, derived with its Fn from one definition over typed
	// values; IF and COALESCE are bound by exec, with CASE. A user UDF
	// without one is a black box the adapter runs.
	Vec func(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind)
}

// Call invokes a UDF over argument expressions.
type Call struct {
	F    *UDF
	Args []Expr
	T    row.Type
}

// NewCall type-checks arity and constructs the call node.
func NewCall(f *UDF, args []Expr) (*Call, error) {
	if len(args) < f.MinArgs || (f.MaxArgs >= 0 && len(args) > f.MaxArgs) {
		return nil, fmt.Errorf("expr: %s expects %d..%d args, got %d", f.Name, f.MinArgs, f.MaxArgs, len(args))
	}
	t := f.Ret
	if f.RetFromArg >= 0 && f.RetFromArg < len(args) {
		t = args[f.RetFromArg].Type()
	}
	return &Call{F: f, Args: args, T: t}, nil
}

// Type implements Expr.
func (c *Call) Type() row.Type { return c.T }

// String implements Expr.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.F.Name, strings.Join(parts, ", "))
}

// Eval implements Expr.
func (c *Call) Eval(r row.Row) any {
	args := make([]any, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.Eval(r)
	}
	return c.F.Fn(args)
}

// Compile implements Expr: it is Eval, kept for bench/layers.go:457.
func (c *Call) Compile() EvalFn { return c.Eval }

// LookupBuiltin finds a built-in by name (case-insensitive).
func LookupBuiltin(name string) (*UDF, bool) {
	f, ok := builtins[strings.ToUpper(name)]
	return f, ok
}

// If and Coalesce return one of their arguments as it is. They have no
// typed definition: exec binds them, as it binds CASE, by evaluating
// each argument only at the rows that return it.
var (
	If = &UDF{
		Name: "IF", Ret: row.TNull, MinArgs: 3, MaxArgs: 3, RetFromArg: 1,
		Fn: func(args []any) any {
			if row.Truth(args[0]) {
				return args[1]
			}
			return args[2]
		},
	}
	Coalesce = &UDF{
		Name: "COALESCE", Ret: row.TNull, MinArgs: 1, MaxArgs: -1, RetFromArg: 0,
		Fn: func(args []any) any {
			for _, a := range args {
				if a != nil {
					return a
				}
			}
			return nil
		},
	}
)

var builtins = map[string]*UDF{
	"SUBSTR": builtin("SUBSTR", row.TString, 2, 3, -1, byArity(2, fn(func(s string, start int64, _ none) (string, bool) {
		return substr(s, start, math.MaxInt64)
	}), fn(substr))),
	"CONCAT": builtin("CONCAT", row.TString, 1, -1, -1, concat()),
	"LOWER":  builtin("LOWER", row.TString, 1, 1, -1, fn(un(strings.ToLower))),
	"UPPER":  builtin("UPPER", row.TString, 1, 1, -1, fn(un(strings.ToUpper))),
	"LENGTH": builtin("LENGTH", row.TInt, 1, 1, -1, fn(un(func(s string) int64 { return int64(len(s)) }))),
	"ABS":    builtin("ABS", row.TFloat, 1, 1, 0, overload(fn(un(absInt)), fn(un(math.Abs)), def{})),
	"ROUND": builtin("ROUND", row.TFloat, 1, 2, -1, byArity(1, fn(un(math.Round)), fn(bin(func(f float64, d int64) float64 {
		p := math.Pow(10, float64(d))
		return math.Round(f*p) / p
	})))),
	"FLOOR":    builtin("FLOOR", row.TInt, 1, 1, -1, fn(un(func(f float64) int64 { return int64(math.Floor(f)) }))),
	"CEIL":     builtin("CEIL", row.TInt, 1, 1, -1, fn(un(func(f float64) int64 { return int64(math.Ceil(f)) }))),
	"YEAR":     dateField("YEAR", func(t time.Time) int64 { return int64(t.Year()) }),
	"MONTH":    dateField("MONTH", func(t time.Time) int64 { return int64(t.Month()) }),
	"DAY":      dateField("DAY", func(t time.Time) int64 { return int64(t.Day()) }),
	"IF":       If,
	"COALESCE": Coalesce,
	"POW":      builtin("POW", row.TFloat, 2, 2, -1, fn(bin(math.Pow))),
	"SQRT": builtin("SQRT", row.TFloat, 1, 1, -1, fn(func(f float64, _, _ none) (float64, bool) {
		return math.Sqrt(f), !(f < 0) // NaN stays NaN
	})),
}

func builtin(name string, ret row.Type, minArgs, maxArgs, retFromArg int, d def) *UDF {
	return &UDF{Name: name, Ret: ret, MinArgs: minArgs, MaxArgs: maxArgs, RetFromArg: retFromArg, Fn: d.fn, Vec: d.vec}
}

// dateField is YEAR, MONTH or DAY. Dates cluster (a cached table is
// usually loaded in date order, and RLE-encoded for it), so each kernel
// skips the calendar conversion while the day repeats.
func dateField(name string, field func(time.Time) int64) *UDF {
	d := fn(un(func(day int64) int64 { return field(dateOf(day)) }))
	d.vec = func(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
		var last, val int64
		have := false
		return fn(func(day int64, _, _ none) (int64, bool) {
			if !have || day != last {
				last, val, have = day, field(dateOf(day)), true
			}
			return val, true
		}).vec(kinds)
	}
	return builtin(name, row.TInt, 1, 1, -1, d)
}

// concat is CONCAT: its arguments cast to strings (castTo), joined;
// NULL when any argument is.
func concat() def {
	return def{
		fn: func(args []any) any {
			parts := make([]string, len(args))
			for k, a := range args {
				if a == nil {
					return nil
				}
				parts[k] = castValue(a, row.TString).(string)
			}
			return strings.Join(parts, "")
		},
		vec: func(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
			casts := make([]columnar.VecFn, len(kinds))
			for k := range kinds {
				if casts[k], _ = castTo[row.TString].vec(kinds[k : k+1]); casts[k] == nil {
					return nil, columnar.VecAny
				}
			}
			o, strs, parts := newOut[string](), make([]columnar.Vec, len(kinds)), make([]string, len(kinds))
			return func(sel []int32, args []columnar.Vec) columnar.Vec {
				for k, cast := range casts {
					strs[k] = cast(sel, args[k:k+1])
				}
				nulls := o.start(strs)
				for _, i := range sel {
					if !nulls.Has(int(i)) {
						for k := range strs {
							parts[k] = strs[k].Strs[i&strs[k].Mask]
						}
						o.vals[i] = strings.Join(parts, "")
					}
				}
				return o.vec()
			}, columnar.VecStr
		},
	}
}

// castTo is CAST's definition for each target type, over each source
// type (castValue adds a boolean source or target).
var castTo = map[row.Type]def{
	row.TInt: overload(fn(un(func(x int64) int64 { return x })), fn(un(func(x float64) int64 { return int64(x) })),
		fn(parse[int64](row.TInt))),
	row.TFloat: overload(fn(un(func(x int64) float64 { return float64(x) })), fn(un(func(x float64) float64 { return x })),
		fn(parse[float64](row.TFloat))),
	row.TString: overload(fn(un(format[int64])), fn(un(format[float64])), fn(un(func(x string) string { return x }))),
}

// format is a value's text, as row.FormatValue writes it.
func format[T scalar](x T) string { return row.FormatValue(x) }

func init() { castTo[row.TDate] = castTo[row.TInt] }

// parse reads a string, spaces around it ignored, as a T of type t;
// NULL when it does not parse.
func parse[T scalar](t row.Type) func(string, none, none) (T, bool) {
	return func(s string, _, _ none) (T, bool) {
		v, err := row.ParseValue(strings.TrimSpace(s), t)
		x, ok := v.(T)
		return x, err == nil && ok
	}
}

// ---------------------------------------------------------------------------
// Lifting a definition to its row and vector forms

// scalar is a type a built-in's definition reads or returns; none is
// a parameter that is not there.
type scalar interface {
	int64 | float64 | string | none
}

type none struct{}

// def is a function's row form (UDF.Fn) and vector form (UDF.Vec).
type def struct {
	fn  func(args []any) any
	vec func(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind)
}

// un and bin make definitions of one and two parameters of functions
// that are never NULL.
func un[A, R scalar](f func(A) R) func(A, none, none) (R, bool) {
	return func(a A, _, _ none) (R, bool) { return f(a), true }
}

func bin[A, B, R scalar](f func(A, B) R) func(A, B, none) (R, bool) {
	return func(a A, b B, _ none) (R, bool) { return f(a, b), true }
}

// fn lifts a definition over typed values to both forms. An argument
// is converted to its parameter's type as as converts it, and a NULL
// argument, or a definition's false, is NULL.
func fn[A, B, C, R scalar](f func(A, B, C) (R, bool)) def {
	return def{
		fn: func(args []any) any {
			a, ok1 := as[A](args, 0)
			b, ok2 := as[B](args, 1)
			c, ok3 := as[C](args, 2)
			if !ok1 || !ok2 || !ok3 {
				return nil
			}
			if r, ok := f(a, b, c); ok {
				return r
			}
			return nil
		},
		vec: func(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
			if !accepts[A](kinds, 0) || !accepts[B](kinds, 1) || !accepts[C](kinds, 2) {
				return nil, columnar.VecAny
			}
			var pa param[A]
			var pb param[B]
			var pc param[C]
			o := newOut[R]()
			return func(sel []int32, args []columnar.Vec) columnar.Vec {
				a, am := pa.read(args, 0, sel)
				b, bm := pb.read(args, 1, sel)
				c, cm := pc.read(args, 2, sel)
				o.start(args)
				o.some = each(f, sel, a, am, b, bm, c, cm, o.vals, o.nulls, o.some)
				return o.vec()
			}, kindOf[R]()
		},
	}
}

// each sets out[i] = f(a[i], b[i], c[i]) at the rows of sel not NULL
// in nulls (which has a bit set only if some), and NULL where f says
// so. It reports whether nulls has a bit set.
func each[A, B, C, R scalar](f func(A, B, C) (R, bool), sel []int32, a []A, am int32, b []B, bm int32, c []C, cm int32, out []R, nulls columnar.Bitmap, some bool) bool {
	for _, i := range sel {
		if some && nulls.Has(int(i)) {
			continue
		}
		r, ok := f(a[i&am], b[i&bm], c[i&cm])
		out[i] = r
		if !ok {
			nulls.Set(int(i))
			some = true
		}
	}
	return some
}

// byArity picks a definition by the number of arguments: lo or lo+1.
func byArity(lo int, short, long def) def {
	pick := func(n int) def { return [2]def{short, long}[n-lo] }
	return def{
		fn: func(args []any) any { return pick(len(args)).fn(args) },
		vec: func(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
			return pick(len(kinds)).vec(kinds)
		},
	}
}

// overload picks among definitions over a BIGINT, a DOUBLE and a
// STRING first argument by that argument's type; any other is NULL. A
// zero def has no form for its type.
func overload(i, f, s def) def {
	defs := [...]def{columnar.VecInt: i, columnar.VecFloat: f, columnar.VecStr: s}
	return def{
		fn: func(args []any) any {
			var d def
			switch args[0].(type) {
			case int64:
				d = i
			case float64:
				d = f
			case string:
				d = s
			}
			if d.fn == nil {
				return nil
			}
			return d.fn(args)
		},
		vec: func(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
			if d := defs[kinds[0]]; d.vec != nil {
				return d.vec(kinds)
			}
			return nil, columnar.VecAny
		},
	}
}

// as converts argument k to a T as the row forms always have: BIGINT
// and DOUBLE each to the other (a DOUBLE truncates), a STRING only from
// a string. NULL, and anything else, is not a T; an absent argument is
// a none.
func as[T scalar](args []any, k int) (T, bool) {
	var t T
	if k >= len(args) {
		_, ok := any(t).(none)
		return t, ok
	}
	ok := false
	switch p := any(&t).(type) {
	case *int64:
		*p, ok = row.AsInt(args[k])
	case *float64:
		*p, ok = row.AsFloat(args[k])
	case *string:
		*p, ok = args[k].(string)
	}
	return t, ok
}

// kindOf is the vector kind that holds Ts (VecAny for none).
func kindOf[T scalar]() columnar.VecKind {
	switch any(*new(T)).(type) {
	case int64:
		return columnar.VecInt
	case float64:
		return columnar.VecFloat
	case string:
		return columnar.VecStr
	}
	return columnar.VecAny
}

// accepts reports whether argument k's vectors convert to Ts as as
// converts its values: its own kind, or one number from the other.
func accepts[T scalar](kinds []columnar.VecKind, k int) bool {
	want := kindOf[T]()
	if k >= len(kinds) {
		return want == columnar.VecAny
	}
	number := func(k columnar.VecKind) bool { return k == columnar.VecInt || k == columnar.VecFloat }
	return kinds[k] == want || number(kinds[k]) && number(want)
}

// param reads an argument's vectors as a parameter of type T.
type param[T scalar] struct{ buf []T }

// read returns argument k's values as Ts, indexed i&mask: its own, or
// the other number kind's converted into the param's buffer; none for
// an absent argument.
func (p *param[T]) read(args []columnar.Vec, k int, sel []int32) ([]T, int32) {
	if k >= len(args) {
		return make([]T, 1), 0 // of none, which take no memory
	}
	v := &args[k]
	if p.buf == nil && v.Kind != kindOf[T]() {
		p.buf = make([]T, columnar.BatchSize)
	}
	switch buf := any(p.buf).(type) {
	case []int64:
		if v.Kind == columnar.VecFloat {
			convert(v.Floats, v.Mask, sel, buf)
			return p.buf, v.Mask
		}
		return any(v.Ints).([]T), v.Mask
	case []float64:
		if v.Kind == columnar.VecInt {
			convert(v.Ints, v.Mask, sel, buf)
			return p.buf, v.Mask
		}
		return any(v.Floats).([]T), v.Mask
	}
	return any(v.Strs).([]T), v.Mask
}

func convert[F, T int64 | float64](xs []F, mask int32, sel []int32, out []T) {
	if mask == 0 {
		out[0] = T(xs[0])
		return
	}
	for _, i := range sel {
		out[i] = T(xs[i])
	}
}

// out is a kernel's result vector, reused batch to batch.
type out[R scalar] struct {
	vals  []R
	nulls columnar.Bitmap
	some  bool // nulls may have a bit set
}

func newOut[R scalar]() *out[R] {
	return &out[R]{vals: make([]R, columnar.BatchSize), nulls: make(columnar.Bitmap, columnar.BatchSize/64)}
}

// start sets the result's NULLs to the union of args' and returns them.
func (o *out[R]) start(args []columnar.Vec) columnar.Bitmap {
	clear(o.nulls)
	o.some = false
	for k := range args {
		for w, x := range args[k].Nulls {
			o.nulls[w] |= x
		}
		o.some = o.some || args[k].Nulls != nil
	}
	return o.nulls
}

func (o *out[R]) vec() columnar.Vec {
	v := columnar.Vec{Kind: kindOf[R](), Mask: -1}
	if o.some {
		v.Nulls = o.nulls
	}
	v.Ints, _ = any(o.vals).([]int64)
	v.Floats, _ = any(o.vals).([]float64)
	v.Strs, _ = any(o.vals).([]string)
	return v
}

// ---------------------------------------------------------------------------
// The scalar code of the definitions

// substr is SUBSTR: Hive's is 1-based, 0 behaves like 1, a negative
// start counts from the end; at most l bytes, none for a negative l. A
// start at or past the end selects the empty string.
func substr(s string, start, l int64) (string, bool) {
	from := substrStart(s, start)
	if from >= int64(len(s)) {
		return "", true
	}
	return s[from:substrEnd(s, from, l)], true // shares s's bytes
}

// substrStart maps SUBSTR's start argument to a byte offset into s.
func substrStart(s string, start int64) int64 {
	switch n := int64(len(s)); {
	case start > 0:
		return start - 1
	case start < -n:
		return 0
	case start < 0:
		return n + start
	}
	return 0
}

// substrEnd is the end offset of the at most l bytes from offset
// from < len(s); a negative length selects none.
func substrEnd(s string, from, l int64) int64 {
	if l < 0 {
		l = 0
	}
	if n := int64(len(s)); l < n-from {
		return from + l
	}
	return int64(len(s))
}

func absInt(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// dateOf converts a DATE (days since the Unix epoch) to a time.
func dateOf(day int64) time.Time { return time.Unix(day*86400, 0).UTC() }
