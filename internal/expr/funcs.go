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
	// cached tables when every argument of a call is a typed vector or a
	// literal. It is called once per task with the kind of each argument
	// (VecInt, VecFloat or VecStr) and returns a kernel for them and the
	// kind of its result — or nil when it has none for those kinds, and
	// the call then goes through Fn row by row. For every row the kernel
	// must yield exactly what Fn returns on that row's boxed arguments.
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

var builtins = map[string]*UDF{
	"SUBSTR": {
		Name: "SUBSTR", Ret: row.TString, MinArgs: 2, MaxArgs: 3, RetFromArg: -1,
		Fn: func(args []any) any {
			s, ok := args[0].(string)
			if !ok {
				return nil
			}
			start, ok := row.AsInt(args[1])
			if !ok {
				return nil
			}
			from, end := substrStart(s, start), int64(len(s))
			if from >= end {
				return ""
			}
			if len(args) == 3 {
				l, ok := row.AsInt(args[2])
				if !ok {
					return nil
				}
				end = substrEnd(s, from, l)
			}
			return s[from:end]
		},
		Vec: substrVec,
	},
	"CONCAT": {
		Name: "CONCAT", Ret: row.TString, MinArgs: 1, MaxArgs: -1, RetFromArg: -1,
		Fn: func(args []any) any {
			var b strings.Builder
			for _, a := range args {
				if a == nil {
					return nil
				}
				b.WriteString(row.FormatValue(a))
			}
			return b.String()
		},
	},
	"LOWER": {
		Name: "LOWER", Ret: row.TString, MinArgs: 1, MaxArgs: 1, RetFromArg: -1,
		Fn: strFn(strings.ToLower),
	},
	"UPPER": {
		Name: "UPPER", Ret: row.TString, MinArgs: 1, MaxArgs: 1, RetFromArg: -1,
		Fn: strFn(strings.ToUpper),
	},
	"LENGTH": {
		Name: "LENGTH", Ret: row.TInt, MinArgs: 1, MaxArgs: 1, RetFromArg: -1,
		Fn: func(args []any) any {
			s, ok := args[0].(string)
			if !ok {
				return nil
			}
			return int64(len(s))
		},
		Vec: lengthVec,
	},
	"ABS": {
		Name: "ABS", Ret: row.TFloat, MinArgs: 1, MaxArgs: 1, RetFromArg: 0,
		Fn: func(args []any) any {
			switch x := args[0].(type) {
			case int64:
				return absInt(x)
			case float64:
				return math.Abs(x)
			}
			return nil
		},
		Vec: absVec,
	},
	"ROUND": {
		Name: "ROUND", Ret: row.TFloat, MinArgs: 1, MaxArgs: 2, RetFromArg: -1,
		Fn: func(args []any) any {
			f, ok := row.AsFloat(args[0])
			if !ok {
				return nil
			}
			if len(args) == 2 {
				d, ok := row.AsInt(args[1])
				if !ok {
					return nil
				}
				p := math.Pow(10, float64(d))
				return math.Round(f*p) / p
			}
			return math.Round(f)
		},
	},
	"FLOOR": {
		Name: "FLOOR", Ret: row.TInt, MinArgs: 1, MaxArgs: 1, RetFromArg: -1,
		Fn: func(args []any) any {
			f, ok := row.AsFloat(args[0])
			if !ok {
				return nil
			}
			return int64(math.Floor(f))
		},
	},
	"CEIL": {
		Name: "CEIL", Ret: row.TInt, MinArgs: 1, MaxArgs: 1, RetFromArg: -1,
		Fn: func(args []any) any {
			f, ok := row.AsFloat(args[0])
			if !ok {
				return nil
			}
			return int64(math.Ceil(f))
		},
	},
	"YEAR":  dateField("YEAR", func(t time.Time) int64 { return int64(t.Year()) }),
	"MONTH": dateField("MONTH", func(t time.Time) int64 { return int64(t.Month()) }),
	"DAY":   dateField("DAY", func(t time.Time) int64 { return int64(t.Day()) }),
	"IF": {
		Name: "IF", Ret: row.TNull, MinArgs: 3, MaxArgs: 3, RetFromArg: 1,
		Fn: func(args []any) any {
			if row.Truth(args[0]) {
				return args[1]
			}
			return args[2]
		},
	},
	"COALESCE": {
		Name: "COALESCE", Ret: row.TNull, MinArgs: 1, MaxArgs: -1, RetFromArg: 0,
		Fn: func(args []any) any {
			for _, a := range args {
				if a != nil {
					return a
				}
			}
			return nil
		},
	},
	"POW": {
		Name: "POW", Ret: row.TFloat, MinArgs: 2, MaxArgs: 2, RetFromArg: -1,
		Fn: func(args []any) any {
			a, ok1 := row.AsFloat(args[0])
			b, ok2 := row.AsFloat(args[1])
			if !ok1 || !ok2 {
				return nil
			}
			return math.Pow(a, b)
		},
	},
	"SQRT": {
		Name: "SQRT", Ret: row.TFloat, MinArgs: 1, MaxArgs: 1, RetFromArg: -1,
		Fn: func(args []any) any {
			f, ok := row.AsFloat(args[0])
			if !ok || f < 0 {
				return nil
			}
			return math.Sqrt(f)
		},
	},
}

func strFn(f func(string) string) func([]any) any {
	return func(args []any) any {
		s, ok := args[0].(string)
		if !ok {
			return nil
		}
		return f(s)
	}
}

func dateField(name string, f func(time.Time) int64) *UDF {
	return &UDF{
		Name: name, Ret: row.TInt, MinArgs: 1, MaxArgs: 1, RetFromArg: -1,
		Fn: func(args []any) any {
			d, ok := row.AsInt(args[0])
			if !ok {
				return nil
			}
			return f(dateOf(d))
		},
		Vec: dateFieldVec(f),
	}
}

// The scalar code Fn and Vec share.

// substrStart maps SUBSTR's start argument to a byte offset into s:
// Hive SUBSTR is 1-based; 0 behaves like 1; negatives count from the
// end. An offset at or past len(s) selects the empty string.
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
