package expr

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"shark/internal/columnar"
)

// vecOf builds a full-width vector (Mask -1) or, for a one-value
// column, a literal (Mask 0) from boxed values; nil is NULL.
func vecOf(kind columnar.VecKind, vals []any) columnar.Vec {
	v := columnar.Vec{Kind: kind, Mask: -1}
	if len(vals) == 1 {
		v.Mask = 0
	} else {
		v.Nulls = make(columnar.Bitmap, (len(vals)+63)/64)
	}
	for i, x := range vals {
		if x == nil {
			v.Nulls.Set(i)
		}
		switch kind {
		case columnar.VecInt:
			n, _ := x.(int64)
			v.Ints = append(v.Ints, n)
		case columnar.VecFloat:
			f, _ := x.(float64)
			v.Floats = append(v.Floats, f)
		case columnar.VecStr:
			s, _ := x.(string)
			v.Strs = append(v.Strs, s)
		}
	}
	return v
}

// TestVecFormsMatchFn: every built-in's vector form returns, at every
// selected row, exactly what Fn returns on that row's boxed arguments —
// NULLs, literal (Mask 0) arguments and SUBSTR's edge cases (start 0,
// negative, before the beginning, past the end; length 0, negative,
// huge, NULL) included.
func TestVecFormsMatchFn(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 700
	sel := make([]int32, 0, n)
	for i := int32(0); i < n; i++ {
		if i%3 != 1 { // a sparse selection: unselected positions stay untouched
			sel = append(sel, i)
		}
	}
	column := func(gen func() any) []any {
		out := make([]any, n)
		for i := range out {
			if rng.Intn(5) > 0 {
				out[i] = gen()
			}
		}
		return out
	}
	strs := func() []any {
		return column(func() any { return []string{"", "a", "héllo", "10.20.30.40", "shark"}[rng.Intn(5)] })
	}
	smallInts := func() []any { return column(func() any { return int64(rng.Intn(31) - 15) }) }
	cases := []struct {
		fn    string
		kinds []columnar.VecKind
		args  [][]any
	}{
		{"SUBSTR", []columnar.VecKind{columnar.VecStr, columnar.VecInt}, [][]any{strs(), smallInts()}},
		{"SUBSTR", []columnar.VecKind{columnar.VecStr, columnar.VecInt, columnar.VecInt}, [][]any{strs(), smallInts(), smallInts()}},
		{"SUBSTR", []columnar.VecKind{columnar.VecStr, columnar.VecInt, columnar.VecInt}, [][]any{strs(), {int64(1)}, {int64(7)}}},
		{"SUBSTR", []columnar.VecKind{columnar.VecStr, columnar.VecInt, columnar.VecInt}, [][]any{strs(), {int64(-3)}, {int64(math.MaxInt64)}}},
		{"SUBSTR", []columnar.VecKind{columnar.VecStr, columnar.VecInt, columnar.VecInt}, [][]any{{"10.20.30.40"}, smallInts(), {int64(0)}}},
		{"SUBSTR", []columnar.VecKind{columnar.VecStr, columnar.VecInt, columnar.VecInt}, [][]any{strs(), {int64(math.MinInt64)}, smallInts()}},
		{"LENGTH", []columnar.VecKind{columnar.VecStr}, [][]any{strs()}},
		{"LENGTH", []columnar.VecKind{columnar.VecStr}, [][]any{{"literal"}}},
		{"ABS", []columnar.VecKind{columnar.VecInt}, [][]any{column(func() any { return rng.Int63() - 1<<62 })}},
		{"ABS", []columnar.VecKind{columnar.VecInt}, [][]any{{int64(math.MinInt64)}}},
		{"ABS", []columnar.VecKind{columnar.VecFloat}, [][]any{column(func() any { return rng.NormFloat64() })}},
		{"ABS", []columnar.VecKind{columnar.VecFloat}, [][]any{{math.Inf(-1)}}},
	}
	for _, f := range []string{"YEAR", "MONTH", "DAY"} {
		cases = append(cases, struct {
			fn    string
			kinds []columnar.VecKind
			args  [][]any
		}{f, []columnar.VecKind{columnar.VecInt}, [][]any{column(func() any { return int64(rng.Intn(40000) - 15000 - rng.Intn(2)) })}})
	}
	for _, c := range cases {
		f, _ := LookupBuiltin(c.fn)
		kernel, kind := f.Vec(c.kinds)
		if kernel == nil {
			t.Fatalf("%s has no vector form for %v", c.fn, c.kinds)
		}
		vecs := make([]columnar.Vec, len(c.args))
		for k, col := range c.args {
			vecs[k] = vecOf(c.kinds[k], col)
		}
		for pass := 0; pass < 2; pass++ { // twice: the kernel reuses its buffers
			out := kernel(sel, vecs)
			if out.Kind != kind {
				t.Fatalf("%s%v: kernel yields kind %v, bound as %v", c.fn, c.kinds, out.Kind, kind)
			}
			for _, i := range sel {
				boxed := make([]any, len(vecs))
				for k := range vecs {
					boxed[k] = vecs[k].At(i)
				}
				want, got := f.Fn(boxed), out.At(i)
				if got != want && !(isNaN(got) && isNaN(want)) {
					t.Fatalf("%s%v: row %d: vector form = %#v, Fn = %#v", c.fn, boxed, i, got, want)
				}
			}
		}
	}

	// Kinds Fn handles only by converting are left to the row adapter.
	for fn, kinds := range map[string][]columnar.VecKind{
		"SUBSTR": {columnar.VecStr, columnar.VecFloat}, "LENGTH": {columnar.VecInt}, "ABS": {columnar.VecStr}, "YEAR": {columnar.VecFloat},
	} {
		f, _ := LookupBuiltin(fn)
		if kernel, _ := f.Vec(kinds); kernel != nil {
			t.Errorf("%s binds a vector form for %v", fn, kinds)
		}
	}
}

func isNaN(v any) bool {
	f, ok := v.(float64)
	return ok && math.IsNaN(f)
}

// TestSubstrVecSharesInput: the SUBSTR kernel's results are sub-strings
// of its input — no bytes are copied per row — and the kernel allocates
// nothing per batch.
func TestSubstrVecSharesInput(t *testing.T) {
	f, _ := LookupBuiltin("SUBSTR")
	kernel, _ := f.Vec([]columnar.VecKind{columnar.VecStr, columnar.VecInt, columnar.VecInt})
	in := vecOf(columnar.VecStr, []any{"158.112.27.3", "10.0.0.1"})
	args := []columnar.Vec{in, vecOf(columnar.VecInt, []any{int64(1)}), vecOf(columnar.VecInt, []any{int64(7)})}
	sel := []int32{0, 1}
	out := kernel(sel, args)
	for _, i := range sel {
		if out.Strs[i] != in.Strs[i][:7] || unsafe.StringData(out.Strs[i]) != unsafe.StringData(in.Strs[i]) {
			t.Errorf("row %d: %q does not share the bytes of %q", i, out.Strs[i], in.Strs[i])
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { kernel(sel, args) }); allocs != 0 {
		t.Errorf("the kernel allocates %.0f times per batch", allocs)
	}
}
