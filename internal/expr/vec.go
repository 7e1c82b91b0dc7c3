package expr

import (
	"math"
	"time"

	"shark/internal/columnar"
)

// Vector forms of the built-ins (UDF.Vec). Each computes, per selected
// row, exactly what the function's Fn returns on the boxed arguments —
// Fn and the kernel share the scalar code below — and leaves any
// argument kind Fn handles by conversion (a float start for SUBSTR, a
// float day number for YEAR) to the row adapter by returning nil.

func substrVec(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
	if kinds[0] != columnar.VecStr || kinds[1] != columnar.VecInt || (len(kinds) == 3 && kinds[2] != columnar.VecInt) {
		return nil, columnar.VecAny
	}
	out := make([]string, columnar.BatchSize)
	nulls := make(columnar.Bitmap, columnar.BatchSize/64)
	return func(sel []int32, args []columnar.Vec) columnar.Vec {
		s, start := &args[0], &args[1]
		var length *columnar.Vec
		if len(args) == 3 {
			length = &args[2]
		}
		clear(nulls)
		for _, i := range sel {
			if s.Nulls.Has(int(i)) || start.Nulls.Has(int(i)) {
				nulls.Set(int(i))
				continue
			}
			str := s.Strs[i&s.Mask]
			from, end := substrStart(str, start.Ints[i&start.Mask]), int64(len(str))
			if from >= end {
				out[i] = "" // past the end, whatever the length is
				continue
			}
			if length != nil {
				if length.Nulls.Has(int(i)) {
					nulls.Set(int(i))
					continue
				}
				end = substrEnd(str, from, length.Ints[i&length.Mask])
			}
			out[i] = str[from:end] // shares str's bytes
		}
		return columnar.Vec{Kind: columnar.VecStr, Mask: -1, Strs: out, Nulls: nulls}
	}, columnar.VecStr
}

func lengthVec(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
	if kinds[0] != columnar.VecStr {
		return nil, columnar.VecAny
	}
	out := make([]int64, columnar.BatchSize)
	return func(sel []int32, args []columnar.Vec) columnar.Vec {
		s := &args[0]
		for _, i := range sel {
			out[i] = int64(len(s.Strs[i&s.Mask]))
		}
		return columnar.Vec{Kind: columnar.VecInt, Mask: -1, Ints: out, Nulls: s.Nulls}
	}, columnar.VecInt
}

func absVec(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
	switch kinds[0] {
	case columnar.VecInt:
		out := make([]int64, columnar.BatchSize)
		return func(sel []int32, args []columnar.Vec) columnar.Vec {
			x := &args[0]
			for _, i := range sel {
				out[i] = absInt(x.Ints[i&x.Mask])
			}
			return columnar.Vec{Kind: columnar.VecInt, Mask: -1, Ints: out, Nulls: x.Nulls}
		}, columnar.VecInt
	case columnar.VecFloat:
		out := make([]float64, columnar.BatchSize)
		return func(sel []int32, args []columnar.Vec) columnar.Vec {
			x := &args[0]
			for _, i := range sel {
				out[i] = math.Abs(x.Floats[i&x.Mask])
			}
			return columnar.Vec{Kind: columnar.VecFloat, Mask: -1, Floats: out, Nulls: x.Nulls}
		}, columnar.VecFloat
	}
	return nil, columnar.VecAny
}

// dateFieldVec is the vector form of YEAR / MONTH / DAY. Dates cluster
// (a cached table is usually loaded in date order, and RLE-encoded for
// it), so the calendar conversion is skipped while the day repeats.
func dateFieldVec(field func(time.Time) int64) func([]columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
	return func(kinds []columnar.VecKind) (columnar.VecFn, columnar.VecKind) {
		if kinds[0] != columnar.VecInt {
			return nil, columnar.VecAny
		}
		out := make([]int64, columnar.BatchSize)
		return func(sel []int32, args []columnar.Vec) columnar.Vec {
			d := &args[0]
			var lastDay, last int64
			have := false
			for _, i := range sel {
				if day := d.Ints[i&d.Mask]; !have || day != lastDay {
					lastDay, last, have = day, field(dateOf(day)), true
				}
				out[i] = last
			}
			return columnar.Vec{Kind: columnar.VecInt, Mask: -1, Ints: out, Nulls: d.Nulls}
		}, columnar.VecInt
	}
}
