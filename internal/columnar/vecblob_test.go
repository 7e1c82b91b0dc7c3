package columnar

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"shark/internal/row"
)

// vecForms returns n-row vectors of every form a vector blob carries
// — ints, floats, raw strings, a dictionary's codes, bool-only boxed
// cells and boxed cells that disagree on type — with no NULL, a NULL
// every seventh row, and NULL everywhere.
func vecForms(n int) map[string]Vec {
	dict := &dictString{dict: []string{"a", "bb", "", "ccc"}}
	dict.boxed = boxAll(dict.dict)
	out := map[string]Vec{}
	for _, nulls := range []string{"none", "some", "all"} {
		null := func(i int) bool { return nulls == "all" || nulls == "some" && i%7 == 3 }
		var bm Bitmap
		if nulls != "none" {
			bm = make(Bitmap, (n+63)/64)
		}
		ints, floats, strs, codes := make([]int64, n), make([]float64, n), make([]string, n), make([]uint8, n)
		bools, mixed := make([]any, n), make([]any, n)
		for i := range n {
			ints[i], floats[i], strs[i], codes[i] = int64(i*i)-5000, []float64{0.5, math.NaN(), math.Inf(-1), math.Copysign(0, -1)}[i%4], fmt.Sprint("s", i%9), uint8(i*7%4)
			bools[i], mixed[i] = i%3 == 0, []any{int64(i), "x", 2.5, true}[i%4]
			if null(i) {
				bm.Set(i)
				bools[i], mixed[i] = nil, nil
			}
		}
		for name, v := range map[string]Vec{
			"int":   {Kind: VecInt, Ints: ints},
			"float": {Kind: VecFloat, Floats: floats},
			"raw":   {Kind: VecStr, Strs: strs},
			"dict":  {Kind: VecStr, Codes: codes, Dict: dict},
			"bools": {Kind: VecAny, Anys: bools},
			"mixed": {Kind: VecAny, Anys: mixed},
		} {
			v.Mask, v.Nulls = -1, bm
			out[name+"/"+nulls] = v
		}
	}
	return out
}

// sameCell compares two cells exactly: floats by bits.
func sameCell(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// TestVecBlobRoundTrip: every vector form, NULLs none, some and all,
// over row ranges that start on and off a bitmap word, reads back cell
// for cell; the vector read back writes back to the same bytes; it
// shares nothing with the blob; and it has the form the tag promises (a
// dictionary range of NULLs only travels as raw strings).
func TestVecBlobRoundTrip(t *testing.T) {
	const n = 200
	for name, v := range vecForms(n) {
		for _, r := range [][2]int{{0, n}, {1, n - 1}, {63, 2}, {64, 64}, {65, 100}, {100, 1}, {130, 70}} {
			lo, k := r[0], r[1]
			blob := AppendVec(nil, &v, lo, k)
			got, err := ReadVec(bytes.Clone(blob), k)
			if err != nil {
				t.Fatalf("%s [%d, +%d): %v", name, lo, k, err)
			}
			if again := AppendVec(nil, &got, 0, k); !bytes.Equal(again, blob) {
				t.Fatalf("%s [%d, +%d): read back, the vector writes other bytes", name, lo, k)
			}
			for i := range k {
				if want, back := v.At(int32(lo+i)), got.At(int32(i)); !sameCell(back, want) {
					t.Fatalf("%s [%d, +%d): row %d reads %#v, want %#v", name, lo, k, i, back, want)
				}
			}
			wantDict := v.Dict != nil && !v.allNull(lo, lo+k)
			if got.Kind != v.Kind || (got.Dict != nil) != wantDict || !got.Owned || got.Mask != -1 {
				t.Fatalf("%s [%d, +%d): read back as kind %d, dictionary %v", name, lo, k, got.Kind, got.Dict != nil)
			}
		}
	}
}

// TestReadVecRefusesBlobsNotWrittenSo: a blob is refused when it does
// not fit its rows, and when the writer would have written its vector
// otherwise — so that whatever is read writes back to its bytes.
func TestReadVecRefusesBlobsNotWrittenSo(t *testing.T) {
	v := vecForms(10)["dict/some"]
	good := AppendVec(nil, &v, 0, 10)
	if _, err := ReadVec(good, 10); err != nil {
		t.Fatal(err)
	}
	ints := make([]byte, 80) // ten raw int rows
	for name, blob := range map[string][]byte{
		"too few rows":       good[:len(good)-1],
		"a byte over":        append(bytes.Clone(good), 0),
		"partition-only tag": append([]byte{encRLEInt}, good[1:]...),
		"unknown tag":        append([]byte{99}, good[1:]...),
		"bitmap of no NULL":  append([]byte{encRawInt, 1, 0, 0, 0, 0, 0, 0, 0, 0}, ints...),
		"NULL past the rows": append([]byte{encRawInt, 1, 1, 4, 0, 0, 0, 0, 0, 0}, ints...),
		"NULL without a bit": append([]byte{encValues, 0}, row.EncodeBinary(nil, make(row.Row, 10))...),
	} {
		if _, err := ReadVec(blob, 10); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadVecAllocatesItsValuesOnly: reading an n-row raw int blob
// makes its []int64 and nothing else — the payload is decoded where it
// lies, not copied first.
func TestReadVecAllocatesItsValuesOnly(t *testing.T) {
	const n = 1000
	v := Vec{Kind: VecInt, Mask: -1, Ints: make([]int64, n)}
	blob := AppendVec(nil, &v, 0, n)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ReadVec(blob, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("reading a %d-row int blob allocated %.0f times, want 1", n, allocs)
	}
}
