package columnar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shark/internal/row"
)

// statsShape describes one seeded column for FuzzPartitionStats: its
// type, row count, how many distinct values it cycles through (0: wide
// random values), how long each value repeats, where its NULLs fall and
// which float specials it holds.
type statsShape struct {
	typ, distinct, run, nulls, special uint8
	rows                               uint16
	seed                               int64
}

// statsSeeds cover every encoding (checked by
// TestPartitionStatsSeedsCoverEncodings) at 1 023, 1 024, 1 025 and
// 2 049 rows: NULLs sparse, none, all and every other window; NaN and
// ±0; long runs; strings with at most and more than 256 distinct values.
var statsSeeds = []statsShape{
	{typ: 0, rows: 1023, distinct: 0, run: 1, nulls: 0},               // wide ints: raw
	{typ: 0, rows: 1024, distinct: 0, run: 1, nulls: 5, special: 1},   // ascending ints: bit-packed
	{typ: 0, rows: 1025, distinct: 0, run: 9, nulls: 0, special: 1},   // ascending runs: RLE
	{typ: 0, rows: 2049, distinct: 7, run: 1, nulls: 2},               // dictionary, NULL windows
	{typ: 1, rows: 2049, distinct: 30, run: 1, nulls: 4},              // dates
	{typ: 2, rows: 1025, distinct: 0, run: 1, nulls: 0, special: 7},   // floats: NaN, ±0, ±Inf
	{typ: 2, rows: 2049, distinct: 10, run: 50, nulls: 3, special: 1}, // float runs with ±0
	{typ: 2, rows: 1024, distinct: 0, run: 1, nulls: 1},               // all NULL
	{typ: 2, rows: 2049, distinct: 0, run: 1, nulls: 0, special: 2},   // NaN in a later window
	{typ: 3, rows: 2049, distinct: 200, run: 1, nulls: 3},             // string dictionary
	{typ: 3, rows: 2049, distinct: 255, run: 1, nulls: 2, special: 1}, // ascending dictionary
	{typ: 3, rows: 2049, distinct: 0, run: 1, nulls: 3},               // > 256 distinct: raw
	{typ: 3, rows: 1025, distinct: 3, run: 200, nulls: 2},             // long string runs
	{typ: 4, rows: 2049, distinct: 2, run: 1, nulls: 3},               // bools
	{typ: 4, rows: 1025, distinct: 2, run: 200, nulls: 2, special: 1}, // bool runs
	{typ: 0, rows: 2049, distinct: 0, run: 3, nulls: 200, special: 1}, // sparse NULLs in ascending runs
	{typ: 3, rows: 1023, distinct: 0, run: 1, nulls: 1},               // all-NULL strings
	{typ: 1, rows: 1, distinct: 0, run: 1, nulls: 0},                  // one row
	{typ: 0, rows: 0, distinct: 0, run: 1, nulls: 0},                  // no rows
	{typ: 2, rows: 1025, distinct: 0, run: 1, nulls: 0, special: 2},   // NaN within the first window
	{typ: 3, rows: 2049, distinct: 0, run: 1, nulls: 0, special: 1, seed: 9},
}

// statsValues generates a shape's column. A non-zero special makes the
// values ascend with the row (a clustered column; special bit 1), and
// for floats puts -0 and 0 in the pool (bit 1), a NaN at one row (bit
// 2) and ±Inf at two (bit 4).
func statsValues(s statsShape) (row.Type, []any) {
	typ := []row.Type{row.TInt, row.TDate, row.TFloat, row.TString, row.TBool}[int(s.typ)%5]
	n, run := int(s.rows)%4200, max(int(s.run), 1)
	rng := rand.New(rand.NewSource(s.seed))
	vals := make([]any, n)
	for i := range vals {
		switch {
		case s.nulls == 1,
			s.nulls == 2 && i/BatchSize%2 == 1,
			s.nulls > 2 && rng.Intn(int(s.nulls)) == 0:
			continue
		}
		k := int64(i / run)
		if s.distinct > 0 {
			k %= int64(s.distinct)
		} else if s.special&1 == 0 {
			k = rng.Int63() - rng.Int63()
		}
		switch typ {
		case row.TFloat:
			v := float64(k) / 4
			if s.special&1 != 0 && k%3 == 0 {
				v = math.Copysign(0, float64(k%2)-0.5)
			}
			vals[i] = v
		case row.TString:
			vals[i] = fmt.Sprintf("v%020d", k)
		case row.TBool:
			vals[i] = k%2 == 1
		default:
			vals[i] = k
		}
	}
	if typ == row.TFloat && n > 0 {
		if s.special&2 != 0 {
			vals[(int(s.seed)+1500)%n] = math.NaN()
		}
		if s.special&4 != 0 {
			vals[n/3], vals[2*n/3] = math.Inf(1), math.Inf(-1)
		}
	}
	return typ, vals
}

// sealShape seals a shape's column into a partition.
func sealShape(t testing.TB, s statsShape) *Partition {
	typ, vals := statsValues(s)
	b := NewBuilder(row.Schema{{Name: "v", Type: typ}})
	for _, v := range vals {
		if err := b.Append(row.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Seal()
}

// FuzzPartitionStats seals a column and checks its window statistics
// against what the windows decode to: each window's Min and Max are
// values of the window that bound every value it holds (as row.Compare
// orders them), NaN when it holds a NaN, its NullCount counts its
// NULLs, an all-NULL window has no bounds, and the windows fold to the
// partition's Stats. A partition
// read back from disk carries no window statistics.
func FuzzPartitionStats(f *testing.F) {
	for _, s := range statsSeeds {
		f.Add(s.typ, s.rows, s.distinct, s.run, s.nulls, s.special, s.seed)
	}
	f.Fuzz(func(t *testing.T, typ uint8, rows uint16, distinct, run, nulls, special uint8, seed int64) {
		p := sealShape(t, statsShape{typ, distinct, run, nulls, special, rows, seed})
		if want := (p.N + BatchSize - 1) / BatchSize; len(p.Windows) != want {
			t.Fatalf("%d windows for %d rows, want %d", len(p.Windows), p.N, want)
		}
		var fold ColumnStats
		b := NewBatch(p)
		for w := 0; b.Next(); w++ {
			st := b.Stats()[0]
			var nullCount int64
			minSeen, maxSeen := false, false
			vec := b.Vec(0)
			for i := range int32(b.Len()) {
				v := vec.At(i)
				if v == nil {
					nullCount++
					continue
				}
				if st.Min == nil || row.Compare(st.Min, v) > 0 || row.Compare(st.Max, v) < 0 {
					t.Fatalf("window %d (%s): %v outside [%v, %v]", w, p.Cols[0].Encoding(), v, st.Min, st.Max)
				}
				if isNaN(v) && !(isNaN(st.Min) && isNaN(st.Max)) {
					// row.Compare finds a NaN equal to every constant:
					// any range must keep its window.
					t.Fatalf("window %d holds a NaN, but bounds [%v, %v]", w, st.Min, st.Max)
				}
				minSeen = minSeen || row.Compare(v, st.Min) == 0
				maxSeen = maxSeen || row.Compare(v, st.Max) == 0
			}
			if st.NullCount != nullCount {
				t.Fatalf("window %d: NullCount %d, want %d", w, st.NullCount, nullCount)
			}
			if nullCount < int64(b.Len()) && (!minSeen || !maxSeen) {
				t.Fatalf("window %d: bounds [%v, %v] are not values of the window", w, st.Min, st.Max)
			}
			if nullCount == int64(b.Len()) && (st.Min != nil || st.Max != nil) {
				t.Fatalf("window %d: all NULL, but bounds [%v, %v]", w, st.Min, st.Max)
			}
			if st.Distinct != nil {
				t.Fatalf("window %d keeps distinct values", w)
			}
			fold.NullCount += st.NullCount
			fold.Min = foldBound(fold.Min, st.Min, -1)
			fold.Max = foldBound(fold.Max, st.Max, 1)
		}
		got := p.Stats[0]
		if goldenValue(fold.Min) != goldenValue(got.Min) || goldenValue(fold.Max) != goldenValue(got.Max) || fold.NullCount != got.NullCount {
			t.Fatalf("windows fold to [%v, %v] nulls %d; partition stats [%v, %v] nulls %d",
				fold.Min, fold.Max, fold.NullCount, got.Min, got.Max, got.NullCount)
		}
		_, fields := p.MarshalShuffle()
		q, err := UnmarshalPartition(fields)
		if err != nil {
			t.Fatal(err)
		}
		if qb := NewBatch(q); q.Windows != nil || qb.Next() && qb.Stats() != nil {
			t.Fatal("a partition read back from disk has window statistics")
		}
	})
}

// foldBound folds a window's bound into the running one: the lesser
// (dir -1) or greater (dir 1), the first of equals, and NaN once either
// is NaN.
func foldBound(acc, v any, dir int) any {
	switch {
	case v == nil:
		return acc
	case acc == nil, isNaN(v):
		return v
	case !isNaN(acc) && row.Compare(v, acc) == dir:
		return v
	}
	return acc
}

func isNaN(v any) bool {
	f, ok := v.(float64)
	return ok && math.IsNaN(f)
}

func TestPartitionStatsSeedsCoverEncodings(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range statsSeeds {
		seen[sealShape(t, s).Cols[0].Encoding()] = true
	}
	for _, enc := range []string{"raw", "bitpack", "rle", "dict", "bitmap"} {
		if !seen[enc] {
			t.Errorf("no seed of FuzzPartitionStats is %s-encoded (seen %v)", enc, seen)
		}
	}
}
