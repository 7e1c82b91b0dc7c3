package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// gather makes out rows ids of b, in that order, as a block of their
// own; out's cols and accs are b's lengths. It is the reference cut's
// views are held to, and makes the fuzz seeds' sub-blocks.
func (b *block) gather(out *block, ids []int32) {
	out.n = len(ids)
	for k := range b.cols {
		out.cols[k] = b.cols[k].Gather(ids, false)
	}
	for k, a := range b.accs {
		out.accs[k] = accum{columnar.Gather(a.count, ids), a.val.Gather(ids, false), columnar.Gather(a.distinct, ids)}
	}
}

// randomGroupTable is a partial aggregate of random rows: int, float,
// string and composite keys, or a key column boxed when a string
// arrives in an int column, NULL keys among them, under COUNT(*), SUM,
// AVG, MIN of a string and COUNT(DISTINCT).
func randomGroupTable(rng *rand.Rand) *block {
	maybe := func(v any) any {
		if rng.Intn(6) == 0 {
			return nil
		}
		return v
	}
	groupBy := [][]expr.Expr{
		{&expr.Col{Idx: 0, T: row.TInt}},
		{&expr.Col{Idx: 1, T: row.TFloat}},
		{&expr.Col{Idx: 2, T: row.TString}},
		{&expr.Col{Idx: 3, T: row.TInt}}, // holds strings too: boxed
		{&expr.Col{Idx: 0, T: row.TInt}, &expr.Col{Idx: 2, T: row.TString}},
	}[rng.Intn(5)]
	g := newGroupTable(&plan.Aggregate{GroupBy: groupBy, Aggs: []plan.AggSpec{
		{Kind: plan.AggCount, Out: row.TInt},
		{Kind: plan.AggSum, Arg: &expr.Col{Idx: 0, T: row.TInt}, Out: row.TInt},
		{Kind: plan.AggAvg, Arg: &expr.Col{Idx: 1, T: row.TFloat}, Out: row.TFloat},
		{Kind: plan.AggMin, Arg: &expr.Col{Idx: 2, T: row.TString}, Out: row.TString},
		{Kind: plan.AggCountDistinct, Arg: &expr.Col{Idx: 0, T: row.TInt}, Out: row.TInt},
	}})
	keys := make([]columnar.Vec, len(groupBy))
	for range 1 + rng.Intn(400) {
		span := 1 + rng.Intn(300)
		r := row.Row{maybe(int64(rng.Intn(span))), maybe(float64(rng.Intn(span)) / 2),
			maybe(fmt.Sprint("s", rng.Intn(span))), maybe([]any{int64(rng.Intn(span)), "x"}[rng.Intn(2)])}
		for k, x := range groupBy {
			keys[k] = columnar.Vec{Kind: columnar.VecAny, Anys: []any{x.Eval(r)}}
		}
		ids := []int32{0}
		g.resolve(keys, []int32{0}, ids)
		feed(g, ids[0], r)
	}
	return &g.block
}

// randomJoinSide is a join side's block: a dictionary-coded string, a
// raw string, an int and a float column and a boxed one of mixed
// types, with NULLs, keyed by the int column, added a window at a time.
func randomJoinSide(tb testing.TB, rng *rand.Rand) *block {
	schema := row.Schema{{Name: "dict", Type: row.TString}, {Name: "raw", Type: row.TString},
		{Name: "i", Type: row.TInt}, {Name: "f", Type: row.TFloat}}
	rows := make([]row.Row, 1+rng.Intn(3*columnar.BatchSize))
	for i := range rows {
		rows[i] = row.Row{[]string{"x", "yy", ""}[rng.Intn(3)], fmt.Sprint("raw", rng.Intn(500)), int64(rng.Intn(900)), float64(rng.Intn(80)) / 4}
		if rng.Intn(7) == 0 {
			rows[i][rng.Intn(len(schema))] = nil
		}
	}
	b := columnar.NewBatch(sealPartition(tb, schema, rows))
	blk := &block{}
	for b.Next() {
		cols := make([]columnar.Vec, b.Width(), b.Width()+1)
		for c := range cols {
			cols[c] = b.Keep(c, b.Sel)
		}
		mixed := columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: make([]any, b.Len())}
		for i := range mixed.Anys {
			mixed.Anys[i] = []any{int64(i), "s", 0.5, true, nil}[rng.Intn(5)]
		}
		key := cols[2]
		if pos := keepIf(append([]int32(nil), b.Sel...), func(i int) bool { return !key.Null(int32(i)) }); len(pos) > 0 {
			blk.add(&key, append(cols, mixed), pos, 0)
		}
	}
	return blk
}

// TestCutInPlaceMatchesGather: cutting a table in place by random
// buckets makes, bucket for bucket, the blocks gathering each bucket's
// rows would have — the same rows in the same order, the same NULL bits
// and SizeBytes — and every slice of a block ends at its last row, so
// that an append to one block cannot write into its neighbour's.
func TestCutInPlaceMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := range 300 {
		var b *block
		if trial%3 == 2 {
			b = randomJoinSide(t, rng)
		} else {
			b = randomGroupTable(rng)
		}
		if b.n == 0 {
			continue
		}
		n := 1 + rng.Intn(12)
		bucket := make([]int32, b.n)
		for i := range bucket {
			bucket[i] = int32(rng.Intn(n))
		}
		var want []shuffle.Pair
		for k := range int32(n) {
			var ids []int32
			for i, bk := range bucket {
				if bk == k {
					ids = append(ids, int32(i))
				}
			}
			if len(ids) > 0 {
				w := &block{cols: make([]columnar.Vec, len(b.cols)), accs: make([]accum, len(b.accs))}
				b.gather(w, ids)
				want = append(want, shuffle.Pair{K: int64(k), V: w})
			}
		}
		got := b.cut(bucket, n)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d blocks, want %d", trial, len(got), len(want))
		}
		if len(got) == 1 {
			if got[0].(shuffle.Pair).V != b {
				t.Fatalf("trial %d: one bucket, but the table is not its block", trial)
			}
			continue
		}
		for i, p := range got {
			g, w := p.(shuffle.Pair).V.(*block), want[i].V.(*block)
			if k := p.(shuffle.Pair).K; k != want[i].K {
				t.Fatalf("trial %d: block %d is bucket %v, want %v", trial, i, k, want[i].K)
			}
			if g.n != w.n || !reflect.DeepEqual(g.cols, w.cols) || !reflect.DeepEqual(g.accs, w.accs) {
				t.Fatalf("trial %d bucket %v: the cut block differs from the gathered one", trial, want[i].K)
			}
			if g.SizeBytes() != w.SizeBytes() || marshalled(g) != marshalled(w) {
				t.Fatalf("trial %d bucket %v: %d bytes, want %d, or other marshalled bytes", trial, want[i].K, g.SizeBytes(), w.SizeBytes())
			}
			for c := range g.cols {
				if err := capped(&g.cols[c]); err != nil {
					t.Fatalf("trial %d bucket %v column %d: %v", trial, want[i].K, c, err)
				}
			}
			for k, a := range g.accs {
				err := capped(&a.val)
				if cap(a.count) != len(a.count) || cap(a.distinct) != len(a.distinct) {
					err = fmt.Errorf("counts or sets reach past the block")
				}
				if err != nil {
					t.Fatalf("trial %d bucket %v aggregate %d: %v", trial, want[i].K, k, err)
				}
			}
		}
	}
}

// capped reports a slice of v with room past its length.
func capped(v *columnar.Vec) error {
	for name, lc := range map[string][2]int{
		"ints": {len(v.Ints), cap(v.Ints)}, "floats": {len(v.Floats), cap(v.Floats)}, "strs": {len(v.Strs), cap(v.Strs)},
		"anys": {len(v.Anys), cap(v.Anys)}, "codes": {len(v.Codes), cap(v.Codes)}, "nulls": {len(v.Nulls), cap(v.Nulls)},
	} {
		if lc[0] != lc[1] {
			return fmt.Errorf("%s: length %d, capacity %d", name, lc[0], lc[1])
		}
	}
	return nil
}

// allocated is the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// heldBytes is what b's vectors and accumulators hold, at capacity.
func heldBytes(b *block) int {
	vec := func(v *columnar.Vec) int {
		return 8*(cap(v.Ints)+cap(v.Floats)+cap(v.Nulls)) + 16*(cap(v.Strs)+cap(v.Anys)) + cap(v.Codes)
	}
	n := 0
	for k := range b.cols {
		n += vec(&b.cols[k])
	}
	for k := range b.accs {
		n += 8*(cap(b.accs[k].count)+cap(b.accs[k].distinct)) + vec(&b.accs[k].val)
	}
	return n
}

// tableBytes is what g holds: its block and its indexes' slots.
func tableBytes(g *groupTable) int {
	return heldBytes(&g.block) + 4*(len(g.ints.slots)+len(g.strs.slots))
}

// TestReduceAllocations: a reduce task's table is made once. Folding
// buckets whose map outputs hold distinct keys (one group per record),
// or the same keys (as many groups per bucket as one map's), allocates
// within 1.5× of the final table, its index included: the table
// doubles only until its first bucket is in.
func TestReduceAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("byte budgets do not hold under -race")
	}
	const maps, buckets = 4, 16
	a := &plan.Aggregate{GroupBy: []expr.Expr{&expr.Col{Idx: 0, T: row.TString}}, Aggs: []plan.AggSpec{
		{Kind: plan.AggCount, Out: row.TInt},
		{Kind: plan.AggSum, Arg: &expr.Col{Idx: 1, T: row.TFloat}, Out: row.TFloat},
	}}
	for _, c := range []struct {
		name string
		key  func(m, i int) string
		rows int
	}{
		{"distinct keys", func(m, i int) string { return fmt.Sprintf("%d.%d", m, i) }, 6000},
		{"overlapping keys", func(_, i int) string { return fmt.Sprintf("%d.%d", i%1000, i%1000) }, 6000},
	} {
		// Each map task's partial aggregate, cut into buckets; the
		// reduce task fetches them bucket by bucket, then map by map.
		fetched := make([][]any, buckets)
		var records int64
		for m := range maps {
			keys := columnar.Vec{Kind: columnar.VecStr, Mask: -1, Strs: make([]string, c.rows)}
			vals := columnar.Vec{Kind: columnar.VecFloat, Mask: -1, Floats: make([]float64, c.rows)}
			for i := range c.rows {
				keys.Strs[i], vals.Floats[i] = c.key(m, i), float64(i)
			}
			g := newGroupTable(a)
			sel, ids := upTo[int32](c.rows), make([]int32, c.rows)
			g.resolve([]columnar.Vec{keys}, sel, ids)
			g.accumulate(0, nil, sel, ids)
			g.accumulate(1, &vals, sel, ids)
			records += int64(g.n)
			for _, p := range g.blocks(buckets) {
				k := p.(shuffle.Pair).K.(int64)
				fetched[k] = append(fetched[k], p)
			}
		}
		in := slices.Concat(fetched...)
		var g *groupTable
		grew := allocated(func() { g = reduce(a, rdd.SliceIter(in), records) })
		if held := tableBytes(g); float64(grew) > 1.5*float64(held) {
			t.Errorf("%s: folding %d groups allocated %d bytes, for a table of %d; budget 1.5×", c.name, g.n, grew, held)
		}
	}
}

// TestJoinBuildAllocations: a join's build side read from several map
// tasks' blocks is concatenated into vectors made once, and its key
// index made once, within 1.5× of what the finished table holds.
func TestJoinBuildAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("byte budgets do not hold under -race")
	}
	const maps, rows = 5, 3000
	var blocks []*block
	for m := range maps {
		key := columnar.Vec{Kind: columnar.VecInt, Mask: -1, Ints: make([]int64, rows)}
		cols := []columnar.Vec{
			{Kind: columnar.VecStr, Mask: -1, Owned: true, Strs: make([]string, rows)},
			{Kind: columnar.VecFloat, Mask: -1, Floats: make([]float64, rows)},
		}
		for i := range rows {
			key.Ints[i], cols[0].Strs[i], cols[1].Floats[i] = int64(m*rows+i), "s", float64(i)
		}
		b := &block{}
		b.add(&key, cols, upTo[int32](rows), 0)
		blocks = append(blocks, b)
	}
	var jt *joinTable
	grew := allocated(func() { jt = newJoinTable(blocks, true) })
	held := heldBytes(jt.build) + tableBytes(jt.groups) + 4*(cap(jt.first)+cap(jt.next))
	if float64(grew) > 1.5*float64(held) {
		t.Errorf("building over %d rows allocated %d bytes, for a table of %d; budget 1.5×", jt.build.n, grew, held)
	}
}
