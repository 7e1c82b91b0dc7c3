package exec

import (
	"runtime"
	"testing"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/row"
)

// aggBlockSeeds marshals blocks holding every vector kind: typed and
// boxed keys with NULLs, composite keys, and every accumulator, MIN and
// MAX over strings and floats and COUNT(DISTINCT) sets among them. The
// blocks are fixed subsets of each table's groups and the whole table,
// so every process adds the same seeds (which groups share a shuffle
// bucket depends on the per-process hash seed).
func aggBlockSeeds() [][]byte {
	specs := append(specAll(),
		plan.AggSpec{Kind: plan.AggMin, Arg: &expr.Col{Idx: 2, T: row.TString}, Out: row.TString},
		plan.AggSpec{Kind: plan.AggMax, Arg: &expr.Col{Idx: 1, T: row.TFloat}, Out: row.TFloat},
		plan.AggSpec{Kind: plan.AggCountDistinct, Arg: &expr.Col{Idx: 2, T: row.TString}, Out: row.TInt})
	var out [][]byte
	for _, groupBy := range [][]expr.Expr{
		nil,
		{&expr.Col{Idx: 2, T: row.TString}},
		{&expr.Col{Idx: 3, T: row.TBool}},
		{&expr.Col{Idx: 0, T: row.TInt}, &expr.Col{Idx: 3, T: row.TBool}},
	} {
		a := &plan.Aggregate{GroupBy: groupBy, Aggs: specs}
		g := newGroupTable(a)
		for i := range 40 {
			r := row.Row{int64(i % 6), float64(i) / 3, []any{"x", nil, "yy", ""}[i%4], []any{true, false, nil}[i%3]}
			if i%5 == 0 {
				r[0], r[1] = nil, nil
			}
			keys := make([]columnar.Vec, len(groupBy))
			for k, x := range groupBy {
				keys[k] = columnar.Vec{Kind: columnar.VecAny, Anys: []any{x.Eval(r)}}
			}
			ids := []int32{0}
			g.resolve(keys, []int32{0}, ids)
			feed(g, ids[0], r)
		}
		evens := make([]int32, 0, g.n)
		for id := int32(0); id < int32(g.n); id += 2 {
			evens = append(evens, id)
		}
		sub := func(ids []int32) *block {
			out := &block{cols: make([]columnar.Vec, len(g.cols)), accs: make([]accum, len(g.accs))}
			g.gather(out, ids)
			return out
		}
		for _, b := range []*block{sub([]int32{0}), sub(evens), &g.block} {
			out = append(out, []byte(marshalled(b)))
		}
	}
	return append(out, joinBlockSeeds()...)
}

// joinBlockSeeds marshals join sides' blocks: typed int, float and
// string columns with and without NULLs, a bool column (boxed), and a
// column boxed when a value of another type arrived, under int, string
// and boxed keys.
func joinBlockSeeds() [][]byte {
	var out [][]byte
	for _, key := range []int{0, 2, 4} {
		b := &block{}
		for i := range 12 {
			r := row.Row{int64(i % 5), float64(i) / 4, []any{"a", "bc", nil}[i%3], []any{true, false, nil}[i%3], []any{int64(i), "s", nil}[i%3]}
			cols := make([]columnar.Vec, len(r))
			for c, v := range r {
				cols[c] = columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: []any{v}}
				switch v := v.(type) {
				case int64:
					cols[c] = columnar.Vec{Kind: columnar.VecInt, Mask: -1, Ints: []int64{v}}
				case float64:
					cols[c] = columnar.Vec{Kind: columnar.VecFloat, Mask: -1, Floats: []float64{v}}
				case string:
					cols[c] = columnar.Vec{Kind: columnar.VecStr, Mask: -1, Strs: []string{v}}
				}
			}
			if r[key] != nil {
				b.add(&cols[key], cols, []int32{0})
			}
		}
		out = append(out, []byte(marshalled(b)))
	}
	return out
}

// FuzzAggBlock: the block decoder — of a partial aggregate's blocks and
// of a join side's — never panics, allocates within a small multiple
// of its input, and whatever it accepts marshals back to the same bytes
// and reads back slot by slot.
func FuzzAggBlock(f *testing.F) {
	for _, seed := range aggBlockSeeds() {
		f.Add(seed)
	}
	f.Add(row.EncodeBinary(nil, row.Row{int64(1 << 40), int64(1), "\x01"}))
	f.Add(row.EncodeBinary(nil, row.Row{int64(3), int64(0), "\x20"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fields, _, err := row.DecodeBinary(data)
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := unmarshalBlock(fields)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 48*uint64(len(data))+8<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if again := marshalled(b); again != string(row.EncodeBinary(nil, fields)) {
			t.Fatalf("re-marshalling changed the fields:\n%q\n%q", row.EncodeBinary(nil, fields), again)
		}
		for i := range int32(b.n) {
			for k := range b.cols {
				b.cols[k].At(i)
			}
			for _, a := range b.accs {
				if used(&a.val) {
					a.val.At(i)
				}
			}
		}
		if b.Records() != int64(b.n) || b.SizeBytes() < 0 {
			t.Fatalf("a block of %d groups reports %d records, %d bytes", b.n, b.Records(), b.SizeBytes())
		}
	})
}
