package exec

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
)

// keptBody is rows sealed into partitions of n rows each, every
// partition's window kept as a final task keeps it: one body window a
// partition, each with its own dictionaries.
func keptBody(tb testing.TB, schema row.Schema, rows []row.Row, n int) *columnar.Body {
	var batches []any
	for lo := 0; lo < len(rows); lo += n {
		bld := columnar.NewBuilder(schema)
		for _, r := range rows[lo:min(lo+n, len(rows))] {
			if err := bld.Append(r); err != nil {
				tb.Fatal(err)
			}
		}
		b := columnar.NewBatch(bld.Seal())
		b.Next()
		batches = append(batches, b)
	}
	return bodyOf(rdd.SliceIter(batches))
}

// TestSortBodyMatchesRowOrder: the sort over a body's key vectors
// orders rows as row.Compare orders boxed rows — NULLs first and last
// under DESC, equal keys in their input order — across windows whose
// dictionaries differ, and a limit keeps the sorted prefix.
func TestSortBodyMatchesRowOrder(t *testing.T) {
	schema := row.Schema{{Name: "k", Type: row.TInt}, {Name: "s", Type: row.TString}, {Name: "f", Type: row.TFloat}, {Name: "id", Type: row.TInt}}
	var rows []row.Row
	for i := range 300 {
		r := row.Row{int64(i % 7), fmt.Sprintf("s%d", (i*5)%11+i/100), float64(i%13) / 2, int64(i)}
		if i%10 == 0 {
			r[0], r[1], r[2] = nil, nil, nil
		}
		rows = append(rows, r)
	}
	body := keptBody(t, schema, rows, 100)
	if len(body.Windows) != 3 || body.Windows[0].Vecs[1].Dict == nil {
		t.Fatalf("want three windows with a dictionary string column, got %d", len(body.Windows))
	}
	for _, keys := range [][]plan.SortKey{
		{{Expr: &expr.Col{Idx: 0}}},
		{{Expr: &expr.Col{Idx: 1}, Desc: true}, {Expr: &expr.Col{Idx: 2}}},
		{{Expr: &expr.Col{Idx: 2}, Desc: true}, {Expr: &expr.Col{Idx: 0}, Desc: true}},
	} {
		want := body.Rows()
		sort.SliceStable(want, func(i, j int) bool {
			for _, k := range keys {
				c := k.Expr.(*expr.Col).Idx
				if o := row.Compare(want[i][c], want[j][c]); o != 0 {
					return (o < 0) != k.Desc
				}
			}
			return false
		})
		for _, limit := range []int64{-1, 0, 150} {
			got := sortBody(body, keys, limit).Rows()
			w := want
			if limit >= 0 {
				w = want[:limit]
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("keys %v limit %d: sorted body differs from the row sort", keys, limit)
			}
		}
	}
}

// TestBodyAdoptsFrozenVectors: a final task keeps a VecBatch's whole
// window — a reduce task's group table — without copying its vectors,
// copies a partial selection of it and strings it does not own, and its
// rows box to the same values.
func TestBodyAdoptsFrozenVectors(t *testing.T) {
	ints := make([]int64, columnar.BatchSize+10)
	for i := range ints {
		ints[i] = int64(i) * 1000
	}
	b := columnar.VecBatch(len(ints), []columnar.Vec{{Kind: columnar.VecInt, Mask: -1, Ints: ints, Owned: true}})
	body := bodyOf(windows(b))
	if len(body.Windows) != 2 || &body.Windows[0].Vecs[0].Ints[0] != &ints[0] || &body.Windows[1].Vecs[0].Ints[0] != &ints[columnar.BatchSize] {
		t.Fatal("a whole window of a VecBatch was copied, not adopted")
	}
	b = columnar.VecBatch(len(ints), []columnar.Vec{{Kind: columnar.VecInt, Mask: -1, Ints: ints, Owned: true}})
	b.Next()
	b.Sel = b.Sel[3:5]
	kept := b.Keep(0, b.Sel)
	ints[3] = -1
	if !reflect.DeepEqual(kept.Ints, []int64{3000, 4000}) {
		t.Fatalf("a partial selection kept %v, want a copy of [3000 4000]", kept.Ints)
	}
	// A join's probe side hands on strings that share a partition's
	// bytes: a result copies them rather than pin the partition.
	shared := []string{"abc"[:1], "abc"[1:]}
	b = columnar.VecBatch(2, []columnar.Vec{{Kind: columnar.VecStr, Mask: -1, Strs: shared}})
	b.Next()
	if kept := b.Keep(0, b.Sel); &kept.Strs[0] == &shared[0] || !kept.Owned || kept.Strs[1] != "bc" {
		t.Fatalf("strings sharing a partition's bytes were adopted: %+v", kept)
	}
	if rows := body.Rows(); len(rows) != len(ints) || rows[5][0] != int64(5000) {
		t.Fatalf("boxed %d rows, row 5 %v", len(rows), rows[5])
	}
}
