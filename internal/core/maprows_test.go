package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"shark/internal/data"
	"shark/internal/exec"
	"shark/internal/row"
)

// TestMapRowsMatchesRows: MapRows reads a query's column batches in
// place through one scratch row a task; cloning that row must give
// exactly the rows of the query's row RDD, whatever shape its batches
// take — a sparse selection, an aggregate's group vectors, a join's
// output, raw and dictionary strings, NULLs of every kind, and the
// materialized ORDER BY … LIMIT root, which has no batches, and a
// cached TableRDD. An f that returns the scratch row itself, or its
// RowView, still gets a row of its own for every result.
func TestMapRowsMatchesRows(t *testing.T) {
	e := newEnv(t, exec.Options{})
	e.writeDFS(t, "src", diffSchema, diffRowsData())
	e.mustExec(t, `CREATE TABLE t TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM src`)
	e.mustExec(t, `CREATE TABLE u TBLPROPERTIES ("shark.cache"="true") AS SELECT i_dict, s_dict, b FROM t WHERE id < 20`)

	cases := []struct {
		name, sql string
		ordered   bool
	}{
		{"every encoding", `SELECT * FROM t`, false},
		{"sparse where", `SELECT id, s_raw, s_dict, f_rle, b, d, allnull FROM t WHERE id % 97 = 3`, false},
		{"aggregate", `SELECT s_dict, b, COUNT(*), SUM(f_raw), MIN(s_raw), MAX(d), SUM(allnull) FROM t GROUP BY s_dict, b`, false},
		{"join", `SELECT t.id, t.s_raw, u.s_dict, u.b FROM t JOIN u ON t.i_dict = u.i_dict`, false},
		{"external", `SELECT s_raw, i_rle, f_raw FROM src WHERE i_pack > 500`, false},
		{"order by limit", `SELECT id, s_raw, f_raw FROM t ORDER BY s_raw, id LIMIT 40`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := e.s.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := tr.RDD.CollectCtx(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			want := make([]row.Row, len(rows))
			for i, x := range rows {
				want[i] = x.(row.Row)
			}
			if len(want) == 0 {
				t.Fatal("query returned no rows")
			}
			check := func(name string, fn func(RowView) any, asRow func(any) row.Row) {
				out, err := tr.MapRows(fn).CollectCtx(t.Context())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := make([]row.Row, len(out))
				for i, x := range out {
					got[i] = asRow(x)
				}
				if !tc.ordered {
					sortRows(want)
					sortRows(got)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: MapRows gave %d rows, the row RDD %d; first difference at %d",
						name, len(got), len(want), firstDiff(got, want))
				}
			}
			isRow := func(x any) row.Row { return x.(row.Row) }
			check("clone", func(v RowView) any { return v.Row.Clone() }, isRow)
			check("returns v.Row", func(v RowView) any { return v.Row }, isRow)
			check("returns v", func(v RowView) any { return v }, func(x any) row.Row { return x.(RowView).Row })
			tr.Cache() // MapRows reads the cached rows from now on
			check("cached", func(v RowView) any { return v.Row.Clone() }, isRow)
		})
	}
}

// TestMapRowsAllocatesFloatBoxesOnly: over a cached table of DOUBLE
// columns, MapRows with an f that keeps nothing allocates the boxes of
// the cells it hands f — 8 bytes a float cell — plus per-batch and
// per-task overhead, and no row of its own: carving a slab of rows a
// batch cost 16 bytes a cell more, plus 48 a row.
func TestMapRowsAllocatesFloatBoxesOnly(t *testing.T) {
	const n, dim = 20000, 10
	e := newEnv(t, exec.Options{})
	var points []row.Row
	if err := data.Points(n, dim, func(r row.Row) error { points = append(points, r); return nil }); err != nil {
		t.Fatal(err)
	}
	e.writeDFS(t, "points", data.PointsSchema(dim), points)
	e.s.DefaultCacheParts = 8 // partitions of whole batches, not of DFS blocks
	e.mustExec(t, `CREATE TABLE points_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM points`)
	tr, err := e.s.Query(`SELECT * FROM points_mem`)
	if err != nil {
		t.Fatal(err)
	}
	mapped := tr.MapRows(func(RowView) any { return nil })
	perRow := func() float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := mapped.Count()
		runtime.ReadMemStats(&after)
		if err != nil || got != n {
			t.Fatalf("count = %d, %v; want %d", got, err, n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	best := perRow()
	for range 2 {
		best = min(best, perRow())
	}
	cells, box := float64(dim+1), floatBoxBytes()
	if bound := cells*box + 24; best > bound {
		t.Errorf("MapRows allocated %.1f B a row of %v float cells (%.0f B a box), want ≤ %.0f", best, cells, box, bound)
	}
	t.Logf("MapRows: %.1f B a row (%v float cells, %.0f B a box)", best, cells, box)
}

// floatBoxBytes measures what boxing a float64 costs in this build:
// 8 bytes, or 16 under the race detector, which pads tiny allocations.
func floatBoxBytes() float64 {
	sink := make([]any, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range sink {
		sink[i] = float64(i) + 0.5
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sink)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(sink))
}

func sortRows(rs []row.Row) {
	sort.Slice(rs, func(i, j int) bool { return fmt.Sprint(rs[i]) < fmt.Sprint(rs[j]) })
}

func firstDiff(a, b []row.Row) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}
