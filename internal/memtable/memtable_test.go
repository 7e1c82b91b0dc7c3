package memtable

import (
	"fmt"
	"testing"

	"shark/internal/cluster"
	"shark/internal/columnar"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

var schema = row.Schema{
	{Name: "id", Type: row.TInt},
	{Name: "country", Type: row.TString},
	{Name: "ts", Type: row.TInt},
	{Name: "score", Type: row.TFloat},
}

func newCtx(t *testing.T) *rdd.Context {
	t.Helper()
	c := cluster.New(cluster.Config{Workers: 4, Slots: 2})
	t.Cleanup(c.Close)
	return rdd.NewContext(c, shuffle.NewService(c, shuffle.Memory, t.TempDir()), rdd.Options{})
}

// clusteredRows generates rows whose ts column is naturally clustered
// by partition (append-only log shape, §3.5).
func clusteredRows(n int) []any {
	out := make([]any, n)
	countries := []string{"US", "CA", "VN", "DE"}
	for i := range out {
		out[i] = row.Row{int64(i), countries[(i/250)%len(countries)], int64(i), float64(i) * 0.5}
	}
	return out
}

func loadTable(t *testing.T, ctx *rdd.Context, n, parts int) *Table {
	t.Helper()
	src := ctx.Parallelize(clusteredRows(n), parts)
	tbl, err := Load("sessions", schema, src)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestLoadAndScan(t *testing.T) {
	ctx := newCtx(t)
	tbl := loadTable(t, ctx, 1000, 8)
	if tbl.TotalRows() != 1000 {
		t.Fatalf("rows = %d", tbl.TotalRows())
	}
	if tbl.NumPartitions() != 8 {
		t.Fatalf("parts = %d", tbl.NumPartitions())
	}
	got, err := tbl.Scan(nil, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("scanned %d", len(got))
	}
	r := got[17].(row.Row)
	if r[0].(int64) != 17 || r[1].(string) != "US" {
		t.Errorf("row 17 = %v", r)
	}
}

func TestProjectionScan(t *testing.T) {
	ctx := newCtx(t)
	tbl := loadTable(t, ctx, 100, 4)
	cols := []int{1, 3} // country, score
	got, err := tbl.Scan(nil, cols).Collect()
	if err != nil {
		t.Fatal(err)
	}
	r := got[0].(row.Row)
	if len(r) != 2 {
		t.Fatalf("projected row = %v", r)
	}
	if _, ok := r[0].(string); !ok {
		t.Errorf("col 0 should be country: %v", r)
	}
	sch := tbl.ProjectedSchema(cols)
	if sch[0].Name != "country" || sch[1].Name != "score" {
		t.Errorf("projected schema: %v", sch)
	}
}

func TestMapPruningByRange(t *testing.T) {
	ctx := newCtx(t)
	tbl := loadTable(t, ctx, 1000, 10) // ts 0..999, 100 per partition
	lo, hi := int64(250), int64(349)
	surviving := tbl.Prune([]ColPredicate{{Col: 2, Lo: lo, Hi: hi}})
	if len(surviving) != 2 {
		t.Fatalf("surviving = %v (want 2 partitions)", surviving)
	}
	// scanning only survivors still yields every matching row
	got, err := tbl.Scan(surviving, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	for _, v := range got {
		ts := v.(row.Row)[2].(int64)
		if ts >= lo && ts <= hi {
			matches++
		}
	}
	if matches != 100 {
		t.Errorf("found %d matching rows", matches)
	}
}

func TestMapPruningByEnum(t *testing.T) {
	ctx := newCtx(t)
	tbl := loadTable(t, ctx, 1000, 4) // 250 rows per partition = one country each
	surviving := tbl.Prune([]ColPredicate{{Col: 1, Eq: []any{"VN"}}})
	if len(surviving) != 1 {
		t.Fatalf("surviving = %v", surviving)
	}
	got, err := tbl.Scan(surviving, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v.(row.Row)[1].(string) != "VN" {
			t.Fatalf("wrong partition scanned: %v", v)
		}
	}
}

func TestPruneNoPredicates(t *testing.T) {
	ctx := newCtx(t)
	tbl := loadTable(t, ctx, 100, 5)
	if got := tbl.Prune(nil); len(got) != 5 {
		t.Errorf("no predicates should keep all partitions: %v", got)
	}
}

func TestLoadDistributedCopartition(t *testing.T) {
	ctx := newCtx(t)
	src := ctx.Parallelize(clusteredRows(1000), 8)
	tbl, err := LoadDistributed("dist", schema, src, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumPartitions() != 6 || tbl.Partitioner == nil || tbl.DistKeyCol != 0 {
		t.Fatalf("dist meta: parts=%d", tbl.NumPartitions())
	}
	if tbl.TotalRows() != 1000 {
		t.Fatalf("rows = %d", tbl.TotalRows())
	}
	// every row must be in the partition its key hashes to
	for p := 0; p < 6; p++ {
		chunk, err := tbl.Scan([]int{p}, nil).Collect()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range chunk {
			id := v.(row.Row)[0]
			if tbl.Partitioner.PartitionFor(id) != p {
				t.Fatalf("row with key %v landed in partition %d", id, p)
			}
		}
	}
}

func TestCopartitionedZipJoin(t *testing.T) {
	// Two tables distributed by the same key support a shuffle-free
	// join via ZipPartitions.
	ctx := newCtx(t)
	left, err := LoadDistributed("l", schema, ctx.Parallelize(clusteredRows(500), 4), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	right, err := LoadDistributed("r", schema, ctx.Parallelize(clusteredRows(500), 7), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	joined := left.Scan(nil, nil).ZipPartitions(right.Scan(nil, nil), func(part int, a, b rdd.Iter) rdd.Iter {
		ht := map[any]row.Row{}
		for {
			v, ok := a.Next()
			if !ok {
				break
			}
			r := v.(row.Row)
			ht[r[0]] = r
		}
		var out []any
		for {
			v, ok := b.Next()
			if !ok {
				break
			}
			r := v.(row.Row)
			if lr, ok := ht[r[0]]; ok {
				out = append(out, append(lr.Clone(), r...))
			}
		}
		return rdd.SliceIter(out)
	})
	n, err := joined.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("join rows = %d", n)
	}
}

func TestTableSurvivesWorkerLoss(t *testing.T) {
	ctx := newCtx(t)
	tbl := loadTable(t, ctx, 800, 8)
	before, err := tbl.Scan(nil, nil).Count()
	if err != nil {
		t.Fatal(err)
	}
	ctx.Cluster.Kill(2)
	ctx.NotifyWorkerLost(2)
	after, err := tbl.Scan(nil, nil).Count()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("row count changed after worker loss: %d → %d", before, after)
	}
}

func TestCompressionApplied(t *testing.T) {
	ctx := newCtx(t)
	tbl := loadTable(t, ctx, 4000, 4)
	// country column (4 distinct per partition) must be small
	var countryShare float64
	if tbl.TotalBytes() > 0 {
		countryShare = float64(tbl.TotalBytes())
	}
	if countryShare == 0 {
		t.Fatal("no byte accounting")
	}
	// ~4000 rows * (8+8+8) for numeric cols; strings dict-compressed
	perRow := float64(tbl.TotalBytes()) / 4000
	if perRow > 40 {
		t.Errorf("bytes/row = %.1f (compression not effective?)", perRow)
	}
}

func TestStatsPerPartition(t *testing.T) {
	ctx := newCtx(t)
	tbl := loadTable(t, ctx, 1000, 10)
	for p := 0; p < 10; p++ {
		s := tbl.Stats[p][2] // ts column
		lo := s.Min.(int64)
		hi := s.Max.(int64)
		if hi-lo != 99 {
			t.Errorf("partition %d range [%d,%d]", p, lo, hi)
		}
	}
}

func TestScanSubsetDoesNotTouchOthers(t *testing.T) {
	ctx := newCtx(t)
	tbl := loadTable(t, ctx, 1000, 10)
	got, err := tbl.Scan([]int{3}, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Errorf("partition 3 rows = %d", len(got))
	}
	for _, v := range got {
		id := v.(row.Row)[0].(int64)
		if id < 300 || id > 399 {
			t.Fatalf("row %d outside partition 3", id)
		}
	}
}

func TestLoadDistributedBadColumn(t *testing.T) {
	ctx := newCtx(t)
	src := ctx.Parallelize(clusteredRows(10), 2)
	if _, err := LoadDistributed("bad", schema, src, 99, 4); err == nil {
		t.Error("bad key column must fail")
	}
}

func TestLargeValueRoundTrip(t *testing.T) {
	ctx := newCtx(t)
	var data []any
	for i := 0; i < 50; i++ {
		data = append(data, row.Row{int64(i), fmt.Sprintf("prefix-%0200d", i), int64(i), float64(i)})
	}
	src := ctx.Parallelize(data, 2)
	tbl, err := Load("wide", schema, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Scan(nil, []int{1}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 || len(got[0].(row.Row)[0].(string)) != 207 {
		t.Errorf("wide strings mangled")
	}
}

// TestScanSpansBatches: a partition larger than one decode batch comes
// back whole and in order, and a consumer that stops early pulls only
// the batches it needs.
func TestScanSpansBatches(t *testing.T) {
	ctx := newCtx(t)
	const n = 3*columnar.BatchSize + 17
	tbl := loadTable(t, ctx, n, 1)
	got, err := tbl.Scan(nil, []int{2, 0}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scanned %d rows, want %d", len(got), n)
	}
	for i, v := range got {
		if r := v.(row.Row); len(r) != 2 || r[0].(int64) != int64(i) || r[1].(int64) != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}

	batches := 0
	it := BatchRows(func() []row.Row {
		batches++
		return make([]row.Row, columnar.BatchSize)
	})
	for i := 0; i < columnar.BatchSize+1; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatal("iterator ended early")
		}
	}
	if batches != 2 {
		t.Errorf("pulling %d rows materialized %d batches, want 2", columnar.BatchSize+1, batches)
	}
}
