package columnar

import (
	"fmt"
	"math/rand"
	"testing"

	"shark/internal/row"
)

func benchRows(n int) []row.Row {
	rng := rand.New(rand.NewSource(1))
	out := make([]row.Row, n)
	for i := range out {
		out[i] = row.Row{
			int64(i),
			fmt.Sprintf("seg-%d", rng.Intn(16)),
			rng.Float64() * 1000,
			int64(i / 100),
		}
	}
	return out
}

var benchSchema = row.Schema{
	{Name: "id", Type: row.TInt},
	{Name: "seg", Type: row.TString},
	{Name: "v", Type: row.TFloat},
	{Name: "run", Type: row.TInt},
}

// BenchmarkBuild measures columnarization throughput (the §3.3 load
// path: CPU-bound compression choice per partition).
func BenchmarkBuild(b *testing.B) {
	rows := benchRows(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(benchSchema)
		for _, r := range rows {
			bl.Append(r)
		}
		p := bl.Seal()
		if p.N != len(rows) {
			b.Fatal("bad partition")
		}
	}
	b.SetBytes(int64(10000 * 30))
}

// BenchmarkScan measures decode throughput of the compressed column
// representations (the memstore read path).
func BenchmarkScan(b *testing.B) {
	rows := benchRows(10000)
	bl := NewBuilder(benchSchema)
	for _, r := range rows {
		bl.Append(r)
	}
	p := bl.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for r := 0; r < p.N; r++ {
			if v := p.Cols[2].Get(r); v != nil {
				sum += v.(float64)
			}
		}
		if sum <= 0 {
			b.Fatal("bad scan")
		}
	}
	b.SetBytes(int64(10000 * 8))
}

// BenchmarkEncodings compares per-encoding random access cost.
func BenchmarkEncodings(b *testing.B) {
	const n = 8192
	build := func(gen func(i int) any, t row.Type) Column {
		bl := NewBuilder(row.Schema{{Name: "c", Type: t}})
		for i := 0; i < n; i++ {
			bl.Append(row.Row{gen(i)})
		}
		return bl.Seal().Cols[0]
	}
	cases := []struct {
		name string
		col  Column
	}{
		{"raw-int", build(func(i int) any { return int64(i * 1_000_003) }, row.TInt)},
		{"bitpack-int", build(func(i int) any { return int64(i % 1024) }, row.TInt)},
		{"rle-int", build(func(i int) any { return int64(i / 512) }, row.TInt)},
		{"dict-string", build(func(i int) any { return fmt.Sprintf("k%d", i%16) }, row.TString)},
		{"raw-string", build(func(i int) any { return fmt.Sprintf("u%d", i) }, row.TString)},
	}
	for _, c := range cases {
		b.Run(c.name+"/"+c.col.Encoding(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = c.col.Get(i % n)
			}
		})
	}
}

// BenchmarkBatchDecode measures typed bulk decode per encoding: one
// column of an 8192-row partition read batch by batch into its typed
// vector (values, or codes for a dictionary column) plus the NULL
// bitmap. "MB/s" counts rows: 1 MB/s = 1 M rows/s.
func BenchmarkBatchDecode(b *testing.B) {
	p, _ := allEncodings(b, 8192)
	for c, col := range p.Cols {
		b.Run(fmt.Sprintf("%v/%s", col.Type(), col.Encoding()), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(p.N))
			var sink int
			for b.Loop() {
				batch := NewBatch(p)
				for batch.Next() {
					sink += len(batch.Nulls(c))
					switch {
					case batch.Dict(c) != nil:
						sink += len(batch.Codes(c))
					case col.Type() == row.TFloat:
						sink += len(batch.Floats(c))
					case col.Type() == row.TString:
						sink += len(batch.Strings(c))
					case col.Type() == row.TBool:
						sink += len(batch.Bools(c))
					default:
						sink += len(batch.Ints(c))
					}
				}
			}
			if sink == 0 {
				b.Fatal("decoded nothing")
			}
		})
	}
}

// BenchmarkBatchRows measures row materialization: every column of
// every row boxed into slab-carved rows, the cost SELECT * pays.
func BenchmarkBatchRows(b *testing.B) {
	p, _ := allEncodings(b, 8192)
	cols := make([]int, len(p.Cols))
	for c := range cols {
		cols[c] = c
	}
	b.ReportAllocs()
	b.SetBytes(int64(p.N))
	for b.Loop() {
		batch := NewBatch(p)
		for batch.Next() {
			if len(batch.Rows(cols, batch.All())) != batch.Len() {
				b.Fatal("short batch")
			}
		}
	}
}
