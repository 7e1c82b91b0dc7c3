package columnar

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"shark/internal/row"
)

func buildPartition(t *testing.T, schema row.Schema, rows []row.Row) *Partition {
	t.Helper()
	b := NewBuilder(schema)
	for _, r := range rows {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Seal()
}

func checkRoundTrip(t *testing.T, p *Partition, rows []row.Row) {
	t.Helper()
	if p.N != len(rows) {
		t.Fatalf("N = %d, want %d", p.N, len(rows))
	}
	for i, want := range rows {
		got := p.Row(i)
		for c := range want {
			if want[c] == nil && got[c] == nil {
				continue
			}
			if want[c] == nil || got[c] == nil || !row.Equal(want[c], got[c]) {
				t.Fatalf("row %d col %d: got %v want %v (encoding %s)", i, c, got[c], want[c], p.Cols[c].Encoding())
			}
		}
	}
}

func TestEncodingSelection(t *testing.T) {
	const n = 4096
	schema := row.Schema{
		{Name: "seq", Type: row.TInt},     // wide range, unique → raw or bitpack
		{Name: "small", Type: row.TInt},   // narrow range, many distinct per run → bitpack or dict
		{Name: "runs", Type: row.TInt},    // long runs → rle
		{Name: "enum", Type: row.TString}, // few distinct → dict
		{Name: "url", Type: row.TString},  // all distinct → raw
		{Name: "flag", Type: row.TBool},
		{Name: "score", Type: row.TFloat},
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = row.Row{
			rng.Int63(),
			int64(rng.Intn(1000)),
			int64(i / 100),
			fmt.Sprintf("country-%d", rng.Intn(20)),
			fmt.Sprintf("http://example.com/page/%d", i),
			i%3 == 0,
			rng.Float64(),
		}
	}
	p := buildPartition(t, schema, rows)
	checkRoundTrip(t, p, rows)

	wantEnc := map[string]string{
		"seq": "raw", "runs": "rle", "enum": "dict", "url": "raw",
		"flag": "bitmap", "score": "raw",
	}
	for name, enc := range wantEnc {
		i := schema.Index(name)
		if got := p.Cols[i].Encoding(); got != enc {
			t.Errorf("column %s: encoding %s, want %s", name, got, enc)
		}
	}
	// "small" must be compressed somehow (bitpack: 10 bits/value)
	if got := p.Cols[1].Encoding(); got != "bitpack" {
		t.Errorf("small column: encoding %s, want bitpack", got)
	}
}

func TestCompressionShrinks(t *testing.T) {
	const n = 10000
	schema := row.Schema{{Name: "enum", Type: row.TString}, {Name: "run", Type: row.TInt}}
	rows := make([]row.Row, n)
	for i := range rows {
		rows[i] = row.Row{fmt.Sprintf("segment-%d", i%8), int64(i / 500)}
	}
	p := buildPartition(t, schema, rows)
	checkRoundTrip(t, p, rows)
	// dict string: ~10 bits... 3 bits per row + dict vs ~9 bytes per row raw
	if p.Cols[0].SizeBytes() > n {
		t.Errorf("dict column too large: %d bytes for %d rows", p.Cols[0].SizeBytes(), n)
	}
	if p.Cols[1].SizeBytes() > n {
		t.Errorf("rle column too large: %d bytes for %d rows", p.Cols[1].SizeBytes(), n)
	}
}

func TestNulls(t *testing.T) {
	schema := row.Schema{{Name: "a", Type: row.TInt}, {Name: "s", Type: row.TString}}
	rows := []row.Row{
		{int64(1), "x"},
		{nil, "y"},
		{int64(3), nil},
		{nil, nil},
	}
	p := buildPartition(t, schema, rows)
	checkRoundTrip(t, p, rows)
	if p.Stats[0].NullCount != 2 || p.Stats[1].NullCount != 2 {
		t.Errorf("null counts: %d %d", p.Stats[0].NullCount, p.Stats[1].NullCount)
	}
}

func TestStatsMinMaxDistinct(t *testing.T) {
	schema := row.Schema{{Name: "v", Type: row.TInt}, {Name: "c", Type: row.TString}}
	var rows []row.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, row.Row{int64(i%7 + 10), fmt.Sprintf("c%d", i%3)})
	}
	p := buildPartition(t, schema, rows)
	s := p.Stats[0]
	if s.Min.(int64) != 10 || s.Max.(int64) != 16 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if len(s.Distinct) != 7 {
		t.Errorf("distinct = %v", s.Distinct)
	}
	if len(p.Stats[1].Distinct) != 3 {
		t.Errorf("string distinct = %v", p.Stats[1].Distinct)
	}
}

func TestMayContainPruning(t *testing.T) {
	s := ColumnStats{Min: int64(100), Max: int64(200)}
	for _, tc := range []struct {
		lo, hi any
		want   bool
	}{
		{int64(150), int64(160), true},
		{int64(50), int64(99), false},
		{int64(201), int64(300), false},
		{int64(200), nil, true},
		{nil, int64(100), true},
		{nil, int64(99), false},
		{int64(201), nil, false},
	} {
		if got := s.MayContain(tc.lo, tc.hi); got != tc.want {
			t.Errorf("MayContain(%v,%v) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestMayEqualWithDistinct(t *testing.T) {
	s := ColumnStats{Min: "US", Max: "ZA", Distinct: []any{"US", "ZA", "VN"}}
	if !s.MayEqual("VN") {
		t.Error("VN is present")
	}
	if s.MayEqual("UK") {
		t.Error("UK not in distinct set; should prune even inside range")
	}
	if s.MayEqual("AA") {
		t.Error("AA outside range")
	}
	nullStats := ColumnStats{NullCount: 1}
	if !nullStats.MayEqual(nil) {
		t.Error("nulls present → may equal NULL")
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	schema := row.Schema{{Name: "v", Type: row.TInt}}
	f := func(vals []int64) bool {
		b := NewBuilder(schema)
		for _, v := range vals {
			if err := b.Append(row.Row{v}); err != nil {
				return false
			}
		}
		p := b.Seal()
		for i, v := range vals {
			if p.Cols[0].Get(i).(int64) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNarrowRangeRoundTripProperty(t *testing.T) {
	// exercise the bitpack path specifically
	schema := row.Schema{{Name: "v", Type: row.TInt}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 50
		base := rng.Int63() - rng.Int63()
		vals := make([]int64, n)
		b := NewBuilder(schema)
		for i := range vals {
			vals[i] = base + int64(rng.Intn(1<<20))
			b.Append(row.Row{vals[i]})
		}
		p := b.Seal()
		for i, v := range vals {
			if p.Cols[0].Get(i).(int64) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	schema := row.Schema{{Name: "s", Type: row.TString}}
	f := func(vals []string) bool {
		b := NewBuilder(schema)
		for _, v := range vals {
			b.Append(row.Row{v})
		}
		p := b.Seal()
		for i, v := range vals {
			if p.Cols[0].Get(i).(string) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFloatRLERoundTrip(t *testing.T) {
	schema := row.Schema{{Name: "f", Type: row.TFloat}}
	var rows []row.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, row.Row{float64(i / 100)})
	}
	p := buildPartition(t, schema, rows)
	if p.Cols[0].Encoding() != "rle" {
		t.Errorf("expected rle, got %s", p.Cols[0].Encoding())
	}
	checkRoundTrip(t, p, rows)
}

func TestSchemaMismatch(t *testing.T) {
	b := NewBuilder(row.Schema{{Name: "a", Type: row.TInt}})
	if err := b.Append(row.Row{"notanint"}); err == nil {
		t.Error("type mismatch must error")
	}
	if err := b.Append(row.Row{int64(1), int64(2)}); err == nil {
		t.Error("arity mismatch must error")
	}
}

func TestEmptyPartition(t *testing.T) {
	p := buildPartition(t, row.Schema{{Name: "a", Type: row.TInt}, {Name: "s", Type: row.TString}}, nil)
	if p.N != 0 || p.SizeBytes() < 0 {
		t.Errorf("empty partition: N=%d", p.N)
	}
}

// TestDateColumn: a DATE column keeps its type — typed decode keys off
// Column.Type() — whichever int encoding it gets, and through the disk
// round-trip that rebuilds it.
func TestDateColumn(t *testing.T) {
	d1, _ := row.ParseDate("2000-01-15")
	schema := row.Schema{{Name: "d", Type: row.TDate}}
	rng := rand.New(rand.NewSource(3))
	const n = 2048
	for enc, gen := range map[string]func(i int64) int64{
		"raw":     func(i int64) int64 { return rng.Int63() },          // wide range
		"rle":     func(i int64) int64 { return d1 + i/100 },           // long runs
		"dict":    func(i int64) int64 { return d1 + rng.Int63n(10) },  // few values
		"bitpack": func(i int64) int64 { return d1 + rng.Int63n(900) }, // narrow range, many values
	} {
		rows := make([]row.Row, n)
		lo := int64(math.MaxInt64)
		for i := range rows {
			v := gen(int64(i))
			rows[i], lo = row.Row{v}, min(lo, v)
		}
		p := buildPartition(t, schema, rows)
		checkRoundTrip(t, p, rows)
		if p.Stats[0].Min.(int64) != lo {
			t.Errorf("%s: date min = %v, want %d", enc, p.Stats[0].Min, lo)
		}
		_, fields := p.MarshalShuffle()
		q, err := UnmarshalPartition(fields)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []*Partition{p, q} {
			if got := part.Cols[0].Encoding(); got != enc {
				t.Errorf("date column is %s-encoded, want %s", got, enc)
			}
			if got := part.Cols[0].Type(); got != row.TDate {
				t.Errorf("%s date column: Type() = %v, want DATE", enc, got)
			}
		}
	}
}

// allEncodings builds a partition with one column per encoding (named
// for it), every column about one-fifth NULL, spanning several batches
// with a short last one.
func allEncodings(tb testing.TB, n int) (*Partition, []row.Row) {
	schema := row.Schema{
		{Name: "raw", Type: row.TInt}, {Name: "rle", Type: row.TInt},
		{Name: "bitpack", Type: row.TInt}, {Name: "dict", Type: row.TInt},
		{Name: "raw", Type: row.TFloat}, {Name: "rle", Type: row.TFloat},
		{Name: "raw", Type: row.TString}, {Name: "dict", Type: row.TString},
		{Name: "bitmap", Type: row.TBool}, {Name: "dict", Type: row.TDate},
		{Name: "rle", Type: row.TInt}, // all NULL
	}
	rng := rand.New(rand.NewSource(11))
	maybe := func(v any) any {
		if rng.Intn(5) == 0 {
			return nil
		}
		return v
	}
	rows := make([]row.Row, n)
	for i := range rows {
		var runI, runF any // NULL by whole runs, or the runs would not survive
		if run := i / 50; run%5 != 0 {
			runI, runF = int64(run), float64(run)/4
		}
		rows[i] = row.Row{
			maybe(rng.Int63() - 1<<62), runI, maybe(int64(rng.Intn(1000) - 500)), maybe(int64(rng.Intn(5) * 1000003)),
			maybe(rng.NormFloat64()), runF,
			maybe(fmt.Sprintf("u%d", rng.Int63())), maybe(fmt.Sprintf("k%d", rng.Intn(7))),
			maybe(rng.Intn(2) == 0), maybe(int64(11000 + rng.Intn(20))),
			nil,
		}
	}
	b := NewBuilder(schema)
	for _, r := range rows {
		if err := b.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	p := b.Seal()
	for c, f := range schema {
		if got := p.Cols[c].Encoding(); got != f.Name {
			tb.Fatalf("column %d (%v) is %s-encoded, want %s", c, f.Type, got, f.Name)
		}
	}
	return p, rows
}

// TestBatchDecodeMatchesGet: every typed vector, Value, Box and Rows
// agree with the cell-at-a-time Get, for every encoding, across batch
// boundaries, under dense and sparse selections.
func TestBatchDecodeMatchesGet(t *testing.T) {
	p, rows := allEncodings(t, 2*BatchSize+300)
	b := NewBatch(p)
	allCols := make([]int, len(p.Cols))
	for c := range allCols {
		allCols[c] = c
	}
	base := 0
	for b.Next() {
		var sparse []int32
		for _, i := range b.All() {
			if i%7 == 3 {
				sparse = append(sparse, i)
			}
		}
		for c, col := range p.Cols {
			nulls := b.Nulls(c)
			for _, i := range b.All() {
				want := rows[base+int(i)][c]
				if nulls.Has(int(i)) != (want == nil) {
					t.Fatalf("col %d row %d: null bit %v, value %v", c, base+int(i), nulls.Has(int(i)), want)
				}
				if got := b.Value(c, int(i)); got != want {
					t.Fatalf("col %d row %d: Value = %v, want %v", c, base+int(i), got, want)
				}
				if want == nil {
					continue
				}
				var got any
				switch col.Type() {
				case row.TInt, row.TDate:
					got = b.Ints(c)[i]
				case row.TFloat:
					got = b.Floats(c)[i]
				case row.TString:
					got = b.Strings(c)[i]
				case row.TBool:
					got = b.Bools(c).Has(int(i))
				}
				if got != want {
					t.Fatalf("col %d (%s) row %d: vector holds %v, want %v", c, col.Encoding(), base+int(i), got, want)
				}
				if d := b.Dict(c); d != nil {
					if got := d.DictValue(int(b.Codes(c)[i])); got != want {
						t.Fatalf("col %d row %d: dictionary code decodes to %v, want %v", c, base+int(i), got, want)
					}
				}
			}
		}
		for _, sel := range [][]int32{b.All(), sparse, nil} {
			got := b.Rows(allCols, sel)
			if len(got) != len(sel) {
				t.Fatalf("Rows returned %d rows for %d selected", len(got), len(sel))
			}
			for j, i := range sel {
				if !reflect.DeepEqual(got[j], rows[base+int(i)]) {
					t.Fatalf("Rows[%d] = %v, want row %d = %v", j, got[j], base+int(i), rows[base+int(i)])
				}
			}
		}
		base += b.Len()
	}
	if base != p.N {
		t.Fatalf("batches covered %d rows of %d", base, p.N)
	}
}

// TestFullDictionaryCodesFitAByte: a dictionary column at the
// threshold — 256 distinct values — that also holds NULLs still has at
// most 256 entries, so no code is truncated by the byte-wide Codes
// vector. (A NULL row's placeholder must not take an entry of its own:
// with the NULL first, the 256th real value would get code 256 and
// read back as entry 0.)
func TestFullDictionaryCodesFitAByte(t *testing.T) {
	schema := row.Schema{{Name: "s", Type: row.TString}, {Name: "k", Type: row.TInt}}
	const n = 5 * dictionaryThreshold
	rows := make([]row.Row, n)
	for i := range rows {
		if i%5 == 0 {
			rows[i] = row.Row{nil, nil}
			continue
		}
		v := (i * 7) % dictionaryThreshold
		rows[i] = row.Row{fmt.Sprintf("v%03d", v), int64(v) * 1000003}
	}
	p := buildPartition(t, schema, rows)
	checkRoundTrip(t, p, rows)
	b := NewBatch(p)
	for c := range p.Cols {
		d := b.Dict(c)
		if d == nil {
			t.Fatalf("column %d is %s-encoded, want dict", c, p.Cols[c].Encoding())
		}
		if d.DictLen() != dictionaryThreshold {
			t.Fatalf("column %d: dictionary has %d entries, want %d", c, d.DictLen(), dictionaryThreshold)
		}
	}
	base := 0
	for b.Next() {
		got := b.Rows([]int{0, 1}, b.All())
		for _, i := range b.All() {
			want := rows[base+int(i)]
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("Rows[%d] = %v, want %v", base+int(i), got[i], want)
			}
			for c := range p.Cols {
				if want[c] == nil {
					continue
				}
				if v := b.Dict(c).DictValue(int(b.Codes(c)[i])); v != want[c] {
					t.Fatalf("col %d row %d: code decodes to %v, want %v", c, base+int(i), v, want[c])
				}
				if v := b.Value(c, int(i)); v != want[c] {
					t.Fatalf("col %d row %d: Value = %v, want %v", c, base+int(i), v, want[c])
				}
			}
		}
		base += b.Len()
	}
}

// TestRowsCarvedFromSlab: rows of one batch share a slab sized to the
// selection, and appending to a row never writes into its neighbour.
func TestRowsCarvedFromSlab(t *testing.T) {
	p, rows := allEncodings(t, 600)
	b := NewBatch(p)
	b.Next()
	sel := []int32{5, 6, 7}
	got := b.Rows([]int{2, 3}, sel)
	for _, r := range got {
		if len(r) != 2 || cap(r) != 2 {
			t.Fatalf("row has len %d cap %d, want 2 and 2", len(r), cap(r))
		}
	}
	_ = append(got[0], "overflow")
	if want := rows[6][2]; got[1][0] != want {
		t.Errorf("append to row 0 overwrote row 1: %v, want %v", got[1][0], want)
	}
}

func TestColumnarSmallerThanBoxed(t *testing.T) {
	// The §3.2 claim: columnar representation is much smaller than
	// one-boxed-object-per-field. A boxed row of (int64, string,
	// float64) costs ≥ 3 interface headers (48 B) + backing data.
	const n = 50000
	schema := row.Schema{{Name: "k", Type: row.TInt}, {Name: "c", Type: row.TString}, {Name: "v", Type: row.TFloat}}
	rng := rand.New(rand.NewSource(2))
	b := NewBuilder(schema)
	for i := 0; i < n; i++ {
		b.Append(row.Row{int64(i), fmt.Sprintf("seg-%d", rng.Intn(16)), rng.Float64()})
	}
	p := b.Seal()
	boxedEstimate := int64(n) * (16 + 8 + 16 + 16 + 6 + 16 + 8 + 24) // iface hdrs + data + slice hdr
	if p.SizeBytes() >= boxedEstimate/2 {
		t.Errorf("columnar %d B should be well under half of boxed %d B", p.SizeBytes(), boxedEstimate)
	}
}
