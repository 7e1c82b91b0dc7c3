package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"shark/internal/catalog"
	"shark/internal/columnar"
	"shark/internal/data"
	"shark/internal/memtable"
	"shark/internal/plan"
	"shark/internal/row"
	"shark/internal/shuffle"
	"shark/internal/sqlparse"
)

// The kernel-level harness: one sealed partition and a statement's
// fused chain, run as a task would run it but without a cluster.

// partRows is the partition size the kernels are measured at (the
// benchmark's cached tables hold 5 000 – 9 000 rows per partition).
const partRows = 8192

func sealPartition(tb testing.TB, schema row.Schema, rows []row.Row) *columnar.Partition {
	tb.Helper()
	b := columnar.NewBuilder(schema)
	for _, r := range rows {
		if err := b.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	return b.Seal()
}

// fusedChain plans sql against a cached table named t with the given
// schema and returns the chain the engine would fuse for it.
func fusedChain(tb testing.TB, schema row.Schema, sql string) *memScan {
	tb.Helper()
	cat := catalog.New()
	err := cat.Register(&catalog.Table{Name: "t", Schema: schema, Mem: &memtable.Table{Name: "t", Schema: schema}})
	if err != nil {
		tb.Fatal(err)
	}
	st, err := sqlparse.Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := plan.Analyze(cat, st.(*sqlparse.SelectStmt))
	if err != nil {
		tb.Fatal(err)
	}
	for n := p; ; n = n.Children()[0] {
		if m := matchMemScan(n); m != nil {
			return m
		}
		if len(n.Children()) != 1 {
			tb.Fatalf("no fusable chain in plan of %s:\n%s", sql, plan.Explain(p))
		}
	}
}

// runChain executes the chain over part as one task: the partial
// aggregation's pairs, or the rows emitted.
func runChain(e *Engine, m *memScan, part *columnar.Partition) (pairs []any, rows []row.Row) {
	t := e.newScanTask(nil, m.scan, part)
	src := t.bindStages(m, make([]*NodeStats, 1+len(m.filters)))
	if m.agg != nil {
		return t.partialAggregate(m.agg, src), nil
	}
	emit := t.bindRows(m.project)
	for {
		sel, ok := src.next()
		if !ok {
			return nil, rows
		}
		rows = append(rows, emit(sel)...)
	}
}

func userVisitsPartition(tb testing.TB) *columnar.Partition {
	rng := rand.New(rand.NewSource(7))
	countries := []string{"USA", "DEU", "FRA", "JPN", "BRA", "IND", "CHN", "GBR", "CAN", "AUS"}
	rows := make([]row.Row, partRows)
	for i := range rows {
		rows[i] = row.Row{
			fmt.Sprintf("%d.%d.%d.%d", rng.Intn(25)+100, rng.Intn(40)+10, rng.Intn(256), rng.Intn(256)),
			fmt.Sprintf("url-%09d", rng.Intn(75000)),
			int64(10957 + rng.Intn(90)),
			rng.Float64() * 1000,
			"Mozilla/5.0",
			countries[rng.Intn(len(countries))],
			"en-US",
			"word",
			int64(rng.Intn(600) + 1),
		}
	}
	return sealPartition(tb, data.UserVisitsSchema, rows)
}

func rankingsPartition(tb testing.TB) *columnar.Partition {
	rng := rand.New(rand.NewSource(7))
	rows := make([]row.Row, partRows)
	for i := range rows {
		rows[i] = row.Row{fmt.Sprintf("url-%09d", i), int64(rng.Intn(10000)), int64(rng.Intn(100))}
	}
	return sealPartition(tb, data.RankingsSchema, rows)
}

// The three statements of the benchmark's scan_agg workload.
const (
	sqlSel   = `SELECT pageURL, pageRank FROM t WHERE pageRank > 9900`
	sqlAgg1k = `SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM t GROUP BY SUBSTR(sourceIP, 1, 7)`
	sqlCntf  = `SELECT countryCode, COUNT(*), AVG(duration) FROM t WHERE adRevenue > 500 GROUP BY countryCode`
)

func benchChain(b *testing.B, part *columnar.Partition, schema row.Schema, sql string) {
	m := fusedChain(b, schema, sql)
	e := &Engine{}
	b.ReportAllocs()
	b.SetBytes(int64(part.N)) // "bytes" are rows: MB/s reads as Mrows/s
	for b.Loop() {
		runChain(e, m, part)
	}
}

// BenchmarkFilterSel: a 1 %-selective comparison narrowed to a
// selection vector, and the survivors materialized as rows.
func BenchmarkFilterSel(b *testing.B) {
	benchChain(b, rankingsPartition(b), data.RankingsSchema, sqlSel)
}

// BenchmarkPartialAggAgg1k: a computed string group key through
// SUBSTR's vector form, a typed float SUM.
func BenchmarkPartialAggAgg1k(b *testing.B) {
	benchChain(b, userVisitsPartition(b), data.UserVisitsSchema, sqlAgg1k)
}

// BenchmarkPartialAggCntf: raw-float filter, dictionary group key,
// COUNT + AVG — typed kernels end to end.
func BenchmarkPartialAggCntf(b *testing.B) {
	benchChain(b, userVisitsPartition(b), data.UserVisitsSchema, sqlCntf)
}

// TestPartialAggregateAllocations pins the typed aggregation kernels
// at O(groups + batches) allocations: nothing is allocated per row.
// The budget is what binding allocates per task (closures and
// batch-sized buffers) plus a handful per group; a row's worth of
// boxing anywhere in the path costs thousands and fails it.
func TestPartialAggregateAllocations(t *testing.T) {
	part := userVisitsPartition(t)
	if enc := part.Cols[5].Encoding(); enc != "dict" {
		t.Fatalf("countryCode is %s-encoded; the test wants the code-indexed group path", enc)
	}
	if enc := part.Cols[0].Encoding(); enc != "raw" {
		t.Fatalf("sourceIP is %s-encoded; the test wants sub-strings of a raw column as group keys", enc)
	}
	batches := (part.N + columnar.BatchSize - 1) / columnar.BatchSize
	for _, c := range []struct{ name, sql string }{
		{"cntf", sqlCntf},   // raw-float filter, dictionary group key, COUNT + AVG
		{"agg1k", sqlAgg1k}, // SUBSTR(col, 1, 7) group key through its vector form, SUM of a float column
	} {
		m := fusedChain(t, data.UserVisitsSchema, c.sql)
		e := &Engine{}
		var groups int
		allocs := testing.AllocsPerRun(10, func() {
			pairs, _ := runChain(e, m, part)
			groups = len(pairs)
		})
		if budget := float64(60 + 8*groups + batches); allocs > budget {
			t.Errorf("%s-shaped partial aggregate: %.0f allocations for %d rows, %d groups, %d batches; budget %.0f",
				c.name, allocs, part.N, groups, batches, budget)
		}
	}
}

var mixedSchema = row.Schema{
	{Name: "i_raw", Type: row.TInt}, {Name: "i_rle", Type: row.TInt},
	{Name: "i_pack", Type: row.TInt}, {Name: "i_dict", Type: row.TInt},
	{Name: "f_raw", Type: row.TFloat}, {Name: "f_rle", Type: row.TFloat},
	{Name: "s_raw", Type: row.TString}, {Name: "s_dict", Type: row.TString},
	{Name: "b", Type: row.TBool}, {Name: "d", Type: row.TDate},
	{Name: "allnull", Type: row.TInt},
}

// mixedPartition covers every encoding, one-fifth NULL, over three
// batches with a short last one.
func mixedPartition(tb testing.TB) *columnar.Partition {
	rng := rand.New(rand.NewSource(5))
	maybe := func(v any) any {
		if rng.Intn(5) == 0 {
			return nil
		}
		return v
	}
	rows := make([]row.Row, 2*columnar.BatchSize+200)
	for i := range rows {
		var runI, runF any
		if run := i / 50; run%5 != 0 {
			runI, runF = int64(run-10), float64(run)/4
		}
		rows[i] = row.Row{
			maybe(rng.Int63n(2e10) - 1e10), runI, maybe(int64(rng.Intn(1000) - 60)), maybe([]int64{-3, 0, 7, 42}[rng.Intn(4)]),
			maybe(float64(rng.Intn(2000)) / 4), runF,
			maybe(fmt.Sprintf("u%04d", rng.Intn(5000))), maybe([]string{"", "alpha", "beta", "Gamma"}[rng.Intn(4)]),
			maybe(rng.Intn(2) == 0), maybe(int64(10957 + rng.Intn(30))),
			nil,
		}
	}
	p := sealPartition(tb, mixedSchema, rows)
	for c, want := range []string{"raw", "rle", "bitpack", "dict", "raw", "rle", "raw", "dict", "bitmap"} {
		if got := p.Cols[c].Encoding(); got != want {
			tb.Fatalf("column %s is %s-encoded, want %s", mixedSchema[c].Name, got, want)
		}
	}
	return p
}

// TestKernelsMatchRowAdapter runs statements aimed at each typed
// kernel twice over one partition — typed, and with DisableExprCompile
// sending every expression through the row adapter and Expr.Eval — and
// wants identical output: the same rows in the same order, and partial
// aggregation states that finalize to the same values bit for bit
// (both accumulate in row order).
func TestKernelsMatchRowAdapter(t *testing.T) {
	part := mixedPartition(t)
	for _, sql := range []string{
		// comparisons: int/int, int/float literal (promoted), float/int, string, date, column/column
		`SELECT i_raw, i_pack FROM t WHERE i_pack > 500`,
		`SELECT i_pack FROM t WHERE i_pack <= 2.5`,
		`SELECT i_dict FROM t WHERE 7.0 = i_dict`,
		`SELECT f_raw FROM t WHERE f_raw >= 250`,
		`SELECT s_raw FROM t WHERE s_raw < 'u2500'`,
		`SELECT s_dict FROM t WHERE s_dict <> ''`,
		`SELECT d FROM t WHERE d BETWEEN Date('2000-01-10') AND Date('2000-01-20')`,
		`SELECT i_rle, f_rle FROM t WHERE i_rle < f_rle`,
		`SELECT i_pack FROM t WHERE (i_pack + i_dict) * 2 > i_raw % 1000`,
		// AND / OR / NOT, IS NULL, bare bool, IN, LIKE
		`SELECT i_pack, b FROM t WHERE b OR (NOT (i_pack < 300) AND i_dict IS NOT NULL)`,
		`SELECT i_pack FROM t WHERE NOT (i_pack > 100 OR s_dict = 'alpha' OR allnull IS NOT NULL)`,
		`SELECT i_raw FROM t WHERE i_raw IS NULL AND f_rle IS NOT NULL`,
		`SELECT i_pack FROM t WHERE i_pack IN (1, 2, 3.0, 4.5, 999) OR i_dict NOT IN (7, 42)`,
		`SELECT s_raw FROM t WHERE s_raw IN ('u0001', 'u2500', 'zzz') OR s_raw NOT LIKE 'u%'`,
		`SELECT s_raw, s_dict FROM t WHERE s_raw LIKE 'u1_2%' OR s_dict LIKE '%a'`,
		// arithmetic: NULL operands, / and % by zero, negation, mixed types
		`SELECT i_pack / i_dict, i_pack % i_dict, -i_raw, -f_raw, i_pack * f_rle - 1, f_raw / (i_dict - 7) FROM t`,
		`SELECT i_pack + allnull, 3 - i_rle, 2.5 * i_dict, d + 1 FROM t WHERE i_pack % 3 = 0`,
		// built-ins with a vector form: column, literal, computed and NULL arguments
		`SELECT SUBSTR(s_raw, 2, 3), SUBSTR(s_dict, -2), SUBSTR(s_raw, i_dict, i_pack % 4), SUBSTR('literal', i_pack % 9, 2), SUBSTR(s_raw, 0, -1), SUBSTR(s_raw, 9) FROM t`,
		`SELECT LENGTH(s_raw), LENGTH(SUBSTR(s_dict, 2, 2)), LENGTH('abc') + i_dict, ABS(i_raw), ABS(-f_raw), ABS(i_pack - 500) % 7, ABS(allnull) FROM t`,
		`SELECT YEAR(d), MONTH(d + i_pack), DAY(d - 45), YEAR(Date('1999-12-31')), MONTH(i_rle * 30) FROM t`,
		`SELECT s_raw, d FROM t WHERE SUBSTR(s_raw, 2, 1) = '1' AND LENGTH(s_dict) > 4 OR ABS(i_dict) = 3 OR DAY(d) IN (1, 15, 30)`,
		`SELECT SUBSTR(s_raw, NULL, 2), LENGTH(NULL), SUBSTR(s_dict, 1.5, 2) FROM t WHERE i_pack < 100`,
		// expressions without kernels, through the adapter inside typed trees
		`SELECT UPPER(s_raw), CASE WHEN i_pack > 500 THEN 'hi' ELSE s_dict END, CAST(f_raw AS BIGINT), LENGTH(CONCAT(s_dict, 'x')) FROM t WHERE LOWER(s_dict) = 'gamma' OR i_pack < 50`,
		// aggregation: no key, dictionary key, int and string keys, computed and composite keys
		`SELECT COUNT(*), COUNT(i_raw), SUM(i_pack), SUM(f_raw), AVG(i_pack), AVG(f_raw), MIN(i_raw), MAX(f_rle), MIN(s_raw), MAX(s_dict), COUNT(DISTINCT i_dict), COUNT(DISTINCT s_raw), SUM(allnull) FROM t`,
		`SELECT s_dict, COUNT(*), AVG(f_raw), MIN(d), MAX(i_pack + 1) FROM t WHERE f_raw > 100 GROUP BY s_dict`,
		`SELECT i_dict, SUM(f_rle), COUNT(DISTINCT s_dict) FROM t GROUP BY i_dict`,
		`SELECT i_pack, COUNT(*), SUM(i_raw) FROM t GROUP BY i_pack`,
		`SELECT s_raw, MAX(f_raw) FROM t GROUP BY s_raw`,
		`SELECT f_rle, b, COUNT(*) FROM t GROUP BY f_rle, b`,
		`SELECT i_pack % 10, SUBSTR(s_raw, 1, 2), d, COUNT(*), AVG(i_dict / 2) FROM t GROUP BY i_pack % 10, SUBSTR(s_raw, 1, 2), d`,
		`SELECT SUBSTR(s_raw, 1, 3), SUM(f_raw), MIN(SUBSTR(s_raw, 3)), COUNT(DISTINCT LENGTH(s_dict)) FROM t GROUP BY SUBSTR(s_raw, 1, 3)`,
		`SELECT DAY(d), MAX(ABS(i_raw)), SUM(LENGTH(s_raw)) FROM t GROUP BY DAY(d)`,
		`SELECT allnull, COUNT(*) FROM t WHERE i_pack > 2000 GROUP BY allnull`,
	} {
		m := fusedChain(t, mixedSchema, sql)
		typedPairs, typedRows := runChain(&Engine{}, m, part)
		adapterPairs, adapterRows := runChain(&Engine{opts: Options{DisableExprCompile: true}}, m, part)
		if !reflect.DeepEqual(typedRows, adapterRows) {
			t.Errorf("%s\n  typed kernels emit %d rows, the row adapter %d; first difference: %s",
				sql, len(typedRows), len(adapterRows), firstRowDiff(typedRows, adapterRows))
		}
		if m.agg == nil {
			if len(typedRows) == 0 {
				t.Errorf("%s\n  selects nothing: the case proves nothing", sql)
			}
			continue
		}
		typed, adapter := finalized(m.agg, typedPairs), finalized(m.agg, adapterPairs)
		if !reflect.DeepEqual(typed, adapter) {
			t.Errorf("%s\n  typed kernels: %v\n  row adapter:   %v", sql, typed, adapter)
		}
	}
}

// TestFullDictionaryColumn: a dictionary column at the encoder's
// threshold (256 distinct values) that also holds NULLs groups, filters
// and materializes exactly — checked against the source rows, not the
// row adapter, because both read the same byte-wide code vector.
func TestFullDictionaryColumn(t *testing.T) {
	schema := row.Schema{{Name: "s", Type: row.TString}, {Name: "v", Type: row.TInt}}
	rows := make([]row.Row, 5*256)
	counts, sums := map[any]int64{}, map[any]int64{}
	var kept []row.Row
	for i := range rows {
		var s any // the NULL comes first, as the worst case for the encoder
		if i%5 != 0 {
			s = fmt.Sprintf("v%03d", (i*7)%256)
		}
		rows[i] = row.Row{s, int64(i)}
		counts[s]++
		sums[s] += int64(i)
		if s != nil && s.(string) >= "v250" {
			kept = append(kept, rows[i])
		}
	}
	part := sealPartition(t, schema, rows)
	if enc := part.Cols[0].Encoding(); enc != "dict" || len(counts) != 257 {
		t.Fatalf("s is %s-encoded with %d groups, want dict and 256 + NULL", enc, len(counts))
	}
	for _, e := range []*Engine{{}, {opts: Options{DisableExprCompile: true}}} {
		m := fusedChain(t, schema, `SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s`)
		pairs, _ := runChain(e, m, part)
		groups := finalized(m.agg, pairs)
		if len(groups) != len(counts) {
			t.Errorf("%d groups, want %d", len(groups), len(counts))
		}
		for _, r := range groups {
			if r[1] != counts[r[0]] || r[2] != sums[r[0]] {
				t.Errorf("group %v: COUNT %v SUM %v, want %d and %d", r[0], r[1], r[2], counts[r[0]], sums[r[0]])
			}
		}
		_, got := runChain(e, fusedChain(t, schema, `SELECT s, v FROM t WHERE s >= 'v250'`), part)
		if !reflect.DeepEqual(got, kept) {
			t.Errorf("filter on the dictionary column: %d rows, want %d; first difference: %s", len(got), len(kept), firstRowDiff(got, kept))
		}
	}
}

// TestCallBinding: a call binds to its function's vector form exactly
// when the function has one and every argument is a typed vector or a
// literal; under DisableExprCompile nothing binds typed.
func TestCallBinding(t *testing.T) {
	part := mixedPartition(t)
	for item, want := range map[string]columnar.VecKind{
		"SUBSTR(s_raw, 1, 7)":            columnar.VecStr,
		"SUBSTR(s_dict, i_dict)":         columnar.VecStr,
		"LENGTH(SUBSTR(s_raw, 2))":       columnar.VecInt,
		"YEAR(d)":                        columnar.VecInt,
		"MONTH(d + 40)":                  columnar.VecInt,
		"MONTH(d + 0.5)":                 columnar.VecAny, // a DOUBLE day number: Fn truncates it, the kernel declines
		"DAY(i_pack)":                    columnar.VecInt,
		"ABS(i_raw)":                     columnar.VecInt,
		"ABS(f_raw * 2)":                 columnar.VecFloat,
		"ABS(i_pack) + LENGTH(s_dict)":   columnar.VecInt,
		"UPPER(s_raw)":                   columnar.VecAny, // no vector form
		"LENGTH(UPPER(s_raw))":           columnar.VecAny, // an argument needs the adapter
		"SUBSTR(s_raw, NULL, 2)":         columnar.VecAny, // a NULL literal is not a typed vector
		"SUBSTR(s_raw, 1.5)":             columnar.VecAny, // Fn truncates a float start; the kernel declines
		"LENGTH(CAST(i_pack AS STRING))": columnar.VecAny,
	} {
		m := fusedChain(t, mixedSchema, "SELECT "+item+" FROM t")
		x := m.project.Exprs[0]
		task := (&Engine{}).newScanTask(nil, m.scan, part)
		if f, kind := task.bindTyped(x); kind != want || (f == nil) != (want == columnar.VecAny) {
			t.Errorf("%s binds as kind %v (typed: %v), want %v", item, kind, f != nil, want)
		}
		task = (&Engine{opts: Options{DisableExprCompile: true}}).newScanTask(nil, m.scan, part)
		if f, _ := task.bindTyped(x); f != nil {
			t.Errorf("%s binds a typed kernel under DisableExprCompile", item)
		}
	}
}

// TestScanOutputOwnsItsStrings: inside a task strings are sub-strings
// of the partition's column bytes, and nothing a task hands on is —
// every string in an emitted row, a group key, a group's values, a
// MIN/MAX or a distinct set has bytes of its own, so a small result or
// a shuffle bucket never keeps a partition reachable.
func TestScanOutputOwnsItsStrings(t *testing.T) {
	part := userVisitsPartition(t)
	type span struct{ lo, hi uintptr }
	var columnBytes []span
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	for b := columnar.NewBatch(part); b.Next(); {
		for c, col := range part.Cols {
			if col.Type() == row.TString && col.Encoding() == "raw" {
				strs := b.Strings(c) // consecutive sub-strings of one column's data
				last := strs[len(strs)-1]
				columnBytes = append(columnBytes, span{addr(strs[0]), addr(last) + uintptr(len(last))})
			}
		}
	}
	checked := 0
	owns := func(what string, v any) {
		s, ok := v.(string)
		if !ok || s == "" {
			return
		}
		checked++
		for _, sp := range columnBytes {
			if a := addr(s); a >= sp.lo && a < sp.hi {
				t.Errorf("%s %q shares the partition's bytes", what, s)
			}
		}
	}
	b := columnar.NewBatch(part)
	b.Next()
	if a := addr(b.Strings(0)[5]); a < columnBytes[0].lo || a >= columnBytes[0].hi {
		t.Fatal("a batch's strings do not share the column's bytes: the test would prove nothing")
	}

	for _, sql := range []string{
		`SELECT sourceIP, SUBSTR(destURL, 1, 6), UPPER(destURL), userAgent FROM t WHERE adRevenue > 990`,
		`SELECT * FROM t WHERE adRevenue > 990`,
		`SELECT SUBSTR(sourceIP, 1, 7), MIN(destURL), MAX(SUBSTR(destURL, 3)), COUNT(DISTINCT destURL) FROM t WHERE adRevenue > 900 GROUP BY SUBSTR(sourceIP, 1, 7)`,
		`SELECT sourceIP, SUBSTR(destURL, 1, 6), COUNT(*) FROM t WHERE adRevenue > 990 GROUP BY sourceIP, SUBSTR(destURL, 1, 6)`,
		`SELECT LOWER(sourceIP), MAX(IF(duration > 300, destURL, sourceIP)) FROM t WHERE adRevenue > 990 GROUP BY LOWER(sourceIP)`,
	} {
		m := fusedChain(t, data.UserVisitsSchema, sql)
		for _, e := range []*Engine{{}, {opts: Options{DisableExprCompile: true}}} {
			pairs, rows := runChain(e, m, part)
			for _, r := range rows {
				for _, v := range r {
					owns("row cell", v)
				}
			}
			for _, p := range pairs {
				pair := p.(shuffle.Pair)
				owns("group key", pair.K)
				st := pair.V.(*aggState)
				for _, v := range st.groupVals {
					owns("group value", v)
				}
				for _, acc := range st.accs {
					owns("MIN", acc.min)
					owns("MAX", acc.max)
					for v := range acc.distinct {
						owns("distinct value", v)
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Errorf("only %d strings checked", checked)
	}
}

func firstRowDiff(a, b []row.Row) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("row %d: %v vs %v", i, a[i], b[i])
		}
	}
	return "one is a prefix of the other"
}

// finalized maps each group's shuffle key to its output row.
func finalized(a *plan.Aggregate, pairs []any) map[any]row.Row {
	out := make(map[any]row.Row, len(pairs))
	for _, p := range pairs {
		pair := p.(shuffle.Pair)
		st := pair.V.(*aggState)
		r := append(row.Row(nil), st.groupVals...)
		for i, spec := range a.Aggs {
			r = append(r, st.finalize(i, spec))
		}
		out[pair.K] = r
	}
	return out
}
