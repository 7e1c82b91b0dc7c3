package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"shark/internal/cluster"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// testEnv wires a small simulated cluster with a DFS and a session.
type testEnv struct {
	s  *Session
	fs *dfs.FS
}

func newEnv(t *testing.T, opts exec.Options) *testEnv {
	t.Helper()
	c := cluster.New(cluster.Config{Workers: 4, Slots: 2, Profile: cluster.SparkProfile()})
	t.Cleanup(c.Close)
	svc := shuffle.NewService(c, shuffle.Memory, t.TempDir())
	ctx := rdd.NewContext(c, svc, rdd.Options{})
	fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(ctx, fs, opts)
	return &testEnv{s: s, fs: fs}
}

var visitsSchema = row.Schema{
	{Name: "sourceIP", Type: row.TString},
	{Name: "destURL", Type: row.TString},
	{Name: "visitDate", Type: row.TDate},
	{Name: "adRevenue", Type: row.TFloat},
	{Name: "countryCode", Type: row.TString},
}

var rankingsSchema = row.Schema{
	{Name: "pageURL", Type: row.TString},
	{Name: "pageRank", Type: row.TInt},
	{Name: "avgDuration", Type: row.TInt},
}

func genVisits(n int) []row.Row {
	base, _ := row.ParseDate("2000-01-01")
	countries := []string{"US", "CA", "VN", "DE", "JP"}
	out := make([]row.Row, n)
	for i := 0; i < n; i++ {
		out[i] = row.Row{
			fmt.Sprintf("10.0.%d.%d", i%256, (i*7)%256),
			fmt.Sprintf("url-%d", i%200),
			base + int64(i%60),
			float64(i%100) * 0.5,
			countries[i%len(countries)],
		}
	}
	return out
}

func genRankings(n int) []row.Row {
	out := make([]row.Row, n)
	for i := 0; i < n; i++ {
		out[i] = row.Row{fmt.Sprintf("url-%d", i), int64((i * 37) % 1000), int64(i % 120)}
	}
	return out
}

// writeDFS stores rows as a DFS text file and registers the table.
func (e *testEnv) writeDFS(t *testing.T, name string, schema row.Schema, rows []row.Row) {
	t.Helper()
	w, err := e.fs.Create("data/"+name, dfs.Text, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.s.RegisterExternal(name, "data/"+name, schema); err != nil {
		t.Fatal(err)
	}
}

func (e *testEnv) mustExec(t *testing.T, sql string) *Result {
	t.Helper()
	res, err := e.s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func setupVisits(t *testing.T, e *testEnv, n int, cache bool) {
	t.Helper()
	e.writeDFS(t, "uservisits_ext", visitsSchema, genVisits(n))
	if cache {
		e.mustExec(t, `CREATE TABLE uservisits TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM uservisits_ext`)
	} else {
		e.mustExec(t, `CREATE TABLE uservisits AS SELECT * FROM uservisits_ext`)
	}
}

func TestSelectionQuery(t *testing.T) {
	e := newEnv(t, exec.Options{})
	e.writeDFS(t, "rankings", rankingsSchema, genRankings(2000))
	res := e.mustExec(t, "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 900")
	want := 0
	for _, r := range genRankings(2000) {
		if r[1].(int64) > 900 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Errorf("rows = %d, want %d", len(res.Rows), want)
	}
	for _, r := range res.Rows {
		if r[1].(int64) <= 900 {
			t.Fatalf("filter violated: %v", r)
		}
	}
}

func TestAggregationMatchesReference(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			e := newEnv(t, exec.Options{})
			setupVisits(t, e, 3000, cached)
			res := e.mustExec(t, `SELECT countryCode, COUNT(*) AS c, SUM(adRevenue) AS rev,
				AVG(adRevenue) AS avg_rev, MIN(adRevenue), MAX(adRevenue)
				FROM uservisits GROUP BY countryCode ORDER BY countryCode`)

			// reference
			type agg struct {
				n        int64
				sum      float64
				min, max float64
			}
			ref := map[string]*agg{}
			for _, r := range genVisits(3000) {
				c := r[4].(string)
				v := r[3].(float64)
				a := ref[c]
				if a == nil {
					a = &agg{min: math.Inf(1), max: math.Inf(-1)}
					ref[c] = a
				}
				a.n++
				a.sum += v
				a.min = math.Min(a.min, v)
				a.max = math.Max(a.max, v)
			}
			if len(res.Rows) != len(ref) {
				t.Fatalf("groups = %d, want %d", len(res.Rows), len(ref))
			}
			for _, r := range res.Rows {
				c := r[0].(string)
				a := ref[c]
				if r[1].(int64) != a.n {
					t.Errorf("%s count %d != %d", c, r[1], a.n)
				}
				if math.Abs(r[2].(float64)-a.sum) > 1e-6 {
					t.Errorf("%s sum %v != %v", c, r[2], a.sum)
				}
				if math.Abs(r[3].(float64)-a.sum/float64(a.n)) > 1e-9 {
					t.Errorf("%s avg %v", c, r[3])
				}
				if r[4].(float64) != a.min || r[5].(float64) != a.max {
					t.Errorf("%s min/max %v/%v != %v/%v", c, r[4], r[5], a.min, a.max)
				}
			}
		})
	}
}

func TestSubstrGroupBy(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 2000, true)
	res := e.mustExec(t, `SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits
		GROUP BY SUBSTR(sourceIP, 1, 7)`)
	ref := map[string]float64{}
	for _, r := range genVisits(2000) {
		k := r[0].(string)
		if len(k) > 7 {
			k = k[:7]
		}
		ref[k] += r[3].(float64)
	}
	if len(res.Rows) != len(ref) {
		t.Fatalf("groups = %d want %d", len(res.Rows), len(ref))
	}
	for _, r := range res.Rows {
		if math.Abs(r[1].(float64)-ref[r[0].(string)]) > 1e-6 {
			t.Errorf("group %v: %v != %v", r[0], r[1], ref[r[0].(string)])
		}
	}
}

func TestCountAndCountDistinct(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	res := e.mustExec(t, `SELECT COUNT(*), COUNT(DISTINCT destURL), COUNT(DISTINCT countryCode) FROM uservisits`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].(int64) != 1000 || r[1].(int64) != 200 || r[2].(int64) != 5 {
		t.Errorf("counts = %v", r)
	}
}

func TestJoinAllStrategiesAgree(t *testing.T) {
	// The Pavlo join query shape under each strategy mode must agree
	// with the reference.
	ref := referenceJoinRevenue(600, 3000)
	for _, mode := range []exec.StrategyMode{exec.StrategyStatic, exec.StrategyAdaptive, exec.StrategyStaticAdaptive} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t, exec.Options{JoinStrategy: mode, BroadcastThreshold: 16 << 10})
			e.writeDFS(t, "rankings_ext", rankingsSchema, genRankings(600))
			e.writeDFS(t, "uservisits_ext", visitsSchema, genVisits(3000))
			e.mustExec(t, `CREATE TABLE rankings TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM rankings_ext`)
			e.mustExec(t, `CREATE TABLE uservisits TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM uservisits_ext`)
			res := e.mustExec(t, `SELECT UV.sourceIP, AVG(R.pageRank) AS pr, SUM(UV.adRevenue) AS rev
				FROM rankings AS R, uservisits AS UV
				WHERE R.pageURL = UV.destURL
				GROUP BY UV.sourceIP`)
			if len(res.Rows) != len(ref) {
				t.Fatalf("groups = %d, want %d", len(res.Rows), len(ref))
			}
			for _, r := range res.Rows {
				want := ref[r[0].(string)]
				if math.Abs(r[2].(float64)-want) > 1e-6 {
					t.Errorf("rev(%v) = %v, want %v", r[0], r[2], want)
				}
			}
			if len(res.Stats.JoinStrategies) == 0 {
				t.Error("no join strategy recorded")
			}
		})
	}
}

func referenceJoinRevenue(nRank, nVisit int) map[string]float64 {
	ranks := map[string]int64{}
	for _, r := range genRankings(nRank) {
		ranks[r[0].(string)] = r[1].(int64)
	}
	out := map[string]float64{}
	for _, v := range genVisits(nVisit) {
		if _, ok := ranks[v[1].(string)]; ok {
			out[v[0].(string)] += v[3].(float64)
		}
	}
	return out
}

func TestCopartitionedJoin(t *testing.T) {
	e := newEnv(t, exec.Options{})
	e.writeDFS(t, "rankings_ext", rankingsSchema, genRankings(500))
	e.writeDFS(t, "uservisits_ext", visitsSchema, genVisits(2500))
	e.mustExec(t, `CREATE TABLE r_mem TBLPROPERTIES ("shark.cache"="true") AS
		SELECT * FROM rankings_ext DISTRIBUTE BY pageURL`)
	e.mustExec(t, `CREATE TABLE v_mem TBLPROPERTIES ("shark.cache"="true", "copartition"="r_mem") AS
		SELECT * FROM uservisits_ext DISTRIBUTE BY destURL`)
	res := e.mustExec(t, `SELECT r_mem.pageURL, v_mem.adRevenue FROM r_mem
		JOIN v_mem ON r_mem.pageURL = v_mem.destURL`)
	if len(res.Stats.JoinStrategies) != 1 || !strings.HasPrefix(res.Stats.JoinStrategies[0], "copartitioned") {
		t.Fatalf("strategies = %v, want copartitioned", res.Stats.JoinStrategies)
	}
	// reference count
	ranks := map[string]bool{}
	for _, r := range genRankings(500) {
		ranks[r[0].(string)] = true
	}
	want := 0
	for _, v := range genVisits(2500) {
		if ranks[v[1].(string)] {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Errorf("join rows = %d, want %d", len(res.Rows), want)
	}
}

func TestMapPruningReducesScan(t *testing.T) {
	e := newEnv(t, exec.Options{})
	// clustered data: visitDate increases with row index
	base, _ := row.ParseDate("2000-01-01")
	var rows []row.Row
	for i := 0; i < 4000; i++ {
		rows = append(rows, row.Row{
			fmt.Sprintf("ip-%d", i), fmt.Sprintf("url-%d", i%50),
			base + int64(i/100), float64(i % 10), "US",
		})
	}
	e.writeDFS(t, "logs_ext", visitsSchema, rows)
	e.mustExec(t, `CREATE TABLE logs TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs_ext`)
	tbl, err := e.s.Cat.Get("logs")
	if err != nil {
		t.Fatal(err)
	}
	total := tbl.Mem.NumPartitions()
	if total < 4 {
		t.Fatalf("table has only %d partitions; pruning test needs more", total)
	}
	res := e.mustExec(t, `SELECT COUNT(*) FROM logs WHERE visitDate BETWEEN Date('2000-01-05') AND Date('2000-01-06')`)
	if res.Rows[0][0].(int64) != 200 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	if res.Stats.PrunedPartitions == 0 {
		t.Error("no partitions pruned despite clustered predicate")
	}
	if res.Stats.ScannedPartitions >= total {
		t.Errorf("scanned %d of %d partitions", res.Stats.ScannedPartitions, total)
	}

	// ablation: pruning disabled scans everything
	e2 := newEnv(t, exec.Options{DisablePruning: true})
	e2.writeDFS(t, "logs_ext", visitsSchema, rows)
	e2.mustExec(t, `CREATE TABLE logs TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs_ext`)
	tbl2, err := e2.s.Cat.Get("logs")
	if err != nil {
		t.Fatal(err)
	}
	res2 := e2.mustExec(t, `SELECT COUNT(*) FROM logs WHERE visitDate BETWEEN Date('2000-01-05') AND Date('2000-01-06')`)
	if res2.Stats.ScannedPartitions != tbl2.Mem.NumPartitions() {
		t.Errorf("ablation should scan all %d: %d", tbl2.Mem.NumPartitions(), res2.Stats.ScannedPartitions)
	}
	if res2.Rows[0][0].(int64) != 200 {
		t.Errorf("ablation count = %v", res2.Rows[0][0])
	}
}

func TestOrderByLimit(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	res := e.mustExec(t, `SELECT countryCode, SUM(adRevenue) AS rev FROM uservisits
		GROUP BY countryCode ORDER BY rev DESC LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1].(float64) > res.Rows[i-1][1].(float64) {
			t.Errorf("not descending: %v", res.Rows)
		}
	}
}

func TestHavingFilter(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	res := e.mustExec(t, `SELECT destURL, COUNT(*) AS c FROM uservisits
		GROUP BY destURL HAVING COUNT(*) > 5`)
	for _, r := range res.Rows {
		if r[1].(int64) <= 5 {
			t.Errorf("HAVING violated: %v", r)
		}
	}
}

func TestUDFInQuery(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 500, true)
	err := e.s.RegisterUDF("IS_INTERESTING", row.TBool, 1, 1, func(args []any) any {
		s, _ := args[0].(string)
		return strings.HasSuffix(s, "7")
	})
	if err != nil {
		t.Fatal(err)
	}
	res := e.mustExec(t, `SELECT COUNT(*) FROM uservisits WHERE IS_INTERESTING(destURL)`)
	want := int64(0)
	for _, r := range genVisits(500) {
		if strings.HasSuffix(r[1].(string), "7") {
			want++
		}
	}
	if res.Rows[0][0].(int64) != want {
		t.Errorf("udf count = %v, want %d", res.Rows[0][0], want)
	}
}

func TestFig8UDFJoinAdaptive(t *testing.T) {
	// The §6.3.2 shape: join with a selective UDF filter the static
	// optimizer cannot see. static+adaptive must choose a map join.
	e := newEnv(t, exec.Options{JoinStrategy: exec.StrategyStaticAdaptive, BroadcastThreshold: 64 << 10})
	e.writeDFS(t, "lineitem_ext", rankingsSchema, genRankings(5000))
	suppliers := make([]row.Row, 2000)
	for i := range suppliers {
		suppliers[i] = row.Row{fmt.Sprintf("url-%d", i%1000), int64(i), int64(i)}
	}
	e.writeDFS(t, "supplier_ext", rankingsSchema, suppliers)
	e.mustExec(t, `CREATE TABLE lineitem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM lineitem_ext`)
	e.mustExec(t, `CREATE TABLE supplier TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM supplier_ext`)
	e.s.RegisterUDF("SOME_UDF", row.TBool, 1, 1, func(args []any) any {
		v, _ := args[0].(int64)
		return v%100 == 0 // 1% selectivity, opaque to the optimizer
	})
	res := e.mustExec(t, `SELECT lineitem.pageURL, supplier.pageRank FROM lineitem
		JOIN supplier ON lineitem.pageURL = supplier.pageURL
		WHERE SOME_UDF(supplier.avgDuration)`)
	if len(res.Stats.JoinStrategies) != 1 || !strings.Contains(res.Stats.JoinStrategies[0], "map-join") {
		t.Errorf("strategies = %v, want adaptive map-join", res.Stats.JoinStrategies)
	}
	// reference
	type sup struct{ url string }
	want := 0
	for i := range suppliers {
		if suppliers[i][2].(int64)%100 == 0 {
			u := suppliers[i][0].(string)
			for _, l := range genRankings(5000) {
				if l[0].(string) == u {
					want++
				}
			}
		}
	}
	if len(res.Rows) != want {
		t.Errorf("rows = %d, want %d", len(res.Rows), want)
	}
}

func TestFaultToleranceMidQuery(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 4000, true)
	before := e.mustExec(t, `SELECT countryCode, COUNT(*) FROM uservisits GROUP BY countryCode ORDER BY countryCode`)
	e.s.Ctx.Cluster.Kill(1)
	e.s.Ctx.NotifyWorkerLost(1)
	after := e.mustExec(t, `SELECT countryCode, COUNT(*) FROM uservisits GROUP BY countryCode ORDER BY countryCode`)
	if len(before.Rows) != len(after.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(before.Rows), len(after.Rows))
	}
	for i := range before.Rows {
		if before.Rows[i][1].(int64) != after.Rows[i][1].(int64) {
			t.Errorf("group %v: %v != %v", before.Rows[i][0], after.Rows[i][1], before.Rows[i][1])
		}
	}
}

func TestSubqueryEndToEnd(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	res := e.mustExec(t, `SELECT country, c FROM
		(SELECT countryCode AS country, COUNT(*) AS c FROM uservisits GROUP BY countryCode) agg
		WHERE c > 100 ORDER BY country`)
	if len(res.Rows) != 5 { // 1000/5 = 200 per country, all > 100
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestExplainStatement(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 100, false)
	res := e.mustExec(t, `EXPLAIN SELECT countryCode, COUNT(*) FROM uservisits GROUP BY countryCode`)
	text := ""
	for _, r := range res.Rows {
		text += r[0].(string) + "\n"
	}
	for _, want := range []string{"Project", "Aggregate", "Scan"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %s:\n%s", want, text)
		}
	}
}

func TestDropTable(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 100, true)
	e.mustExec(t, `DROP TABLE uservisits`)
	if _, err := e.s.Exec(`SELECT COUNT(*) FROM uservisits`); err == nil {
		t.Error("query after drop should fail")
	}
	e.mustExec(t, `DROP TABLE IF EXISTS uservisits`) // idempotent
}

func TestSql2RddBridge(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	tr, err := e.s.Query(`SELECT adRevenue, countryCode FROM uservisits WHERE adRevenue > 10.0`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schema[0].Name != "adRevenue" {
		t.Errorf("schema: %v", tr.Schema)
	}
	n, err := tr.RDD.Count()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, r := range genVisits(1000) {
		if r[3].(float64) > 10.0 {
			want++
		}
	}
	if n != want {
		t.Errorf("sql2rdd count = %d, want %d", n, want)
	}
	// and it composes with further RDD ops (the §4 pipeline)
	sum, err := tr.RDD.Map(func(v any) any { return v.(row.Row)[0] }).
		ReduceCtx(t.Context(), func(a, b any) any { return a.(float64) + b.(float64) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.(float64) <= 0 {
		t.Error("pipeline sum should be positive")
	}
}

func TestCTASToDFS(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 500, false)
	e.mustExec(t, `CREATE TABLE us_only AS SELECT * FROM uservisits WHERE countryCode = 'US'`)
	res := e.mustExec(t, `SELECT COUNT(*) FROM us_only`)
	if res.Rows[0][0].(int64) != 100 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestLimitWithoutSort(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	res := e.mustExec(t, `SELECT sourceIP FROM uservisits LIMIT 10`)
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestCaseExpression(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	res := e.mustExec(t, `SELECT CASE WHEN adRevenue > 25.0 THEN 'high' ELSE 'low' END AS seg, COUNT(*)
		FROM uservisits GROUP BY CASE WHEN adRevenue > 25.0 THEN 'high' ELSE 'low' END ORDER BY seg`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	var high, low int64
	for _, r := range genVisits(1000) {
		if r[3].(float64) > 25.0 {
			high++
		} else {
			low++
		}
	}
	if res.Rows[0][1].(int64) != high || res.Rows[1][1].(int64) != low {
		t.Errorf("case counts: %v (want %d/%d)", res.Rows, high, low)
	}
}

func TestReducerCoalescingRecorded(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 2000, true)
	res := e.mustExec(t, `SELECT destURL, COUNT(*) FROM uservisits GROUP BY destURL`)
	if len(res.Stats.ReducerCounts) == 0 {
		t.Fatal("no reducer count recorded")
	}
	fine := e.s.Ctx.Cluster.TotalSlots() * exec.FineBucketsPerSlot
	if res.Stats.ReducerCounts[0] > fine {
		t.Errorf("reducers %d > fine buckets %d", res.Stats.ReducerCounts[0], fine)
	}
	sort.Ints(res.Stats.ReducerCounts)
}
