package core

import (
	"strings"
	"testing"

	"shark/internal/exec"
	"shark/internal/row"
)

func TestMultiKeyOrderBy(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	res := e.mustExec(t, `SELECT countryCode, destURL, COUNT(*) AS c FROM uservisits
		GROUP BY countryCode, destURL ORDER BY countryCode, c DESC, destURL`)
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		pc, cc := prev[0].(string), cur[0].(string)
		if pc > cc {
			t.Fatalf("primary key order violated at %d: %q > %q", i, pc, cc)
		}
		if pc == cc {
			if prev[2].(int64) < cur[2].(int64) {
				t.Fatalf("secondary DESC order violated at %d", i)
			}
			if prev[2].(int64) == cur[2].(int64) && prev[1].(string) > cur[1].(string) {
				t.Fatalf("tertiary order violated at %d", i)
			}
		}
	}
}

func TestLikeAndInEndToEnd(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	res := e.mustExec(t, `SELECT COUNT(*) FROM uservisits
		WHERE destURL LIKE 'url-1%' AND countryCode IN ('US', 'CA')`)
	want := int64(0)
	for _, r := range genVisits(1000) {
		if strings.HasPrefix(r[1].(string), "url-1") &&
			(r[4].(string) == "US" || r[4].(string) == "CA") {
			want++
		}
	}
	if res.Rows[0][0].(int64) != want {
		t.Errorf("count = %v, want %d", res.Rows[0][0], want)
	}
}

func TestArithmeticProjection(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 100, true)
	res := e.mustExec(t, `SELECT adRevenue * 2.0 + 1.0 AS x, adRevenue FROM uservisits LIMIT 5`)
	for _, r := range res.Rows {
		want := r[1].(float64)*2 + 1
		if r[0].(float64) != want {
			t.Errorf("x = %v, want %v", r[0], want)
		}
	}
}

func TestGroupByMultipleColumns(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 2000, true)
	res := e.mustExec(t, `SELECT countryCode, destURL, SUM(adRevenue) FROM uservisits
		GROUP BY countryCode, destURL`)
	ref := map[string]float64{}
	for _, r := range genVisits(2000) {
		ref[r[4].(string)+"|"+r[1].(string)] += r[3].(float64)
	}
	if len(res.Rows) != len(ref) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(ref))
	}
}

func TestCTASFromJoin(t *testing.T) {
	e := newEnv(t, exec.Options{})
	e.writeDFS(t, "rankings_ext", rankingsSchema, genRankings(300))
	e.writeDFS(t, "uservisits_ext", visitsSchema, genVisits(1200))
	e.mustExec(t, `CREATE TABLE joined TBLPROPERTIES ("shark.cache"="true") AS
		SELECT uservisits_ext.sourceIP, rankings_ext.pageRank, uservisits_ext.adRevenue
		FROM rankings_ext JOIN uservisits_ext ON rankings_ext.pageURL = uservisits_ext.destURL`)
	res := e.mustExec(t, `SELECT COUNT(*), AVG(pageRank) FROM joined`)
	if res.Rows[0][0].(int64) <= 0 {
		t.Error("CTAS-from-join produced no rows")
	}
}

func TestIsNullHandling(t *testing.T) {
	e := newEnv(t, exec.Options{})
	rows := []row.Row{
		{"1.1.1.1", "u1", int64(10957), 5.0, "US"},
		{"2.2.2.2", "u2", nil, nil, "CA"},
		{"3.3.3.3", "u3", int64(10958), 7.0, nil},
	}
	e.writeDFS(t, "sparse", visitsSchema, rows)
	e.mustExec(t, `CREATE TABLE sparse_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM sparse`)
	res := e.mustExec(t, `SELECT COUNT(*), COUNT(adRevenue), SUM(adRevenue) FROM sparse_mem`)
	r := res.Rows[0]
	if r[0].(int64) != 3 || r[1].(int64) != 2 || r[2].(float64) != 12.0 {
		t.Errorf("null aggregation: %v", r)
	}
	res = e.mustExec(t, `SELECT COUNT(*) FROM sparse_mem WHERE countryCode IS NULL`)
	if res.Rows[0][0].(int64) != 1 {
		t.Errorf("IS NULL count = %v", res.Rows[0][0])
	}
	res = e.mustExec(t, `SELECT COUNT(*) FROM sparse_mem WHERE adRevenue > 0`)
	if res.Rows[0][0].(int64) != 2 {
		t.Errorf("NULL comparison should be false: %v", res.Rows[0][0])
	}
}

func TestZeroRowQuery(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 100, true)
	res := e.mustExec(t, `SELECT countryCode, COUNT(*) FROM uservisits WHERE adRevenue > 1e12 GROUP BY countryCode`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	// global aggregate over empty input still yields one row
	res = e.mustExec(t, `SELECT COUNT(*), SUM(adRevenue) FROM uservisits WHERE adRevenue > 1e12`)
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 0 || res.Rows[0][1] != nil {
		t.Errorf("empty global agg = %v", res.Rows)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	e := newEnv(t, exec.Options{})
	e.writeDFS(t, "rankings_ext", rankingsSchema, genRankings(200))
	e.mustExec(t, `CREATE TABLE r TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM rankings_ext`)
	res := e.mustExec(t, `SELECT COUNT(*) FROM r a JOIN r b ON a.pageURL = b.pageURL`)
	if res.Rows[0][0].(int64) != 200 {
		t.Errorf("self join count = %v", res.Rows[0][0])
	}
}

func TestStaticAdaptiveFallbackToShuffleJoin(t *testing.T) {
	// When the statically-predicted small side turns out big, the
	// static+adaptive planner must fall back to a full shuffle join
	// and still produce correct results.
	e := newEnv(t, exec.Options{JoinStrategy: exec.StrategyStaticAdaptive, BroadcastThreshold: 1})
	e.writeDFS(t, "rankings_ext", rankingsSchema, genRankings(400))
	e.writeDFS(t, "uservisits_ext", visitsSchema, genVisits(2000))
	e.mustExec(t, `CREATE TABLE rankings TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM rankings_ext`)
	e.mustExec(t, `CREATE TABLE uservisits TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM uservisits_ext`)
	res := e.mustExec(t, `SELECT COUNT(*) FROM rankings JOIN uservisits ON rankings.pageURL = uservisits.destURL`)
	if len(res.Stats.JoinStrategies) != 1 || !strings.Contains(res.Stats.JoinStrategies[0], "shuffle-join") {
		t.Fatalf("expected fallback shuffle join, got %v", res.Stats.JoinStrategies)
	}
	ranks := map[string]bool{}
	for _, r := range genRankings(400) {
		ranks[r[0].(string)] = true
	}
	want := int64(0)
	for _, v := range genVisits(2000) {
		if ranks[v[1].(string)] {
			want++
		}
	}
	if res.Rows[0][0].(int64) != want {
		t.Errorf("count = %v, want %d", res.Rows[0][0], want)
	}
}

func TestSql2RddOverAggregate(t *testing.T) {
	// sql2rdd must work for plans with shuffles (aggregates), not just
	// narrow pipelines.
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 1000, true)
	tr, err := e.s.Query(`SELECT countryCode, SUM(adRevenue) AS rev FROM uservisits GROUP BY countryCode`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr.RDD.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("groups = %d", n)
	}
	// downstream RDD processing over the aggregate result
	total, err := tr.RDD.Map(func(v any) any { return v.(row.Row)[1] }).
		ReduceCtx(t.Context(), func(a, b any) any { return a.(float64) + b.(float64) })
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, r := range genVisits(1000) {
		want += r[3].(float64)
	}
	if diff := total.(float64) - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("sum over rdd = %v, want %v", total, want)
	}
}
