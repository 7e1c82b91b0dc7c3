package shark_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"shark"
)

// loadTiny loads a small logs-shaped table with n rows under the
// given name.
func loadTiny(t *testing.T, s *shark.Session, table string, n int) {
	t.Helper()
	rows := make([]shark.Row, n)
	for i := range rows {
		status := int64(200)
		if i%3 == 0 {
			status = 404
		}
		rows[i] = shark.Row{fmt.Sprintf("/p/%d", i), status, int64(i * 10), int64(15000 + i)}
	}
	if err := s.LoadRows(table, logsSchema, rows); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheSharedInvalidation: sessions on a shared catalog share
// one plan cache; one session's DDL invalidates the other's cached
// plan and the next execution sees the new table, never stale
// results.
func TestPlanCacheSharedInvalidation(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{})
	a, err := cl.NewSession(shark.SessionConfig{Name: "ddl", SharedCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.NewSession(shark.SessionConfig{Name: "dash", SharedCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Plans == nil || a.Plans != b.Plans {
		t.Fatal("shared-catalog sessions must share one plan cache")
	}

	loadTiny(t, a, "ev", 4)
	if _, err := a.Exec(`CREATE TABLE ev_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM ev`); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT COUNT(*) FROM ev_mem`
	res, err := b.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	h0, _ := b.Plans.Stats()
	if _, err := b.Exec(q); err != nil {
		t.Fatal(err)
	}
	h1, _ := b.Plans.Stats()
	if h1 <= h0 {
		t.Fatalf("repeat of %q did not hit the plan cache (hits %d -> %d)", q, h0, h1)
	}

	// Session A rebuilds the table with different contents. B's cached
	// plan points at the old memtable; the catalog version bump must
	// keep it from being reused.
	if _, err := a.Exec(`DROP TABLE ev_mem`); err != nil {
		t.Fatal(err)
	}
	loadTiny(t, a, "ev2", 7)
	if _, err := a.Exec(`CREATE TABLE ev_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM ev2`); err != nil {
		t.Fatal(err)
	}
	res, err = b.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 7 {
		t.Fatalf("stale plan after peer DDL: count = %d, want 7", got)
	}
}

// TestResultCacheHitAndInvalidation: an opted-in session serves
// repeated deterministic SELECTs from the result cache with
// byte-identical rows, and an invalidating write makes the next
// execution recompute.
func TestResultCacheHitAndInvalidation(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{})
	s, err := cl.NewSession(shark.SessionConfig{Name: "rc", ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	loadTiny(t, s, "ev", 30)
	if _, err := s.Exec(`CREATE TABLE ev_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM ev`); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT status, COUNT(*) AS n, SUM(bytes) AS b FROM ev_mem GROUP BY status ORDER BY status`
	first, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.Results.Stats(); hits != 1 {
		t.Fatalf("second execution should hit the result cache, hits=%d", hits)
	}
	if !reflect.DeepEqual(first.Schema, second.Schema) || !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatal("cached result differs from computed result")
	}

	// Rebuilding the input bumps its table version: the cached entry
	// must not serve, and the recomputed result reflects the new data.
	if _, err := s.Exec(`DROP TABLE ev_mem`); err != nil {
		t.Fatal(err)
	}
	loadTiny(t, s, "ev2", 31)
	if _, err := s.Exec(`CREATE TABLE ev_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM ev2`); err != nil {
		t.Fatal(err)
	}
	third, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(third.Rows, second.Rows) {
		t.Fatal("result cache served stale rows after an invalidating write")
	}
	fourth, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third.Rows, fourth.Rows) {
		t.Fatal("post-invalidation result did not re-cache consistently")
	}
}

// TestResultCacheQuota: a session's results past its byte quota evict
// its own least-recently-used entries rather than growing without
// bound.
func TestResultCacheQuota(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{})
	// Quota sized to hold roughly one small result.
	s, err := cl.NewSession(shark.SessionConfig{Name: "rcq", ResultCacheBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	loadTiny(t, s, "ev", 20)
	q := func(status int) string {
		return fmt.Sprintf(`SELECT COUNT(*) FROM ev WHERE status = %d`, status)
	}
	if _, err := s.Exec(q(404)); err != nil {
		t.Fatal(err)
	}
	// Push several other results through the quota.
	for i := 0; i < 5; i++ {
		if _, err := s.Exec(q(i)); err != nil {
			t.Fatal(err)
		}
	}
	hitsBefore, _ := s.Results.Stats()
	if _, err := s.Exec(q(404)); err != nil {
		t.Fatal(err)
	}
	hitsAfter, _ := s.Results.Stats()
	if hitsAfter != hitsBefore {
		t.Fatal("first query should have been evicted by the byte quota")
	}
}

// TestPreparedStatementsCore: Prepare once, execute many times with
// different typed args off the same immutable AST.
func TestPreparedStatementsCore(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{})
	s, err := cl.NewSession(shark.SessionConfig{Name: "prep"})
	if err != nil {
		t.Fatal(err)
	}
	loadTiny(t, s, "ev", 9)
	p, err := s.Prepare(`SELECT COUNT(*) FROM ev WHERE status = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}
	notFound, err := s.ExecPrepared(p, shark.Row{int64(404)})
	if err != nil {
		t.Fatal(err)
	}
	okRes, err := s.ExecPrepared(p, shark.Row{int64(200)})
	if err != nil {
		t.Fatal(err)
	}
	n404 := notFound.Rows[0][0].(int64)
	n200 := okRes.Rows[0][0].(int64)
	if n404+n200 != 9 || n404 == 0 || n200 == 0 {
		t.Fatalf("prepared exec wrong: 404=%d 200=%d", n404, n200)
	}
	// A string argument full of SQL syntax binds as data, not text.
	pq, err := s.Prepare(`SELECT COUNT(*) FROM ev WHERE url = ?`)
	if err != nil {
		t.Fatal(err)
	}
	hostile, err := s.ExecPrepared(pq, shark.Row{`' OR '1'='1' -- \`})
	if err != nil {
		t.Fatalf("hostile string arg failed to bind: %v", err)
	}
	if got := hostile.Rows[0][0].(int64); got != 0 {
		t.Fatalf("hostile string matched %d rows, want 0", got)
	}
	// Unbound parameters are an error on the plain exec path.
	if _, err := s.Exec(`SELECT COUNT(*) FROM ev WHERE status = ?`); err == nil {
		t.Fatal("executing a parameterized statement without args must fail")
	}
}

// TestResultOutlivesDroppedTable: a scan reads strings as sub-strings
// of a cached partition's bytes, and copies every one that leaves the
// task — so a small result (computed, or held by the result cache)
// stays intact, and owes nothing to the table, after the table is
// dropped and its partitions collected.
func TestResultOutlivesDroppedTable(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{})
	s, err := cl.NewSession(shark.SessionConfig{Name: "rc", ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	loadTiny(t, s, "ev", n) // url = /p/<i>: unique, so stored raw
	if _, err := s.Exec(`CREATE TABLE ev_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM ev`); err != nil {
		t.Fatal(err)
	}
	const (
		sel = `SELECT bytes, url, SUBSTR(url, 4) FROM ev_mem WHERE bytes < 500 ORDER BY bytes`
		agg = `SELECT SUBSTR(url, 1, 5) AS prefix, MAX(url) AS last FROM ev_mem WHERE bytes >= 49000 GROUP BY SUBSTR(url, 1, 5) ORDER BY prefix`
	)
	var held []*shark.Result
	for _, q := range []string{sel, agg, sel, agg} { // the repeats come from the result cache
		res, err := s.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, res)
	}
	if hits, _ := s.Results.Stats(); hits != 2 {
		t.Fatalf("result cache hits = %d, want 2", hits)
	}
	if _, err := s.Exec(`DROP TABLE ev_mem`); err != nil {
		t.Fatal(err)
	}
	runtime.GC()

	wantSel := make([]shark.Row, 50) // bytes = 10 i < 500
	for i := range wantSel {
		wantSel[i] = shark.Row{int64(10 * i), fmt.Sprintf("/p/%d", i), fmt.Sprint(i)}
	}
	wantAgg := []shark.Row{{"/p/49", "/p/4999"}} // i ≥ 4900
	for i, want := range [][]shark.Row{wantSel, wantAgg, wantSel, wantAgg} {
		if !reflect.DeepEqual(held[i].Rows, want) {
			t.Errorf("result %d after DROP TABLE = %v, want %v", i, held[i].Rows, want)
		}
	}
}
