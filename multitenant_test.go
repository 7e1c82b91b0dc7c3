package shark_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"shark"
)

// newTestCluster boots a small shared cluster.
func newTestCluster(t *testing.T, cfg shark.ClusterConfig) *shark.Cluster {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	cl, err := shark.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// attach creates a session on cl and loads + caches a logs table of n
// rows (schema from shark_test.go).
func attach(t *testing.T, cl *shark.Cluster, name string, n int) *shark.Session {
	t.Helper()
	s, err := cl.NewSession(shark.SessionConfig{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]shark.Row, n)
	for i := 0; i < n; i++ {
		status := int64(200)
		if i%10 == 0 {
			status = 404
		}
		rows[i] = shark.Row{fmt.Sprintf("/p/%d", i%50), status, int64(i % 1000), int64(15000 + i/100)}
	}
	if err := s.LoadRows("logs", logsSchema, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMultiTenantQuickStart mirrors the README: one shared cluster,
// two sessions with isolated data, concurrent correct results, and a
// cancelled statement that leaves its session healthy.
func TestMultiTenantQuickStart(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{})
	etl := attach(t, cl, "etl", 4000)
	dash := attach(t, cl, "dash", 1000)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	check := func(s *shark.Session, want int64) {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			res, err := s.Exec(`SELECT COUNT(*) FROM logs_mem WHERE status = 200`)
			if err != nil {
				errs <- err
				return
			}
			if got := res.Rows[0][0].(int64); got != want {
				errs <- fmt.Errorf("count = %d, want %d", got, want)
				return
			}
		}
	}
	wg.Add(2)
	go check(etl, 3600)
	go check(dash, 900)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Cancel a statement on one session; it stays usable.
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := etl.ExecContext(gctx, `SELECT url, COUNT(*) FROM logs_mem GROUP BY url`); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exec err = %v, want context.Canceled", err)
	}
	res, err := etl.Exec(`SELECT COUNT(*) FROM logs_mem`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 4000 {
		t.Errorf("post-cancel count = %v", res.Rows[0][0])
	}

	// Per-session stats are attributed separately and populated.
	es, ds := etl.Stats(), dash.Stats()
	if es.Jobs == 0 || es.Tasks == 0 {
		t.Errorf("etl stats empty: %+v", es)
	}
	if ds.Jobs == 0 || ds.Tasks == 0 {
		t.Errorf("dash stats empty: %+v", ds)
	}

	// Closing one session keeps the cluster and the other session up.
	dash.Close()
	if _, err := etl.Exec(`SELECT COUNT(*) FROM logs_mem`); err != nil {
		t.Fatalf("etl broken after dash.Close: %v", err)
	}
	if len(cl.AliveWorkers()) != cl.NumWorkers() {
		t.Error("closing a session took down workers")
	}
}

// TestSharedCatalogSessions: SharedCatalog sessions see one metastore.
func TestSharedCatalogSessions(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{})
	w, err := cl.NewSession(shark.SessionConfig{Name: "writer", SharedCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cl.NewSession(shark.SessionConfig{Name: "reader", SharedCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := []shark.Row{{"/a", int64(200), int64(1), int64(15000)}, {"/b", int64(404), int64(2), int64(15000)}}
	if err := w.LoadRows("tiny", logsSchema, rows); err != nil {
		t.Fatal(err)
	}
	res, err := r.Exec(`SELECT COUNT(*) FROM tiny`)
	if err != nil {
		t.Fatalf("reader could not see writer's table: %v", err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

// TestQueryContextCancellable: the sql2rdd bridge honors cancellation
// too.
func TestQueryContextCancellable(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{})
	s := attach(t, cl, "ml", 500)
	gctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	tr, err := s.QueryContext(gctx, `SELECT bytes, status FROM logs_mem`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr.RDD.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("rows = %d", n)
	}
}

// TestSessionNamesUniquePerCluster: duplicate explicit names are
// rejected, auto-names never collide with user-claimed ones, and a
// closed session's name becomes reusable.
func TestSessionNamesUniquePerCluster(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{Workers: 2})
	s2, err := cl.NewSession(shark.SessionConfig{Name: "session-1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NewSession(shark.SessionConfig{Name: "session-1"}); err == nil {
		t.Error("duplicate explicit session name must be rejected")
	}
	auto, err := cl.NewSession(shark.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Tag == s2.Tag {
		t.Errorf("auto-generated name %q collides with a user-claimed name", auto.Tag)
	}
	rows := []shark.Row{{"/a", int64(200), int64(1), int64(15000)}}
	if err := s2.LoadRows("t", logsSchema, rows); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	// The freed name is reusable, including its scoped DFS paths: the
	// successor can load the very same table name.
	s3, err := cl.NewSession(shark.SessionConfig{Name: "session-1"})
	if err != nil {
		t.Fatalf("closed session's name not reusable: %v", err)
	}
	if err := s3.LoadRows("t", logsSchema, rows); err != nil {
		t.Errorf("name reuse left stale DFS state behind: %v", err)
	}
}

// TestClusterClosedRejectsNewSessions: attaching to a closed cluster
// fails cleanly.
func TestClusterClosedRejectsNewSessions(t *testing.T) {
	cl, err := shark.NewCluster(shark.ClusterConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.NewSession(shark.SessionConfig{}); err == nil {
		t.Error("NewSession on a closed cluster must fail")
	}
}

// TestPublicPriorityAndAdmission: the public SessionConfig knobs reach
// the scheduler — a Priority session's statements carry its weight,
// and MaxConcurrentJobs=1 serializes concurrent ExecContext calls with
// the waits visible in Stats().
func TestPublicPriorityAndAdmission(t *testing.T) {
	cl := newTestCluster(t, shark.ClusterConfig{Workers: 2})
	s, err := cl.NewSession(shark.SessionConfig{Name: "gold", Priority: 4, MaxConcurrentJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := []shark.Row{{"/a", int64(200), int64(1), int64(15000)}, {"/b", int64(404), int64(2), int64(16000)}}
	if err := s.LoadRows("logs", logsSchema, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
		t.Fatal(err)
	}

	const stmts = 4
	var wg sync.WaitGroup
	errs := make(chan error, stmts)
	for i := 0; i < stmts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.ExecContext(context.Background(), `SELECT COUNT(*), SUM(bytes) FROM logs_mem`)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// The four SELECTs all passed admission (the CREATE ran before
	// any contention).
	if st.AdmittedJobs < stmts {
		t.Errorf("AdmittedJobs = %d, want >= %d", st.AdmittedJobs, stmts)
	}
	if st.AdmissionWaits == 0 {
		t.Error("AdmissionWaits = 0: four concurrent statements under a cap of 1 never waited")
	}
}

// TestEvictionsReachSessionStatsAndResultCache: the cluster's eviction
// feed has two subscribers on every public cluster — the RDD layer,
// which charges each lost partition to the session that cached the
// table, and the result caches, which credit a store-reclaimed result
// back to its session's quota. Both must hear every event.
func TestEvictionsReachSessionStatsAndResultCache(t *testing.T) {
	// The shuffle budget keeps the repartitioning CTAS's pinned map
	// outputs (retained as the table's lineage) out of the cache budget,
	// so both workers cache.
	cl := newTestCluster(t, shark.ClusterConfig{Workers: 2, WorkerMemoryBytes: 32 << 10, WorkerShuffleBytes: 8 << 20})
	etl, err := cl.NewSession(shark.SessionConfig{Name: "etl"})
	if err != nil {
		t.Fatal(err)
	}
	// 16 partitions of ~9KB over 2 workers × 32KB: the table is larger
	// than memory, so loading and every scan evict.
	etl.DefaultCacheParts = 16
	loadLogs(t, etl, 20000)
	scan := func() {
		t.Helper()
		res, err := etl.Exec(`SELECT COUNT(*) FROM logs_mem`)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0].(int64); n != 20000 {
			t.Fatalf("COUNT(*) under pressure = %d, want 20000", n)
		}
	}
	if _, err := etl.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
		t.Fatal(err)
	}
	scan()
	scan()
	tableEvictions := etl.Stats().Evictions
	if tableEvictions == 0 {
		t.Fatal("Session.Stats().Evictions = 0 for a cached table larger than memory")
	}
	if got := cl.Metrics().CacheEvictions.Load(); got != tableEvictions {
		t.Errorf("cluster counts %d evictions, the only caching session %d", got, tableEvictions)
	}

	dash, err := cl.NewSession(shark.SessionConfig{Name: "dash", ResultCacheBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	loadLogs(t, dash, 100)
	const q = `SELECT status, COUNT(*) FROM logs GROUP BY status`
	if _, err := dash.Exec(q); err != nil {
		t.Fatal(err)
	}
	if dash.Results.Bytes() == 0 {
		t.Fatal("result not cached")
	}
	// The table's scans churn both workers' LRUs past the small result
	// block: the store reclaims it.
	scan()
	scan()
	if got := dash.Results.Bytes(); got != 0 {
		t.Errorf("result cache still charges %d bytes for a block the store reclaimed", got)
	}
	if got := dash.Stats().Evictions; got != 0 {
		t.Errorf("dash charged %d evictions; it caches no table", got)
	}
	// Every eviction is either one of etl's partitions or dash's one
	// result block.
	if cluster, table := cl.Metrics().CacheEvictions.Load(), etl.Stats().Evictions; cluster != table+1 {
		t.Errorf("cluster counts %d evictions, want etl's %d partitions + 1 result block", cluster, table)
	}
	_, missesBefore := dash.Results.Stats()
	if _, err := dash.Exec(q); err != nil {
		t.Fatal(err)
	}
	if _, misses := dash.Results.Stats(); misses != missesBefore+1 {
		t.Errorf("reclaimed result served as a hit (misses %d → %d)", missesBefore, misses)
	}
}
