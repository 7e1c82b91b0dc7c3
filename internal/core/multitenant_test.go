package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shark/internal/catalog"
	"shark/internal/cluster"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// sharedWorld is one simulated cluster that several sessions attach
// to, the multi-tenant shape of the redesigned API.
type sharedWorld struct {
	cl  *cluster.Cluster
	ctx *rdd.Context
	fs  *dfs.FS
	cat *catalog.Catalog // shared-catalog sessions attach here
}

func newSharedWorld(t *testing.T) *sharedWorld {
	t.Helper()
	cl := cluster.New(cluster.Config{Workers: 4, Slots: 2, Profile: cluster.SparkProfile()})
	t.Cleanup(cl.Close)
	svc := shuffle.NewService(cl, shuffle.Memory, t.TempDir())
	fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return &sharedWorld{cl: cl, ctx: rdd.NewContext(cl, svc, rdd.Options{}), fs: fs, cat: catalog.New()}
}

// session attaches a new session. shared selects the world's shared
// catalog; otherwise the session gets a private one.
func (w *sharedWorld) session(name string, shared bool) *Session {
	cat := catalog.New()
	if shared {
		cat = w.cat
	}
	return NewSessionNamed(w.ctx, w.fs, cat, name, exec.Options{})
}

var tenantSchema = row.Schema{
	{Name: "k", Type: row.TInt},
	{Name: "grp", Type: row.TString},
	{Name: "v", Type: row.TFloat},
}

// loadTenantTable writes n rows (values offset by base) into the DFS
// under a session-unique path and caches them as name_mem.
func loadTenantTable(t *testing.T, s *Session, name string, n int, base float64) {
	t.Helper()
	file := "data/" + s.Tag + "/" + name
	w, err := s.FS.Create(file, dfs.Text, tenantSchema)
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		if err := w.Write(row.Row{int64(i), groups[i%len(groups)], base + float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterExternal(name, file, tenantSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(fmt.Sprintf(
		`CREATE TABLE %s_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM %s`, name, name)); err != nil {
		t.Fatal(err)
	}
}

// TestTwoSessionsConcurrentIsolatedResults: two private-catalog
// sessions on one cluster run the same table name with different data
// concurrently and each sees exactly its own answers.
func TestTwoSessionsConcurrentIsolatedResults(t *testing.T) {
	w := newSharedWorld(t)
	s1 := w.session("alice", false)
	s2 := w.session("bob", false)
	defer s1.Close()
	defer s2.Close()
	loadTenantTable(t, s1, "events", 2000, 0)
	loadTenantTable(t, s2, "events", 1000, 1_000_000)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	runMany := func(s *Session, wantRows int64, wantMin float64) {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			res, err := s.Exec(`SELECT COUNT(*), MIN(v) FROM events_mem`)
			if err != nil {
				errs <- err
				return
			}
			if got := res.Rows[0][0].(int64); got != wantRows {
				errs <- fmt.Errorf("%s: count = %d, want %d", s.Tag, got, wantRows)
				return
			}
			if got := res.Rows[0][1].(float64); got != wantMin {
				errs <- fmt.Errorf("%s: min = %v, want %v", s.Tag, got, wantMin)
				return
			}
		}
	}
	wg.Add(2)
	go runMany(s1, 2000, 0)
	go runMany(s2, 1000, 1_000_000)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Per-session attribution: both sessions did work.
	if st := s1.Stats(); st.Jobs == 0 || st.Tasks == 0 {
		t.Errorf("alice stats empty: %+v", st)
	}
	if st := s2.Stats(); st.Jobs == 0 || st.Tasks == 0 {
		t.Errorf("bob stats empty: %+v", st)
	}
}

// TestSharedCatalogVisibility: sessions attached to the shared catalog
// see each other's tables; a private-catalog session does not.
func TestSharedCatalogVisibility(t *testing.T) {
	w := newSharedWorld(t)
	s1 := w.session("writer", true)
	s2 := w.session("reader", true)
	s3 := w.session("outsider", false)
	loadTenantTable(t, s1, "facts", 400, 0)

	res, err := s2.Exec(`SELECT COUNT(*) FROM facts_mem`)
	if err != nil {
		t.Fatalf("shared-catalog reader: %v", err)
	}
	if res.Rows[0][0].(int64) != 400 {
		t.Errorf("reader count = %v", res.Rows[0][0])
	}
	if _, err := s3.Exec(`SELECT COUNT(*) FROM facts_mem`); err == nil {
		t.Error("private-catalog session saw another session's table")
	}
}

// TestExecContextCancelThenReuse: cancelling a statement mid-flight
// returns context.Canceled and the same session then answers the next
// query with full, correct results.
func TestExecContextCancelThenReuse(t *testing.T) {
	w := newSharedWorld(t)
	s := w.session("c", false)
	defer s.Close()
	loadTenantTable(t, s, "events", 4000, 0)

	// Cancel quickly; whether parsing/planning got far enough for the
	// cancellation to land mid-query, the session must survive.
	gctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(500 * time.Microsecond)
		cancel()
	}()
	_, err := s.ExecContext(gctx, `SELECT grp, SUM(v), COUNT(*) FROM events_mem GROUP BY grp`)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	if err == nil {
		t.Log("query finished before the cancel landed; retrying with a pre-cancelled context")
		pre, preCancel := context.WithCancel(context.Background())
		preCancel()
		if _, err := s.ExecContext(pre, `SELECT COUNT(*) FROM events_mem`); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
		}
	}

	// No queued tasks may linger and the next statement is correct.
	res, err := s.Exec(`SELECT COUNT(*), SUM(v) FROM events_mem`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 4000 {
		t.Errorf("post-cancel count = %d, want 4000", got)
	}
	var want float64
	for i := 0; i < 4000; i++ {
		want += float64(i)
	}
	if got := res.Rows[0][1].(float64); got != want {
		t.Errorf("post-cancel sum = %v, want %v", got, want)
	}
}

// TestSessionCloseReleasesOnlyOwnState: closing one session drops its
// cached tables (blocks leave worker memory) without touching the
// other session or shutting the shared cluster down.
func TestSessionCloseReleasesOnlyOwnState(t *testing.T) {
	w := newSharedWorld(t)
	s1 := w.session("doomed", false)
	s2 := w.session("survivor", false)
	loadTenantTable(t, s1, "mine", 800, 0)
	loadTenantTable(t, s2, "yours", 800, 0)

	blocksWithPrefix := func(prefix string) int {
		n := 0
		for i := 0; i < w.cl.NumWorkers(); i++ {
			for _, k := range w.cl.Worker(i).Store().Keys() {
				if strings.HasPrefix(k, prefix) {
					n++
				}
			}
		}
		return n
	}
	if blocksWithPrefix("rdd/") == 0 {
		t.Fatal("no cached blocks before close")
	}
	before := blocksWithPrefix("rdd/")

	s1.Close()
	after := blocksWithPrefix("rdd/")
	if after >= before {
		t.Errorf("close evicted nothing: %d blocks before, %d after", before, after)
	}
	if s1.Cat.Exists("mine_mem") {
		t.Error("closed session's table still registered")
	}
	// The survivor still works on the shared cluster.
	res, err := s2.Exec(`SELECT COUNT(*) FROM yours_mem`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 800 {
		t.Errorf("survivor count = %v", res.Rows[0][0])
	}
	// Closing again is a no-op.
	s1.Close()
}

// TestCloseSkipsReCreatedTableOnSharedCatalog: after session A's table
// is dropped and re-created by session B under the same name on a
// shared catalog, A.Close must not drop B's live table.
func TestCloseSkipsReCreatedTableOnSharedCatalog(t *testing.T) {
	w := newSharedWorld(t)
	a := w.session("a", true)
	b := w.session("b", true)
	loadTenantTable(t, a, "shared", 200, 0)

	// B drops A's cached table and re-creates the name as its own.
	if _, err := b.Exec(`DROP TABLE shared_mem`); err != nil {
		t.Fatal(err)
	}
	loadTenantTable(t, b, "shared2", 300, 0) // distinct DFS file for B
	if _, err := b.Exec(`CREATE TABLE shared_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM shared2`); err != nil {
		t.Fatal(err)
	}

	a.Close()
	res, err := b.Exec(`SELECT COUNT(*) FROM shared_mem`)
	if err != nil {
		t.Fatalf("b's re-created table vanished after a.Close: %v", err)
	}
	if res.Rows[0][0].(int64) != 300 {
		t.Errorf("count = %v, want 300", res.Rows[0][0])
	}
}

// TestCooperativeCancelMidPartitionScan: a deliberately slow
// single-partition scan (a per-row UDF that sleeps) must abort
// mid-partition within a bounded wall-clock when its context is
// cancelled — not at the partition boundary seconds later — and leave
// the session fully reusable.
func TestCooperativeCancelMidPartitionScan(t *testing.T) {
	w := newSharedWorld(t)
	s := w.session("slowpoke", false)
	defer s.Close()
	s.DefaultCacheParts = 1 // one partition: boundary-only cancel would wait out the whole scan
	const rows = 40000
	loadTenantTable(t, s, "big", rows, 0)
	err := s.RegisterUDF("SLOWROW", row.TBool, 1, 1, func(args []any) any {
		time.Sleep(100 * time.Microsecond) // full scan ≈ 4s
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	gctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.ExecContext(gctx, `SELECT COUNT(*) FROM big_mem WHERE SLOWROW(k)`)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The single partition needs ~4s to finish; the cooperative abort
	// must land far earlier. 1.5s leaves slack for slow CI under -race.
	if elapsed > 1500*time.Millisecond {
		t.Errorf("cancel took %v; the scan ran its partition to the boundary", elapsed)
	}
	// The abort is visible in the session's stats once the task body
	// lands (it may trail the master's return by one row checkpoint).
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().CancelledMidPartition == 0 {
		if time.Now().After(deadline) {
			t.Fatal("CancelledMidPartition stayed 0")
		}
		time.Sleep(time.Millisecond)
	}
	// Session stays usable and correct.
	res, err := s.Exec(`SELECT COUNT(*) FROM big_mem`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != rows {
		t.Errorf("post-abort count = %d, want %d", got, rows)
	}
}

// TestCooperativeCancelMidPartitionGroupBy is the scan test's twin with
// the slow UDF in the GROUP BY expression: the fused aggregation never
// pulls a row iterator, so the abort has to come from the batch
// kernels' own polls (the row adapter's, every rdd.CancelCheckRows
// rows).
func TestCooperativeCancelMidPartitionGroupBy(t *testing.T) {
	w := newSharedWorld(t)
	s := w.session("slowkey", false)
	defer s.Close()
	s.DefaultCacheParts = 1
	const rows = 40000
	loadTenantTable(t, s, "big", rows, 0)
	err := s.RegisterUDF("SLOWKEY", row.TInt, 1, 1, func(args []any) any {
		time.Sleep(100 * time.Microsecond) // full scan ≈ 4s
		return args[0].(int64) % 8
	})
	if err != nil {
		t.Fatal(err)
	}

	gctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.ExecContext(gctx, `SELECT SLOWKEY(k), COUNT(*) FROM big_mem GROUP BY SLOWKEY(k)`)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 1500*time.Millisecond {
		t.Errorf("cancel took %v; the aggregation ran its partition to the boundary", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().CancelledMidPartition == 0 {
		if time.Now().After(deadline) {
			t.Fatal("CancelledMidPartition stayed 0")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := s.Exec(`SELECT k % 8, COUNT(*) FROM big_mem GROUP BY k % 8`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 || res.Rows[0][1].(int64) != rows/8 {
		t.Errorf("post-abort group-by = %v", res.Rows)
	}
}

// gateUDF installs a blocking UDF over a one-row table: the single
// evaluation per statement signals entered and holds until the gate
// channel yields. Used to park statements mid-execution
// deterministically and count how many execute concurrently.
func gateUDF(t *testing.T, s *Session, entered *atomic.Int64, gate chan struct{}) {
	t.Helper()
	err := s.RegisterUDF("GATE", row.TBool, 1, 1, func(args []any) any {
		entered.Add(1)
		<-gate
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionControlSerializesStatements: a session capped at
// MaxConcurrentJobs=1 issuing three concurrent ExecContext calls must
// run them strictly one at a time (FIFO admission), recording two
// admission waits and three admitted jobs.
func TestAdmissionControlSerializesStatements(t *testing.T) {
	w := newSharedWorld(t)
	s := w.session("capped", false)
	defer s.Close()
	s.DefaultCacheParts = 1
	loadTenantTable(t, s, "small", 1, 0)
	var entered atomic.Int64
	gate := make(chan struct{})
	gateUDF(t, s, &entered, gate)
	s.MaxConcurrentJobs = 1 // after setup: the loads above should not queue

	const stmts = 3
	errs := make(chan error, stmts)
	var wg sync.WaitGroup
	for i := 0; i < stmts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.ExecContext(context.Background(), `SELECT COUNT(*) FROM small_mem WHERE GATE(k)`)
			errs <- err
		}()
	}
	// Exactly one statement may reach execution while the gate holds.
	deadline := time.Now().Add(2 * time.Second)
	for entered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no statement ever started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // give stragglers time to (incorrectly) start
	if got := entered.Load(); got != 1 {
		t.Fatalf("%d statements executing concurrently under MaxConcurrentJobs=1", got)
	}
	if got := s.Stats().AdmissionWaits; got != 2 {
		t.Errorf("AdmissionWaits = %d, want 2", got)
	}
	// Release everyone: each statement passes the gate once admitted.
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := entered.Load(); got != stmts {
		t.Errorf("entered = %d, want %d", got, stmts)
	}
	if got := s.Stats().AdmittedJobs; got != stmts {
		t.Errorf("AdmittedJobs = %d, want %d", got, stmts)
	}
}

// TestAdmissionCancelWhileQueuedNeverDispatches: cancelling a
// statement that is still waiting for admission releases it
// immediately — it never becomes a job and never dispatches a task.
func TestAdmissionCancelWhileQueuedNeverDispatches(t *testing.T) {
	w := newSharedWorld(t)
	s := w.session("queued", false)
	defer s.Close()
	s.DefaultCacheParts = 1
	loadTenantTable(t, s, "small", 1, 0)
	var entered atomic.Int64
	gate := make(chan struct{})
	gateUDF(t, s, &entered, gate)
	s.MaxConcurrentJobs = 1

	first := make(chan error, 1)
	go func() {
		_, err := s.ExecContext(context.Background(), `SELECT COUNT(*) FROM small_mem WHERE GATE(k)`)
		first <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for entered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first statement never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Second statement queues for admission; cancel it there.
	gctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, err := s.ExecContext(gctx, `SELECT COUNT(*) FROM small_mem`)
		second <- err
	}()
	for s.Stats().AdmissionWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second statement never queued for admission")
		}
		time.Sleep(time.Millisecond)
	}
	launchedBefore := w.cl.TasksLaunched()
	jobsBefore := s.Stats().Jobs
	cancel()
	select {
	case err := <-second:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued statement err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled queued statement never returned")
	}
	// No job was created and no task was dispatched for it (the first
	// statement is parked inside the gate, so the counters are quiet).
	if got := w.cl.TasksLaunched(); got != launchedBefore {
		t.Errorf("TasksLaunched went %d -> %d during a queued-statement cancel", launchedBefore, got)
	}
	if got := s.Stats().Jobs; got != jobsBefore {
		t.Errorf("Jobs went %d -> %d: the cancelled wait produced a job", jobsBefore, got)
	}

	close(gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// The slot freed by the finished first statement admits new work.
	res, err := s.Exec(`SELECT COUNT(*) FROM small_mem`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 1 {
		t.Errorf("post-cancel count = %d, want 1", got)
	}
}

// TestStatementShuffleOutputsReleased: a join-heavy statement pins
// shuffle map outputs in worker memory while it runs; once it
// completes with no live RDD over those shuffles, the pinned bytes
// must return to baseline instead of outliving the statement (the
// PR 4 storage follow-up).
func TestStatementShuffleOutputsReleased(t *testing.T) {
	w := newSharedWorld(t)
	// Broadcast threshold 1 byte forces a real shuffle join.
	s := NewSessionNamed(w.ctx, w.fs, catalog.New(), "joiner", exec.Options{BroadcastThreshold: 1})
	defer s.Close()
	loadTenantTable(t, s, "lhs", 600, 0)
	loadTenantTable(t, s, "rhs", 400, 0)

	pinned := func() int64 {
		var n int64
		for i := 0; i < w.cl.NumWorkers(); i++ {
			n += w.cl.Worker(i).Store().PinnedBytes()
		}
		return n
	}
	baseline := pinned()

	res, err := s.Exec(`SELECT lhs_mem.grp, COUNT(*) FROM lhs_mem JOIN rhs_mem ON lhs_mem.k = rhs_mem.k GROUP BY lhs_mem.grp`)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := false
	for _, st := range res.Stats.JoinStrategies {
		if strings.Contains(st, "shuffle-join") {
			shuffled = true
		}
	}
	if !shuffled {
		t.Fatalf("scenario broken: join strategies %v include no shuffle join", res.Stats.JoinStrategies)
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].(int64)
	}
	if total != 400 {
		t.Errorf("join row count = %d, want 400", total)
	}
	if got := pinned(); got != baseline {
		t.Errorf("pinned shuffle bytes = %d after statement, want baseline %d: map outputs outlived the statement", got, baseline)
	}
	// The session keeps answering after the cleanup.
	if _, err := s.Exec(`SELECT COUNT(*) FROM lhs_mem`); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionAttribution: with a bounded cluster, evictions of a
// session's cached table show up in that session's stats.
func TestEvictionAttribution(t *testing.T) {
	cl := cluster.New(cluster.Config{
		Workers: 2, Slots: 2,
		Profile:           cluster.SparkProfile(),
		WorkerMemoryBytes: 12 << 10,
	})
	defer cl.Close()
	svc := shuffle.NewService(cl, shuffle.Memory, t.TempDir())
	ctx := rdd.NewContext(cl, svc, rdd.Options{})
	fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSessionNamed(ctx, fs, catalog.New(), "pressed", exec.Options{})
	loadTenantTable(t, s, "fat", 3000, 0)
	for i := 0; i < 3; i++ {
		if _, err := s.Exec(`SELECT COUNT(*) FROM fat_mem`); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if cl.Metrics().CacheEvictions.Load() > 0 && st.Evictions == 0 {
		t.Errorf("cluster evicted %d blocks but session stats show none: %+v",
			cl.Metrics().CacheEvictions.Load(), st)
	}
	if st.CacheRecomputes == 0 && st.CacheHits == 0 {
		t.Errorf("no cache traffic recorded at all: %+v", st)
	}
}
