package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shark"
	"shark/internal/obs"
	"shark/internal/server"
	"shark/internal/wire"
)

// start boots a server on 127.0.0.1:0 with nRows of logs cached in the
// shared catalog as logs_mem.
func start(t *testing.T, cfg server.Config, nRows int) (*server.Server, string) {
	t.Helper()
	if cfg.Cluster.Workers == 0 {
		cfg.Cluster.Workers = 4
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	if nRows > 0 {
		loader, err := srv.Cluster().NewSession(shark.SessionConfig{Name: "loader", SharedCatalog: true})
		if err != nil {
			t.Fatal(err)
		}
		schema := shark.Schema{
			{Name: "url", Type: shark.TString},
			{Name: "status", Type: shark.TInt},
			{Name: "bytes", Type: shark.TInt},
		}
		rows := make([]shark.Row, nRows)
		for i := range rows {
			rows[i] = shark.Row{fmt.Sprintf("/p/%d", i%500), int64(200 + i%2), int64(i % 1000)}
		}
		if err := loader.LoadRows("logs", schema, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := loader.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// attach dials, handshakes and attaches a shared-catalog session.
func attach(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Roundtrip(wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Roundtrip(wire.Attach{SharedCatalog: true}); err != nil {
		t.Fatal(err)
	}
	return c
}

// fetchAll drains a cursor and returns the total row count fetched.
func fetchAll(c *wire.Client, cursor uint64) (int, error) {
	total := 0
	for {
		resp, err := c.Roundtrip(wire.Fetch{Cursor: cursor})
		if err != nil {
			return total, err
		}
		batch, ok := resp.(wire.Rows)
		if !ok {
			return total, fmt.Errorf("unexpected fetch response %T", resp)
		}
		total += batch.Cols.Len()
		if batch.Done {
			return total, nil
		}
	}
}

// rowsOf boxes a decoded Rows frame back into rows.
func rowsOf(batch wire.Rows) []shark.Row {
	rows := make([]shark.Row, batch.Cols.Len())
	for i := range rows {
		rows[i] = batch.Cols.Row(i)
	}
	return rows
}

// TestMalformedFramesDoNotKillServer throws hostile bytes at the
// server: every variant must at worst kill that one connection. The
// server keeps accepting, and (since it runs in-process) any panic
// would fail this test run.
func TestMalformedFramesDoNotKillServer(t *testing.T) {
	_, addr := start(t, server.Config{}, 100)

	hostile := [][]byte{
		{0xff, 0xff, 0xff, 0xff},             // oversized length prefix
		{0x00, 0x00, 0x00, 0x00},             // empty frame
		{0x00, 0x00, 0x00, 0x05, 0x63, 0x01}, // truncated frame
		{0x00, 0x00, 0x00, 0x02, 0x63, 0x01}, // unknown message type
		// Rows frame claiming 2^32 rows in a 10-byte payload.
		append([]byte{0x00, 0x00, 0x00, 0x06, wire.TypeRows, 0x01},
			0xff, 0xff, 0xff, 0x7f),
	}
	for i, payload := range hostile {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		nc.Write(payload)
		// The server must hang up (possibly after an error frame),
		// not stall or crash.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1024)
		for {
			if _, err := nc.Read(buf); err != nil {
				break
			}
		}
		nc.Close()
	}

	// Protocol misuse after a valid handshake: Exec before Attach,
	// then a non-Hello first message on a fresh connection.
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Roundtrip(wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	var remote *wire.RemoteError
	if _, err := c.Roundtrip(wire.ExecPrepared{SQL: "SELECT 1"}); !errors.As(err, &remote) || remote.Code != wire.CodeProtocol {
		t.Errorf("exec before attach = %v, want CodeProtocol", err)
	}
	c.Close()

	c2, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Roundtrip(wire.Attach{}); err == nil {
		t.Error("attach before hello must fail")
	}
	c2.Close()

	// After all that abuse the server still serves real queries.
	c3 := attach(t, addr)
	defer c3.Close()
	id, resp, err := c3.RoundtripID(context.Background(), wire.ExecPrepared{SQL: "SELECT COUNT(*) FROM logs_mem"})
	if err != nil {
		t.Fatal(err)
	}
	if rs := resp.(wire.ResultSet); rs.NumRows != 1 {
		t.Errorf("NumRows = %d", rs.NumRows)
	}
	if n, err := fetchAll(c3, id); err != nil || n != 1 {
		t.Errorf("fetch = %d, %v", n, err)
	}
}

func TestAuthAndConnLimit(t *testing.T) {
	_, addr := start(t, server.Config{Token: "hunter2", MaxConns: 1}, 0)

	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var remote *wire.RemoteError
	if _, err := c.Roundtrip(wire.Hello{Version: wire.Version, Token: "wrong"}); !errors.As(err, &remote) || remote.Code != wire.CodeAuth {
		t.Fatalf("wrong token = %v, want CodeAuth", err)
	}
	c.Close()

	// Hold the single slot — once the server has released the one the
	// refused connection above occupied, which races our Close.
	var held *wire.Client
	for deadline := time.Now().Add(5 * time.Second); ; {
		if held, err = wire.Dial(addr, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err = held.Roundtrip(wire.Hello{Version: wire.Version, Token: "hunter2"}); err == nil {
			break
		}
		held.Close()
		if !errors.As(err, &remote) || remote.Code != wire.CodeConnLimit || time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// ...so the next connection is refused with CodeConnLimit before
	// it sends anything (the client surfaces the unmatched Error as a
	// terminal connection failure).
	over, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := over.Roundtrip(wire.Hello{Version: wire.Version, Token: "hunter2"}); !errors.As(err, &remote) || remote.Code != wire.CodeConnLimit {
		t.Fatalf("over-limit hello = %v, want CodeConnLimit", err)
	}
	over.Close()

	// Releasing the slot admits new connections again.
	held.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Roundtrip(wire.Hello{Version: wire.Version, Token: "hunter2"})
		c.Close()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillConnMidQueryCancelsJob covers the serving layer's core
// cleanup promise: abruptly dropping the TCP connection while a
// statement runs cancels its job cluster-wide.
//
// The kill races the statement: it may land while tasks are queued
// (CancelledTasks moves), while a task body runs
// (CancelledMidPartition moves), between stages (neither counter
// moves but the statement's trace finishes with a cancellation
// error), or after the statement already completed cleanly. The last
// case proves nothing, so the scenario retries instead of hanging on
// a counter that will never move — the source of this test's old
// timing flake. Every observation is event-based on server state
// (counters, the statement trace), never a fixed sleep.
func TestKillConnMidQueryCancelsJob(t *testing.T) {
	srv, addr := start(t, server.Config{Cluster: shark.ClusterConfig{Workers: 2, SlotsPerWorker: 1}}, 40000)
	web := httptest.NewServer(srv.ObsHandler())
	defer web.Close()

	cancelsSeen := func() int64 {
		return srv.Cluster().Metrics().CancelledTasks.Load() +
			srv.Cluster().SchedulerMetrics().CancelledMidPartition.Load()
	}
	finishedStmts := func() float64 {
		return scrapeMetrics(t, web.URL)["shark_server_statements_finished_total"]
	}

	const attempts = 5
	for attempt := 0; attempt < attempts; attempt++ {
		base := cancelsSeen()
		baseFinished := finishedStmts()
		c := attach(t, addr)
		launched := srv.Cluster().TasksLaunched()
		// Fire a heavy self-join and sever the connection once its
		// tasks are actually on workers.
		c.Send(wire.ExecPrepared{SQL: `SELECT a.url, COUNT(*) FROM logs_mem a JOIN logs_mem b ON a.url = b.url GROUP BY a.url`})
		deadline := time.Now().Add(30 * time.Second)
		for srv.Cluster().TasksLaunched() == launched && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		c.Kill()
		for time.Now().Before(deadline) {
			if cancelsSeen() > base {
				return // cluster-wide cancellation observed
			}
			if finishedStmts() > baseFinished {
				// The statement is done; its trace says how it ended.
				if latestTrace(t, web.URL).Error != "" {
					return // cancelled between stages: no counter, but the kill took
				}
				break // completed cleanly before the kill landed: retry
			}
			time.Sleep(5 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			t.Fatal("no cancellation and no completion observed after killing the connection")
		}
		t.Logf("attempt %d: statement completed before the kill, retrying", attempt)
	}
	t.Fatalf("statement completed cleanly before the kill in all %d attempts", attempts)
}

// scrapeMetrics fetches /metrics and returns every sample keyed by
// its full name (including any label set), validating the exposition
// format line by line.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	out := make(map[string]float64)
	typed := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		family = strings.TrimSuffix(family, "_bucket")
		family = strings.TrimSuffix(family, "_sum")
		family = strings.TrimSuffix(family, "_count")
		if !typed[family] {
			t.Fatalf("sample %q precedes its TYPE declaration", line)
		}
		out[name] = v
	}
	return out
}

// latestTrace fetches /queries and returns the newest recorded
// statement trace.
func latestTrace(t *testing.T, baseURL string) obs.TraceSnapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/queries")
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	defer resp.Body.Close()
	var snaps []obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		t.Fatalf("queries decode: %v", err)
	}
	if len(snaps) == 0 {
		t.Fatal("queries: empty log")
	}
	return snaps[0]
}

// TestMetricsUnderConcurrentLoad scrapes /metrics while clients hammer
// the server, checking the exposition stays valid, the statement and
// task counters only ever move up, and the final counts reconcile with
// the cluster's own counters.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	srv, addr := start(t, server.Config{}, 2000)
	web := httptest.NewServer(srv.ObsHandler())
	defer web.Close()

	const clients, perClient = 4, 6
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		prevStmt, prevTask := -1.0, -1.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := scrapeMetrics(t, web.URL)
			stmt := m["shark_server_statements_finished_total"]
			task := m["shark_scheduler_tasks_launched_total"]
			if stmt < prevStmt || task < prevTask {
				t.Errorf("counter went backwards: statements %v->%v tasks %v->%v",
					prevStmt, stmt, prevTask, task)
				return
			}
			prevStmt, prevTask = stmt, task
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := attach(t, addr)
			defer c.Close()
			for j := 0; j < perClient; j++ {
				id, _, err := c.RoundtripID(context.Background(),
					wire.ExecPrepared{SQL: `SELECT status, COUNT(*) FROM logs_mem GROUP BY status`})
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				if _, err := fetchAll(c, id); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()

	m := scrapeMetrics(t, web.URL)
	if got := m["shark_server_statements_finished_total"]; got != clients*perClient {
		t.Errorf("statements_finished = %v, want %d", got, clients*perClient)
	}
	if got := m["shark_server_statements_started_total"]; got != clients*perClient {
		t.Errorf("statements_started = %v, want %d", got, clients*perClient)
	}
	if got := m["shark_server_statement_errors_total"]; got != 0 {
		t.Errorf("statement_errors = %v, want 0", got)
	}
	// The histogram saw every statement.
	if got := m["shark_server_statement_seconds_count"]; got != clients*perClient {
		t.Errorf("statement_seconds_count = %v, want %d", got, clients*perClient)
	}
	// Scrape-side counters reconcile with the cluster's own state.
	if got, want := m["shark_scheduler_tasks_launched_total"],
		float64(srv.Cluster().SchedulerMetrics().TasksLaunched.Load()); got != want {
		t.Errorf("tasks_launched = %v, cluster says %v", got, want)
	}
	if got := m["shark_task_seconds_count"]; got <= 0 {
		t.Errorf("task_seconds_count = %v, want > 0", got)
	}
	// The query log captured the workload.
	if tr := latestTrace(t, web.URL); tr.SQL == "" || tr.Tasks <= 0 {
		t.Errorf("latest trace incomplete: %+v", tr)
	}
}

// TestGracefulDrain checks the SIGTERM story: sessions leak nothing on
// disconnect, every statement a client saw complete is correct, and
// Shutdown settles the whole server within its deadline.
func TestGracefulDrain(t *testing.T) {
	srv, addr := start(t, server.Config{}, 5000)

	storeBytes := func() int64 {
		var n int64
		for i := 0; i < srv.Cluster().NumWorkers(); i++ {
			n += srv.Cluster().Worker(i).Store().ApproxBytes()
		}
		return n
	}
	baseline := storeBytes()

	// Sessions that cache private data release it on disconnect.
	for i := 0; i < 3; i++ {
		c := attach(t, addr)
		if _, err := c.Roundtrip(wire.ExecPrepared{SQL: fmt.Sprintf(
			`CREATE TABLE scratch%d TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs_mem`, i)}); err != nil {
			t.Fatal(err)
		}
		if storeBytes() <= baseline {
			t.Fatal("cached table not accounted in stores")
		}
		c.Close()
		deadline := time.Now().Add(10 * time.Second)
		for storeBytes() != baseline {
			if time.Now().After(deadline) {
				t.Fatalf("store bytes %d never returned to baseline %d after disconnect", storeBytes(), baseline)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Now a fleet of clients querying in a loop while the server
	// drains under them. Any statement whose rows fully arrived must
	// be correct; interrupted ones must fail cleanly, never hang.
	const clients = 8
	var wg sync.WaitGroup
	var completed, interrupted int64
	var mu sync.Mutex
	firstDone := make(chan struct{})
	var once sync.Once
	for i := 0; i < clients; i++ {
		// Attach before any client queries: a statement can complete —
		// and the drain below begin — before a goroutine that attaches
		// for itself has connected.
		c := attach(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			for {
				id, resp, err := c.RoundtripID(context.Background(), wire.ExecPrepared{SQL: `SELECT COUNT(*) FROM logs_mem`})
				if err != nil {
					mu.Lock()
					interrupted++
					mu.Unlock()
					return
				}
				if rs, ok := resp.(wire.ResultSet); !ok || rs.NumRows != 1 {
					t.Errorf("bad result set: %#v", resp)
					return
				}
				resp, err = c.Roundtrip(wire.Fetch{Cursor: id})
				if err != nil {
					mu.Lock()
					interrupted++
					mu.Unlock()
					return
				}
				rows := rowsOf(resp.(wire.Rows))
				if len(rows) != 1 || rows[0][0].(int64) != 5000 {
					t.Errorf("completed statement returned wrong rows: %#v", rows)
					return
				}
				mu.Lock()
				completed++
				mu.Unlock()
				once.Do(func() { close(firstDone) })
			}
		}()
	}

	<-firstDone // at least one full roundtrip before pulling the plug
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain missed its deadline: %v", err)
	}
	wg.Wait()
	if completed == 0 {
		t.Error("no statement completed before the drain")
	}
	t.Logf("drain: %d completed, %d interrupted", completed, interrupted)

	// The shared cluster is closed: no sessions can leak past here.
	if _, err := srv.Cluster().NewSession(shark.SessionConfig{}); !errors.Is(err, shark.ErrClosed) {
		t.Errorf("NewSession after drain = %v, want ErrClosed", err)
	}
}

// TestCursorBudgetEvictsIdleCursors: a client that executes but never
// fetches or closes cannot pin unbounded result memory — past
// MaxCursorsPerConn the oldest-idle cursor is reclaimed, and fetching
// it answers an immediate empty Done.
func TestCursorBudgetEvictsIdleCursors(t *testing.T) {
	_, addr := start(t, server.Config{MaxCursorsPerConn: 4}, 50)
	c := attach(t, addr)
	defer c.Close()

	ids := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		id, resp, err := c.RoundtripID(context.Background(), wire.ExecPrepared{SQL: `SELECT url, status FROM logs_mem`})
		if err != nil {
			t.Fatal(err)
		}
		if rs, ok := resp.(wire.ResultSet); !ok || rs.NumRows != 50 {
			t.Fatalf("exec %d: unexpected response %#v", i, resp)
		}
		ids = append(ids, id)
	}
	// The oldest four cursors were evicted by the budget.
	for _, id := range ids[:4] {
		n, err := fetchAll(c, id)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("evicted cursor %d still served %d rows", id, n)
		}
	}
	// The newest four survived and still serve their full results.
	for _, id := range ids[4:] {
		n, err := fetchAll(c, id)
		if err != nil {
			t.Fatal(err)
		}
		if n != 50 {
			t.Fatalf("cursor %d served %d rows, want 50", id, n)
		}
	}
}

// TestCursorIdleExpiry: a cursor nobody fetches from expires after
// CursorIdleTimeout and no longer serves rows.
func TestCursorIdleExpiry(t *testing.T) {
	_, addr := start(t, server.Config{CursorIdleTimeout: 50 * time.Millisecond}, 10)
	c := attach(t, addr)
	defer c.Close()
	id, _, err := c.RoundtripID(context.Background(), wire.ExecPrepared{SQL: `SELECT * FROM logs_mem`})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	n, err := fetchAll(c, id)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("idle-expired cursor still served %d rows", n)
	}
}

// TestPreparedWire drives the native prepared-statement protocol end
// to end: Prepare/ExecPrepared by handle, a one-shot ExecPrepared
// with a hostile []byte argument that must bind as data, and handle
// lifecycle via ClosePrepared.
func TestPreparedWire(t *testing.T) {
	_, addr := start(t, server.Config{}, 20)
	c := attach(t, addr)
	defer c.Close()

	resp, err := c.Roundtrip(wire.Prepare{SQL: `SELECT COUNT(*) FROM logs_mem WHERE status = ?`})
	if err != nil {
		t.Fatal(err)
	}
	pok, ok := resp.(wire.PrepareOK)
	if !ok || pok.Handle == 0 || pok.NumParams != 1 {
		t.Fatalf("unexpected PrepareOK %#v", resp)
	}

	count := func(id uint64) int64 {
		t.Helper()
		resp, err := c.Roundtrip(wire.Fetch{Cursor: id})
		if err != nil {
			t.Fatal(err)
		}
		rows := rowsOf(resp.(wire.Rows))
		if len(rows) != 1 {
			t.Fatalf("want one count row, got %#v", rows)
		}
		return rows[0][0].(int64)
	}

	id, resp, err := c.RoundtripID(context.Background(), wire.ExecPrepared{Handle: pok.Handle, Args: []any{int64(200)}})
	if err != nil {
		t.Fatal(err)
	}
	if rs, ok := resp.(wire.ResultSet); !ok || rs.NumRows != 1 {
		t.Fatalf("unexpected ExecPrepared response %#v", resp)
	}
	if got := count(id); got != 10 {
		t.Fatalf("status=200 count = %d, want 10", got)
	}

	// One-shot: inline SQL, no Prepare, and an argument full of SQL
	// syntax — quotes, a comment marker, a trailing backslash — that
	// must match zero rows because it binds as data, never as text.
	hostile := []byte(`' OR '1'='1' -- \`)
	id, resp, err = c.RoundtripID(context.Background(), wire.ExecPrepared{SQL: `SELECT COUNT(*) FROM logs_mem WHERE url = ?`, Args: []any{hostile}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(wire.ResultSet); !ok {
		t.Fatalf("unexpected one-shot response %#v", resp)
	}
	if got := count(id); got != 0 {
		t.Fatalf("hostile []byte arg matched %d rows, want 0", got)
	}

	// Closing the handle makes further executions a protocol error.
	if err := c.Send(wire.ClosePrepared{Handle: pok.Handle}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Roundtrip(wire.ExecPrepared{Handle: pok.Handle, Args: []any{int64(200)}})
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeProtocol {
		t.Fatalf("exec on closed handle = %v, want protocol error", err)
	}
}

// TestLimitParamWire: `LIMIT ?` over the raw wire, one-shot and by
// handle, returns the rows of the literal form; every argument the
// slot cannot take comes back as CodeBind and the session keeps
// serving. A statement with an unbound `?` is a bind error too, while
// text that does not parse stays a SQL error.
func TestLimitParamWire(t *testing.T) {
	_, addr := start(t, server.Config{}, 200)
	c := attach(t, addr)
	defer c.Close()

	const tmpl = `SELECT url, bytes FROM logs_mem WHERE bytes >= ? ORDER BY bytes DESC, url LIMIT ?`
	run := func(m wire.ExecPrepared) ([]shark.Row, error) {
		id, resp, err := c.RoundtripID(context.Background(), m)
		if err != nil {
			return nil, err
		}
		var rows []shark.Row
		for {
			resp, err = c.Roundtrip(wire.Fetch{Cursor: id})
			if err != nil {
				return nil, err
			}
			batch := resp.(wire.Rows)
			rows = append(rows, rowsOf(batch)...)
			if batch.Done {
				return rows, nil
			}
		}
	}
	want, err := run(wire.ExecPrepared{SQL: `SELECT url, bytes FROM logs_mem WHERE bytes >= 50 ORDER BY bytes DESC, url LIMIT 7`})
	if err != nil || len(want) != 7 {
		t.Fatalf("literal form: %d rows, err %v", len(want), err)
	}
	resp, err := c.Roundtrip(wire.Prepare{SQL: tmpl})
	if err != nil {
		t.Fatalf("Prepare(LIMIT ?): %v", err)
	}
	pok := resp.(wire.PrepareOK)
	if pok.NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2", pok.NumParams)
	}
	good := []any{int64(50), int64(7)}
	for name, m := range map[string]wire.ExecPrepared{
		"one-shot": {SQL: tmpl, Args: good},
		"handle":   {Handle: pok.Handle, Args: good},
	} {
		got, err := run(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s:\n got %v\nwant %v", name, got, want)
		}
	}

	wantCode := func(name string, m wire.Msg, code uint64) {
		t.Helper()
		var re *wire.RemoteError
		if _, err := c.Roundtrip(m); !errors.As(err, &re) || re.Code != code {
			t.Errorf("%s: err = %v, want code %d", name, err, code)
		}
	}
	for name, args := range map[string][]any{
		"negative": {int64(50), int64(-1)},
		"float64":  {int64(50), 7.0},
		"string":   {int64(50), "1; DROP TABLE logs_mem"},
		"bytes":    {int64(50), []byte("7")},
		"nil":      {int64(50), nil},
		"missing":  {int64(50)},
		"surplus":  {int64(50), int64(7), int64(7)},
	} {
		wantCode(name+" one-shot", wire.ExecPrepared{SQL: tmpl, Args: args}, wire.CodeBind)
		wantCode(name+" handle", wire.ExecPrepared{Handle: pok.Handle, Args: args}, wire.CodeBind)
	}
	wantCode("unbound", wire.ExecPrepared{SQL: tmpl}, wire.CodeBind)
	wantCode("parse error", wire.ExecPrepared{SQL: `SELECT FROM LIMIT ?`, Args: []any{int64(1)}}, wire.CodeSQL)
	wantCode("prepare parse error", wire.Prepare{SQL: `SELECT url FROM logs_mem LIMIT 'x'`}, wire.CodeSQL)

	if got, err := run(wire.ExecPrepared{Handle: pok.Handle, Args: good}); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("session unusable after rejected binds: %v, err %v", got, err)
	}
}

// TestRetiredExecAndStaleVersion: a client of any other protocol
// version — 1, 2 (row-major Rows frames) or one not written yet — is
// refused at Hello with CodeAuth and a message naming its version,
// nothing is negotiated; the retired Exec type byte (5) in a well-formed
// frame mid-session is answered with CodeProtocol on its request id,
// and the connection, its session and its prepared handle stay usable.
func TestRetiredExecAndStaleVersion(t *testing.T) {
	_, addr := start(t, server.Config{}, 20)

	for _, v := range []uint64{1, 2, wire.Version + 1} {
		old, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var re *wire.RemoteError
		_, err = old.Roundtrip(wire.Hello{Version: v})
		if !errors.As(err, &re) || re.Code != wire.CodeAuth || !strings.Contains(re.Msg, fmt.Sprintf("version %d", v)) {
			t.Fatalf("Hello{Version: %d} = %v, want CodeAuth naming the version", v, err)
		}
		old.Close()
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	rd := wire.NewReader(nc)
	call := func(id uint64, payload []byte) wire.Msg {
		t.Helper()
		if _, err := nc.Write(wire.AppendFrame(nil, payload)); err != nil {
			t.Fatal(err)
		}
		gotID, m, err := rd.ReadMessage()
		if err != nil {
			t.Fatalf("request %d: %v", id, err)
		}
		if gotID != id {
			t.Fatalf("response id = %d, want %d", gotID, id)
		}
		return m
	}
	msg := func(id uint64, m wire.Msg) wire.Msg { return call(id, wire.AppendMessage(nil, id, m)) }

	msg(1, wire.Hello{Version: wire.Version})
	msg(2, wire.Attach{SharedCatalog: true})
	pok, ok := msg(3, wire.Prepare{SQL: `SELECT url FROM logs_mem LIMIT ?`}).(wire.PrepareOK)
	if !ok {
		t.Fatal("Prepare failed")
	}
	// Exec as protocol version 1 framed it: type 5, id, SQL, one row of args.
	exec := append([]byte{5, 4, 8}, "SELECT 1"...)
	exec = append(exec, 0)
	if e, ok := call(4, exec).(wire.Error); !ok || e.Code != wire.CodeProtocol {
		t.Fatalf("retired Exec answered %#v, want CodeProtocol", e)
	}
	if rs, ok := msg(5, wire.ExecPrepared{Handle: pok.Handle, Args: []any{int64(3)}}).(wire.ResultSet); !ok || rs.NumRows != 3 {
		t.Fatalf("handle after retired Exec: %#v", rs)
	}
}

// TestFetchMaxRowsBounds: Fetch.MaxRows is a client-chosen uint64. A
// value above the int range used to turn negative on conversion and
// panic the connection (makeslice: cap out of range) with its mutex
// held; every value must instead clamp to the server's batch size,
// rows must come back, the cursor must finish, and the same connection
// must still answer a Ping.
func TestFetchMaxRowsBounds(t *testing.T) {
	_, addr := start(t, server.Config{BatchRows: 100}, 250)
	c := attach(t, addr)
	defer c.Close()
	for _, maxRows := range []uint64{1 << 63, math.MaxUint64, 1, 0} {
		id, resp, err := c.RoundtripID(context.Background(), wire.ExecPrepared{SQL: `SELECT url, bytes FROM logs_mem`})
		if err != nil {
			t.Fatal(err)
		}
		if rs, ok := resp.(wire.ResultSet); !ok || rs.NumRows != 250 {
			t.Fatalf("result set %#v", resp)
		}
		total, frames, done := 0, 0, false
		for !done {
			resp, err := c.Roundtrip(wire.Fetch{Cursor: id, MaxRows: maxRows})
			if err != nil {
				t.Fatalf("Fetch{MaxRows: %d}: %v", maxRows, err)
			}
			batch := resp.(wire.Rows)
			want := 100
			if maxRows == 1 {
				want = 1
			}
			if n := batch.Cols.Len(); n == 0 || n > want {
				t.Fatalf("Fetch{MaxRows: %d} returned %d rows, want 1..%d", maxRows, n, want)
			}
			total += batch.Cols.Len()
			frames++
			done = batch.Done
		}
		if total != 250 {
			t.Errorf("Fetch{MaxRows: %d} drained %d rows in %d frames, want 250", maxRows, total, frames)
		}
		if _, err := c.Roundtrip(wire.Ping{}); err != nil {
			t.Fatalf("connection dead after Fetch{MaxRows: %d}: %v", maxRows, err)
		}
	}
}

// countingListener wraps accepted connections to count their Writes.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{nc, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerMessage: in both directions a message is one Write on
// the socket — header and payload in one buffer — from the handshake
// through a multi-frame fetch.
func TestOneWritePerMessage(t *testing.T) {
	srv, err := server.New(server.Config{Cluster: shark.ClusterConfig{Workers: 2}, BatchRows: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	loader, err := srv.Cluster().NewSession(shark.SessionConfig{Name: "loader", SharedCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]shark.Row, 20)
	for i := range rows {
		rows[i] = shark.Row{int64(i), "r" + strconv.Itoa(i)}
	}
	if err := loader.LoadRows("t", shark.Schema{{Name: "a", Type: shark.TInt}, {Name: "s", Type: shark.TString}}, rows); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var serverWrites, clientWrites atomic.Int64
	go srv.Serve(countingListener{ln, &serverWrites})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewClient(countingConn{nc, &clientWrites})
	defer c.Kill()
	requests := int64(0)
	call := func(m wire.Msg) wire.Msg {
		t.Helper()
		requests++
		resp, err := c.Roundtrip(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		return resp
	}
	call(wire.Hello{Version: wire.Version})
	call(wire.Attach{SharedCatalog: true})
	requests++
	id, _, err := c.RoundtripID(context.Background(), wire.ExecPrepared{SQL: `SELECT * FROM t`})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for done := false; !done; frames++ {
		done = call(wire.Fetch{Cursor: id}).(wire.Rows).Done
	}
	if frames != 3 {
		t.Errorf("20 rows at 7 a frame took %d frames, want 3", frames)
	}
	call(wire.Ping{})
	if got := clientWrites.Load(); got != requests {
		t.Errorf("client issued %d Writes for %d requests", got, requests)
	}
	// Every request above got exactly one response.
	if got := serverWrites.Load(); got != requests {
		t.Errorf("server issued %d Writes for %d responses", got, requests)
	}
}
