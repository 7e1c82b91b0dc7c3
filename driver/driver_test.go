package driver_test

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"shark"
	"shark/internal/server"

	_ "shark/driver"
)

// startServer boots an in-process shark-server on 127.0.0.1:0 with a
// cached shared-catalog logs_mem table of n rows, and returns the
// server plus its address.
func startServer(t *testing.T, cfg server.Config, n int) (*server.Server, string) {
	t.Helper()
	if cfg.Cluster.Workers == 0 {
		cfg.Cluster.Workers = 4
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := srv.Cluster().NewSession(shark.SessionConfig{Name: "loader", SharedCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	schema := shark.Schema{
		{Name: "url", Type: shark.TString},
		{Name: "status", Type: shark.TInt},
		{Name: "bytes", Type: shark.TInt},
		{Name: "day", Type: shark.TDate},
	}
	rows := make([]shark.Row, n)
	for i := range rows {
		status := int64(200)
		if i%10 == 0 {
			status = 404
		}
		rows[i] = shark.Row{fmt.Sprintf("/p/%d", i%50), status, int64(i % 1000), int64(15000 + i%3)}
	}
	if err := loader.LoadRows("logs", schema, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func TestDriverQueryWithArgs(t *testing.T) {
	// BatchRows 3 forces Rows iteration across many Fetch roundtrips.
	_, addr := startServer(t, server.Config{BatchRows: 3}, 4000)
	db, err := sql.Open("shark", "shark://"+addr+"?catalog=shared&session=conf")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}

	rows, err := db.Query(
		`SELECT url, COUNT(*) AS n, SUM(bytes) AS b FROM logs_mem WHERE status = ? AND bytes >= ? GROUP BY url ORDER BY url`,
		200, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cols) != "[url n b]" {
		t.Fatalf("columns = %v", cols)
	}
	var got int
	var totalN int64
	for rows.Next() {
		var url string
		var n, b int64
		if err := rows.Scan(&url, &n, &b); err != nil {
			t.Fatal(err)
		}
		got++
		totalN += n
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	// 50 urls of 80 rows each; /p/{0,10,20,30,40} are entirely 404
	// (i%50 ≡ 0 mod 10 implies i%10 == 0), leaving 45 groups × 80.
	if got != 45 || totalN != 3600 {
		t.Fatalf("got %d groups / %d rows, want 45 / 3600", got, totalN)
	}
}

func TestDriverPreparedAndExec(t *testing.T) {
	_, addr := startServer(t, server.Config{}, 1000)
	db, err := sql.Open("shark", addr+"?catalog=shared")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stmt, err := db.Prepare(`SELECT COUNT(*) FROM logs_mem WHERE status = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for status, want := range map[int64]int64{200: 900, 404: 100} {
		var n int64
		if err := stmt.QueryRow(status).Scan(&n); err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("count(status=%d) = %d, want %d", status, n, want)
		}
	}

	// ExecContext reports the result-set size as RowsAffected and
	// frees its cursor without a fetch.
	res, err := db.Exec(`SELECT url FROM logs_mem WHERE bytes < ?`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 10 {
		t.Errorf("RowsAffected = %d, want 10", n)
	}

	// DATE columns scan as time.Time.
	var day time.Time
	if err := db.QueryRow(`SELECT MIN(day) FROM logs_mem`).Scan(&day); err != nil {
		t.Fatal(err)
	}
	if want := time.Unix(15000*86400, 0).UTC(); !day.Equal(want) {
		t.Errorf("day = %v, want %v", day, want)
	}

	// time.Time binds as a DATE value.
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM logs_mem WHERE day = ?`,
		time.Unix(15001*86400, 0).UTC()).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("binding time.Time matched no rows")
	}

	// SQL errors surface without poisoning the connection.
	if _, err := db.Exec(`SELECT nope FROM logs_mem`); err == nil {
		t.Error("bad column must error")
	}
	if err := db.Ping(); err != nil {
		t.Errorf("connection dead after SQL error: %v", err)
	}
}

func TestDriverAuthAndBadDSN(t *testing.T) {
	_, addr := startServer(t, server.Config{Token: "s3cret"}, 100)

	db, err := sql.Open("shark", addr+"?catalog=shared&token=wrong")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ping(); err == nil {
		t.Error("wrong token must fail the handshake")
	}
	db.Close()

	db, err = sql.Open("shark", addr+"?catalog=shared&token=s3cret")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ping(); err != nil {
		t.Errorf("correct token rejected: %v", err)
	}
	db.Close()

	for _, dsn := range []string{"", "h:1?storage=bogus", "h:1?weird=1", "h:1?priority=x"} {
		if _, err := sql.Open("shark", dsn); err == nil {
			// sql.Open defers Driver.Open errors to first use, but our
			// OpenConnector parses eagerly.
			t.Errorf("DSN %q must be rejected eagerly", dsn)
		}
	}
}

func TestDriverCtxCancelMidFetch(t *testing.T) {
	_, addr := startServer(t, server.Config{BatchRows: 2}, 2000)
	db, err := sql.Open("shark", addr+"?catalog=shared")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, `SELECT url, bytes FROM logs_mem`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	// database/sql closes the Rows asynchronously on ctx cancel; the
	// iteration must terminate with the context error, not hang.
	deadline := time.Now().Add(5 * time.Second)
	for rows.Next() {
		if time.Now().After(deadline) {
			t.Fatal("iteration did not stop after cancel")
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("rows.Err() = %v, want context.Canceled", err)
	}

	// The pooled connection is still usable for the next statement.
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM logs_mem`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Errorf("post-cancel count = %d", n)
	}
}

func TestDriverCtxCancelMidExec(t *testing.T) {
	_, addr := startServer(t, server.Config{}, 20000)
	db, err := sql.Open("shark", addr+"?catalog=shared")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	// Keep issuing statements while a timer cancels the context; at
	// least one lands mid-execution. Either way the loop must stop
	// with the context error and the connection must survive.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	var execErr error
	for i := 0; i < 10000; i++ {
		var n int64
		if execErr = db.QueryRowContext(ctx,
			`SELECT COUNT(*) FROM logs_mem WHERE bytes >= ? AND status = ?`, 0, 200).Scan(&n); execErr != nil {
			break
		}
	}
	if !errors.Is(execErr, context.Canceled) {
		t.Fatalf("exec loop ended with %v, want context.Canceled", execErr)
	}

	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM logs_mem`).Scan(&n); err != nil {
		t.Fatalf("connection unusable after cancel: %v", err)
	}
	if n != 20000 {
		t.Errorf("post-cancel count = %d", n)
	}
}

// TestDriverExplainAnalyze runs EXPLAIN ANALYZE through the
// database/sql driver: the measured plan arrives as ordinary rows of
// one "plan" column, annotated with wall times and row counts, and
// the statement actually executed (the trace lands in the server's
// query log with task attribution).
func TestDriverExplainAnalyze(t *testing.T) {
	srv, addr := startServer(t, server.Config{}, 4000)
	db, err := sql.Open("shark", addr+"?catalog=shared&session=ea")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rows, err := db.Query(`EXPLAIN ANALYZE SELECT url, COUNT(*) FROM logs_mem WHERE status = 200 GROUP BY url`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "plan" {
		t.Fatalf("columns = %v, want [plan]", cols)
	}
	var plan []string
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		plan = append(plan, line)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	text := strings.Join(plan, "\n")
	for _, want := range []string{"Aggregate", "Scan", "wall=", "rows=", "-- statement:", "-- attributed:"} {
		if !strings.Contains(text, want) {
			t.Errorf("driver EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}

	// The statement executed for real: its trace is in the query log
	// with cluster tasks attributed.
	snaps := srv.QueryLog().Snapshot()
	if len(snaps) == 0 {
		t.Fatal("query log empty after EXPLAIN ANALYZE")
	}
	tr := snaps[0]
	if !strings.Contains(tr.SQL, "EXPLAIN ANALYZE") {
		t.Errorf("latest trace SQL = %q", tr.SQL)
	}
	if tr.Tasks == 0 {
		t.Errorf("EXPLAIN ANALYZE trace attributed no tasks")
	}
}

// TestDriverBytesAndHostileArgs: a []byte argument full of SQL syntax
// binds as data and matches nothing — regression for the old driver,
// which coerced []byte to string and shipped it through the
// interpolator, where quote, backslash and comment bytes could be
// read as SQL text.
func TestDriverBytesAndHostileArgs(t *testing.T) {
	_, addr := startServer(t, server.Config{}, 100)
	db, err := sql.Open("shark", addr+"?catalog=shared")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for _, hostile := range []string{
		`' OR '1'='1' -- `,
		`quote ' backslash \ comment --`,
		"\x00binary\xff",
	} {
		var n int64
		if err := db.QueryRow(`SELECT COUNT(*) FROM logs_mem WHERE url = ?`, []byte(hostile)).Scan(&n); err != nil {
			t.Fatalf("hostile []byte %q: %v", hostile, err)
		}
		if n != 0 {
			t.Errorf("hostile []byte %q matched %d rows, want 0", hostile, n)
		}
	}
	// The same []byte path matches real data byte-for-byte.
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM logs_mem WHERE url = ?`, []byte("/p/1")).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("[]byte arg matched no rows, want > 0")
	}
	// The connection survived every hostile bind.
	if err := db.Ping(); err != nil {
		t.Errorf("connection dead after hostile args: %v", err)
	}
}

// TestDriverLimitParam: `LIMIT ?` binds natively through database/sql,
// one-shot and through Prepare, and returns the rows of the literal
// form; arguments the slot cannot take are bind errors that leave the
// pooled connection usable.
func TestDriverLimitParam(t *testing.T) {
	_, addr := startServer(t, server.Config{}, 100)
	db, err := sql.Open("shark", addr+"?catalog=shared")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	urls := func(rows *sql.Rows, err error) []string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []string
		for rows.Next() {
			var url string
			if err := rows.Scan(&url); err != nil {
				t.Fatal(err)
			}
			out = append(out, url)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if n := len(urls(db.Query(`SELECT url FROM logs_mem LIMIT ?`, 7))); n != 7 {
		t.Errorf("one-shot LIMIT ? returned %d rows, want 7", n)
	}
	stmt, err := db.Prepare(`SELECT url FROM logs_mem LIMIT ?`)
	if err != nil {
		t.Fatalf("Prepare(LIMIT ?): %v", err)
	}
	defer stmt.Close()
	if n := len(urls(stmt.Query(3))); n != 3 {
		t.Errorf("prepared LIMIT ? returned %d rows, want 3", n)
	}

	const tmpl = `SELECT url FROM logs_mem WHERE bytes >= ? ORDER BY url DESC LIMIT ?`
	want := fmt.Sprint(urls(db.Query(`SELECT url FROM logs_mem WHERE bytes >= 10 ORDER BY url DESC LIMIT 5`)))
	ordered, err := db.Prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer ordered.Close()
	if got := fmt.Sprint(urls(db.Query(tmpl, 10, 5))); got != want {
		t.Errorf("one-shot: got %s, want %s", got, want)
	}
	if got := fmt.Sprint(urls(ordered.Query(10, 5))); got != want {
		t.Errorf("prepared: got %s, want %s", got, want)
	}

	for name, args := range map[string][]any{
		"negative": {10, -1},
		"float64":  {10, 5.0},
		"string":   {10, "1; DROP TABLE logs_mem"},
		"nil":      {10, nil},
		"missing":  {10},
		"surplus":  {10, 5, 5},
	} {
		if rows, err := db.Query(tmpl, args...); err == nil {
			rows.Close()
			t.Errorf("%s one-shot: no error", name)
		} else if !strings.Contains(err.Error(), "cannot bind") {
			t.Errorf("%s one-shot: err = %v, want a bind error", name, err)
		}
		// database/sql itself refuses a wrong argument count on a
		// prepared statement; the rest reach the server's binder.
		if rows, err := ordered.Query(args...); err == nil {
			rows.Close()
			t.Errorf("%s prepared: no error", name)
		} else if len(args) == 2 && !strings.Contains(err.Error(), "cannot bind") {
			t.Errorf("%s prepared: err = %v, want a bind error", name, err)
		}
	}
	if _, err := db.Prepare(`SELECT url FROM logs_mem LIMIT 'x'`); err == nil {
		t.Error("Prepare of unparseable text must fail at Prepare")
	}
	if got := fmt.Sprint(urls(ordered.Query(10, 5))); got != want {
		t.Errorf("after rejected binds: got %s, want %s", got, want)
	}
}

// encSchema has one column per encoding the memstore chooses — raw /
// RLE / bit-packed / dictionary ints, raw / RLE floats, raw /
// dictionary strings, a bool bitmap, DATE and an all-NULL column — so
// a result built from it carries every value kind, with NULLs, into
// the wire's column-major frames. (The schema of core's differential
// test, re-declared: that one is internal to its package.)
var encSchema = shark.Schema{
	{Name: "id", Type: shark.TInt},
	{Name: "i_raw", Type: shark.TInt},
	{Name: "i_rle", Type: shark.TInt},
	{Name: "i_pack", Type: shark.TInt},
	{Name: "i_dict", Type: shark.TInt},
	{Name: "f_raw", Type: shark.TFloat},
	{Name: "f_rle", Type: shark.TFloat},
	{Name: "s_raw", Type: shark.TString},
	{Name: "s_dict", Type: shark.TString},
	{Name: "b", Type: shark.TBool},
	{Name: "d", Type: shark.TDate},
	{Name: "allnull", Type: shark.TInt},
}

func encRows(n int) []shark.Row {
	rng := rand.New(rand.NewSource(24))
	maybe := func(v any) any {
		if rng.Intn(5) == 0 {
			return nil
		}
		return v
	}
	dictInts := []int64{-3, 0, 7, 42, 1000000007}
	dictStrs := []string{"", "alpha", "beta", "Gamma", "delta%", "e_f"}
	out := make([]shark.Row, n)
	for i := range out {
		var rleI, rleF any // NULLs come in runs too, or the runs would not survive
		if run := i / 64; run%5 != 4 {
			rleI, rleF = int64(run-20), float64(run)/2
		}
		out[i] = shark.Row{
			int64(i),
			maybe(rng.Int63n(2e10) - 1e10),
			rleI,
			maybe(int64(rng.Intn(1000)) - 60),
			maybe(dictInts[rng.Intn(len(dictInts))]),
			maybe(rng.Float64() * 1000),
			rleF,
			maybe(fmt.Sprintf("u%04d-%s", rng.Intn(3000), dictStrs[rng.Intn(len(dictStrs))])),
			maybe(dictStrs[rng.Intn(len(dictStrs))]),
			maybe(rng.Intn(2) == 0),
			maybe(int64(10957 + rng.Intn(30))),
			nil,
		}
	}
	return out
}

// bag renders rows as a sorted multiset of exact cell renderings
// (floats by bits), DATEs as epoch days whichever side they came from.
func bag(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			switch x := v.(type) {
			case time.Time:
				v = x.Unix() / 86400
			case float64:
				v = fmt.Sprintf("f%x", math.Float64bits(x))
			}
			fmt.Fprintf(&b, "%T:%v|", v, v)
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// TestDriverMatchesEmbedded sets the wire against the engine: over a
// table of every column encoding, SELECT *, a filter, a projection, an
// aggregate and LIMIT ? read through database/sql are bag-equal to
// Session.Exec on the same cluster — every value kind, NULL, the empty
// string, DATE and BOOL — at row counts that leave the last frame with
// one row, exactly full, one over, and many frames deep.
func TestDriverMatchesEmbedded(t *testing.T) {
	srv, addr := startServer(t, server.Config{}, 1)
	loader, err := srv.Cluster().NewSession(shark.SessionConfig{Name: "enc", SharedCatalog: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open("shark", "shark://"+addr+"?catalog=shared")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for _, n := range []int{1, 512, 513, 5000} {
		base, mem := fmt.Sprintf("enc%d", n), fmt.Sprintf("enc%d_mem", n)
		if err := loader.LoadRows(base, encSchema, encRows(n)); err != nil {
			t.Fatal(err)
		}
		if _, err := loader.Exec(`CREATE TABLE ` + mem + ` TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM ` + base); err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			sql  string
			args []any
		}{
			{`SELECT * FROM ` + mem, nil},
			{`SELECT * FROM ` + mem + ` WHERE i_pack > 400 OR s_dict = 'alpha' OR b`, nil},
			{`SELECT d, s_raw, allnull, b, f_rle, id FROM ` + mem + ` WHERE id >= ?`, []any{int64(n / 3)}},
			{`SELECT s_dict, b, COUNT(*), SUM(i_raw), SUM(f_rle), MIN(d), MAX(s_raw), MAX(allnull) FROM ` + mem + ` GROUP BY s_dict, b`, nil},
			{`SELECT * FROM ` + mem + ` ORDER BY id LIMIT ?`, []any{int64(n/2 + 1)}},
		} {
			embedded, err := loader.ExecArgsCtx(context.Background(), q.sql, q.args)
			if err != nil {
				t.Fatalf("%d rows, embedded %s: %v", n, q.sql, err)
			}
			want := make([][]any, len(embedded.Rows))
			for i, r := range embedded.Rows {
				want[i] = r
			}

			rows, err := db.Query(q.sql, q.args...)
			if err != nil {
				t.Fatalf("%d rows, driver %s: %v", n, q.sql, err)
			}
			cols, _ := rows.Columns()
			var got [][]any
			for rows.Next() {
				vals := make([]any, len(cols))
				ptrs := make([]any, len(cols))
				for i := range vals {
					ptrs[i] = &vals[i]
				}
				if err := rows.Scan(ptrs...); err != nil {
					t.Fatal(err)
				}
				got = append(got, vals)
			}
			if err := rows.Err(); err != nil {
				t.Fatalf("%d rows, driver %s: %v", n, q.sql, err)
			}
			rows.Close()

			if len(want) == 0 {
				t.Fatalf("%d rows, %s: the embedded result is empty, so the comparison says nothing", n, q.sql)
			}
			wb, gb := bag(want), bag(got)
			if len(wb) != len(gb) {
				t.Fatalf("%d rows, %s: driver returned %d rows, embedded %d", n, q.sql, len(gb), len(wb))
			}
			for i := range wb {
				if wb[i] != gb[i] {
					t.Fatalf("%d rows, %s: results differ, first at sorted row %d:\n driver   %s\n embedded %s", n, q.sql, i, gb[i], wb[i])
				}
			}
		}
	}
}
