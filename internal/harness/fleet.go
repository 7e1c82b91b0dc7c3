package harness

import (
	"context"
	"database/sql"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"shark"
	"shark/internal/row"
	"shark/internal/server"

	_ "shark/driver" // registers the "shark" database/sql driver
)

// fleetQuery is the parameterized dashboard group-by every serving
// experiment drives over the events table.
const fleetQuery = `SELECT grp, COUNT(*), SUM(val) FROM events_mem WHERE val >= ? GROUP BY grp ORDER BY grp`

// fleetServer is a shark-server on a loopback listener plus an embedded
// shared-catalog session on its cluster, which loads the data every
// client queries and produces the reference rows results are checked
// against.
type fleetServer struct {
	srv    *server.Server
	loader *shark.Session
	addr   string
	events int // rows per events table
}

// newFleetServer starts the server with events / events_mem loaded.
func newFleetServer(sc Scale, name string) (f *fleetServer, err error) {
	srv, err := server.New(server.Config{Cluster: shark.ClusterConfig{
		Workers:           sc.Workers,
		SlotsPerWorker:    sc.Slots,
		WorkerMemoryBytes: sc.WorkerMemoryBytes,
		WorkerDiskBytes:   sc.WorkerDiskBytes,
	}})
	if err != nil {
		return nil, err
	}
	f = &fleetServer{srv: srv, events: sc.Sessions}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	f.loader, err = srv.Cluster().NewSession(shark.SessionConfig{Name: name + "-loader", SharedCatalog: true})
	if err != nil {
		return nil, err
	}
	if err = f.loadEvents("events", 0); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	f.addr = ln.Addr().String()
	return f, nil
}

// close drains the server; harmless after an earlier Shutdown.
func (f *fleetServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f.srv.Shutdown(ctx)
}

// loadEvents writes the external table src — 20 groups, val = i%1000
// + salt — and caches it as events_mem.
func (f *fleetServer) loadEvents(src string, salt int64) error {
	schema := shark.Schema{
		{Name: "grp", Type: row.TString},
		{Name: "val", Type: row.TInt},
	}
	rows := make([]shark.Row, f.events)
	for i := range rows {
		rows[i] = shark.Row{fmt.Sprintf("g%02d", i%20), int64(i%1000) + salt}
	}
	if err := f.loader.LoadRows(src, schema, rows); err != nil {
		return err
	}
	_, err := f.loader.Exec(`CREATE TABLE events_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM ` + src)
	return err
}

// references runs fleetQuery embedded, once per parameter, and returns
// the rows as tuples.
func (f *fleetServer) references(ctx context.Context, params []int64) (map[int64][]string, error) {
	refs := make(map[int64][]string, len(params))
	for _, p := range params {
		res, err := f.loader.ExecArgsCtx(ctx, fleetQuery, shark.Row{p})
		if err != nil {
			return nil, err
		}
		refs[p] = rowsToTuples(res)
	}
	return refs, nil
}

// fleetSpec is one client fleet: conns pinned database/sql connections
// to dsn (one cluster session each), each timing rounds executions of
// query — round i bound to params[i%len(params)], checked against refs.
type fleetSpec struct {
	dsn    string
	conns  int
	rounds int
	query  string
	params []int64
	refs   map[int64][]string
	// prepared: each connection prepares query once, warms the handle
	// with one untimed pass over params, and reuses it every round;
	// otherwise every round sends the statement text.
	prepared bool
}

// fleet runs the fleet to completion and returns every timed latency
// (seconds), the wall-clock span of the run including connection
// set-up and warm-up, and the still-open pool. A connection stops at
// its first failed or mismatching statement; once all have stopped the
// first such error is returned and the pool closed.
func fleet(ctx context.Context, spec fleetSpec) (lats []float64, elapsed float64, db *sql.DB, err error) {
	db, err = sql.Open("shark", spec.dsn)
	if err != nil {
		return nil, 0, nil, err
	}
	db.SetMaxOpenConns(spec.conns)
	db.SetMaxIdleConns(spec.conns)
	perConn := make([][]float64, spec.conns)
	errs := make([]error, spec.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range perConn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perConn[i], errs[i] = fleetConn(ctx, db, spec)
		}()
	}
	wg.Wait()
	elapsed = time.Since(start).Seconds()
	for i, l := range perConn {
		if errs[i] != nil {
			db.Close()
			return nil, 0, nil, errs[i]
		}
		lats = append(lats, l...)
	}
	return lats, elapsed, db, nil
}

// fleetConn is one connection's share of a fleet.
func fleetConn(ctx context.Context, db *sql.DB, spec fleetSpec) ([]float64, error) {
	conn, err := db.Conn(ctx)
	if err != nil {
		return nil, fmt.Errorf("conn: %w", err)
	}
	defer conn.Close()
	run := func(p int64) ([]string, error) { return scanGroups(conn.QueryContext(ctx, spec.query, p)) }
	if spec.prepared {
		stmt, err := conn.PrepareContext(ctx, spec.query)
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		defer stmt.Close()
		run = func(p int64) ([]string, error) { return scanGroups(stmt.QueryContext(ctx, p)) }
		// Warm scheduler, memstore and any enabled cache the same way
		// in every configuration: the timed rounds compare steady states.
		for _, p := range spec.params {
			if _, err := run(p); err != nil {
				return nil, fmt.Errorf("warmup: %w", err)
			}
		}
	}
	lats := make([]float64, 0, spec.rounds)
	for round := 0; round < spec.rounds; round++ {
		p := spec.params[round%len(spec.params)]
		t0 := time.Now()
		got, err := run(p)
		lat := time.Since(t0).Seconds()
		if err == nil {
			err = sameAsEmbedded(got, spec.refs[p])
		}
		if err != nil {
			return nil, err
		}
		lats = append(lats, lat)
	}
	return lats, nil
}

// scanGroups drains a fleetQuery-shaped result — from a connection, a
// pool or a prepared handle alike — into printable tuples.
func scanGroups(rows *sql.Rows, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		var grp string
		var cnt, sum int64
		if err := rows.Scan(&grp, &cnt, &sum); err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%s|%d|%d", grp, cnt, sum))
	}
	return out, rows.Err()
}

// rowsToTuples renders an embedded result's rows as "a|b|c" strings,
// the shape scanGroups gives driver-fetched rows.
func rowsToTuples(res *shark.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprint(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// sameAsEmbedded checks driver-fetched tuples against the embedded
// session's for the same query.
func sameAsEmbedded(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("driver returned %d groups, embedded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("group %d: driver %q, embedded %q", i, got[i], want[i])
		}
	}
	return nil
}
