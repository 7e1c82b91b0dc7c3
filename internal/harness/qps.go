package harness

import (
	"context"
	"database/sql"
	"fmt"
	"net"
	"sync"
	"time"

	"shark"
	"shark/internal/row"
	"shark/internal/server"
)

// qpsConns is the client fleet size for the high-QPS ablation: enough
// concurrency to saturate the serving path without drowning the
// smoke-scale cluster in admission queueing.
const qpsConns = 32

// runQPS is the gating ablation for the high-QPS path: the same
// parameterized workload is driven through driver prepared statements
// twice — once with the plan cache disabled and no result cache
// (every execution pays lex/parse/analyze/execute), once with both
// caches on — and the cached configuration must beat the uncached one
// on QPS while returning byte-identical rows, including after an
// invalidating write from another session. A cached QPS at or below
// uncached fails the run.
func runQPS(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_qps: plan + result caches on the high-QPS serving path"

	srv, err := server.New(server.Config{Cluster: shark.ClusterConfig{
		Workers:           sc.Workers,
		SlotsPerWorker:    sc.Slots,
		WorkerMemoryBytes: sc.WorkerMemoryBytes,
		WorkerDiskBytes:   sc.WorkerDiskBytes,
	}})
	if err != nil {
		return err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(sctx)
	}()

	// Shared-catalog data, plus an embedded session producing the
	// reference rows every driver-fetched result is checked against.
	loader, err := srv.Cluster().NewSession(shark.SessionConfig{Name: "qps-loader", SharedCatalog: true})
	if err != nil {
		return err
	}
	schema := shark.Schema{
		{Name: "grp", Type: row.TString},
		{Name: "val", Type: row.TInt},
	}
	n := sc.Sessions
	mkRows := func(salt int64) []shark.Row {
		rows := make([]shark.Row, n)
		for i := range rows {
			rows[i] = shark.Row{fmt.Sprintf("g%02d", i%20), int64(i%1000) + salt}
		}
		return rows
	}
	if err := loader.LoadRows("events", schema, mkRows(0)); err != nil {
		return err
	}
	if _, err := loader.Exec(`CREATE TABLE events_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM events`); err != nil {
		return err
	}

	const query = `SELECT grp, COUNT(*), SUM(val) FROM events_mem WHERE val >= ? GROUP BY grp ORDER BY grp`
	params := []int64{0, 100, 250, 500}
	refs := make(map[int64]*shark.Result, len(params))
	for _, p := range params {
		if refs[p], err = loader.ExecArgsCtx(ctx, query, shark.Row{p}); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	rounds := sc.Reps * 8
	runPhase := func(dsn string) (qps, p50, p95 float64, db *sql.DB, err error) {
		db, err = sql.Open("shark", dsn)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		db.SetMaxOpenConns(qpsConns)
		db.SetMaxIdleConns(qpsConns)
		var (
			mu        sync.Mutex
			lats      []float64
			firstErr  error
			completed int
		)
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < qpsConns; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One pinned connection = one cluster session; a real
				// prepared handle reused across every round.
				conn, err := db.Conn(context.Background())
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("conn: %w", err)
					}
					mu.Unlock()
					return
				}
				defer conn.Close()
				stmt, err := conn.PrepareContext(context.Background(), query)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("prepare: %w", err)
					}
					mu.Unlock()
					return
				}
				defer stmt.Close()
				// One untimed pass over the parameter set warms both
				// phases the same way (scheduler, memstore, and — when
				// enabled — the caches), so the timed rounds compare
				// steady-state behavior, which is what a high-QPS
				// dashboard workload looks like.
				for _, p := range params {
					if _, err := fetchGroupsStmt(stmt, p); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("warmup: %w", err)
						}
						mu.Unlock()
						return
					}
				}
				for round := 0; round < rounds; round++ {
					p := params[round%len(params)]
					t0 := time.Now()
					got, err := fetchGroupsStmt(stmt, p)
					lat := time.Since(t0).Seconds()
					if err == nil {
						err = sameAsEmbedded(got, refs[p])
					}
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					lats = append(lats, lat)
					completed++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		if firstErr != nil {
			db.Close()
			return 0, 0, 0, nil, firstErr
		}
		p50, p95 = quantiles(lats)
		return float64(completed) / elapsed, p50, p95, db, nil
	}

	// Phase A — uncached: plan cache off, no result cache. Every
	// execution re-parses, re-plans and runs the full job.
	coldQPS, coldP50, coldP95, coldDB, err := runPhase(addr + "?catalog=shared&session=qps-cold&plancache=off")
	if err != nil {
		return fmt.Errorf("qps uncached phase: %w", err)
	}
	coldDB.Close()
	r.AddValue(exp, "uncached QPS", coldQPS,
		fmt.Sprintf("plancache=off, no rescache; p50 %.1fms p95 %.1fms over %d conns x %d rounds",
			coldP50*1000, coldP95*1000, qpsConns, rounds))

	// Phase B — cached: plan cache on (shared across the fleet's
	// shared-catalog sessions) and a per-session result cache.
	hotDSN := addr + "?catalog=shared&session=qps-hot&rescache=4194304"
	hotQPS, hotP50, hotP95, hotDB, err := runPhase(hotDSN)
	if err != nil {
		return fmt.Errorf("qps cached phase: %w", err)
	}
	defer hotDB.Close()
	r.AddValue(exp, "cached QPS", hotQPS,
		fmt.Sprintf("plan + result caches; p50 %.1fms p95 %.1fms, results byte-identical to embedded",
			hotP50*1000, hotP95*1000))

	// An invalidating write from the embedded session: the fleet's
	// cached entries must not survive it. The recomputed result is
	// checked against a fresh embedded reference over the new data.
	if _, err := loader.Exec(`DROP TABLE events_mem`); err != nil {
		return err
	}
	if err := loader.LoadRows("events2", schema, mkRows(7)); err != nil {
		return err
	}
	if _, err := loader.Exec(`CREATE TABLE events_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM events2`); err != nil {
		return err
	}
	for _, p := range params {
		newRef, err := loader.ExecArgsCtx(ctx, query, shark.Row{p})
		if err != nil {
			return err
		}
		if sameAsEmbedded(rowsToTuples(refs[p]), newRef) == nil {
			return fmt.Errorf("qps: invalidating write produced an identical reference for val >= %d; the staleness check would be vacuous", p)
		}
		got, err := fetchGroupsDB(hotDB, query, p)
		if err != nil {
			return fmt.Errorf("qps post-invalidation query: %w", err)
		}
		if err := sameAsEmbedded(got, newRef); err != nil {
			return fmt.Errorf("qps: cached session served stale rows after an invalidating write: %w", err)
		}
	}
	r.Add(exp, "post-invalidation correctness", 0,
		"peer DDL invalidated every cached entry; recomputed rows byte-identical to embedded")

	// The gate: caching must pay for itself, strictly.
	if hotQPS <= coldQPS {
		return fmt.Errorf("qps: cached QPS %.1f not above uncached QPS %.1f", hotQPS, coldQPS)
	}
	r.AddValue(exp, "cached/uncached speedup", hotQPS/coldQPS, "gate: must be > 1.0")
	return nil
}

// fetchGroupsStmt runs the prepared group-by with one parameter and
// returns rows as printable tuples.
func fetchGroupsStmt(stmt *sql.Stmt, minVal int64) ([]string, error) {
	rows, err := stmt.Query(minVal)
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

// rowsToTuples renders an embedded result in the fleet's tuple shape
// so two references can be compared with sameAsEmbedded.
func rowsToTuples(res *shark.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprintf("%v|%v|%v", r[0], r[1], r[2])
	}
	return out
}
