package harness

import (
	"context"
	"database/sql"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"shark"
	"shark/internal/obs"
	"shark/internal/row"
	"shark/internal/server"
	"shark/internal/wire"

	_ "shark/driver" // registers the "shark" database/sql driver
)

// servingConns is the client fleet size: the serving layer must hold
// at least 100 concurrent driver connections (one cluster session
// each) at every scale.
const servingConns = 100

// runServing measures the network serving layer end to end: a
// shark-server on a loopback listener, a fleet of database/sql
// clients hammering it concurrently (QPS, p50/p95), every fetched
// result checked against embedded execution of the same query, then
// the two crash-safety stories — an abrupt client kill mid-query must
// cancel cluster-side work, and a graceful drain mid-run must settle
// cleanly without leaking session state.
func runServing(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_serving: concurrent driver clients vs shark-server"

	srv, err := server.New(server.Config{Cluster: shark.ClusterConfig{
		Workers:           sc.Workers,
		SlotsPerWorker:    sc.Slots,
		WorkerMemoryBytes: sc.WorkerMemoryBytes,
		WorkerDiskBytes:   sc.WorkerDiskBytes,
	}})
	if err != nil {
		return err
	}
	drained := false
	defer func() {
		if !drained {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			srv.Shutdown(ctx)
		}
	}()

	// Shared-catalog data every client queries, plus an embedded
	// reference session on the same cluster.
	loader, err := srv.Cluster().NewSession(shark.SessionConfig{Name: "serving-loader", SharedCatalog: true})
	if err != nil {
		return err
	}
	schema := shark.Schema{
		{Name: "grp", Type: row.TString},
		{Name: "val", Type: row.TInt},
	}
	n := sc.Sessions
	rows := make([]shark.Row, n)
	for i := range rows {
		rows[i] = shark.Row{fmt.Sprintf("g%02d", i%20), int64(i % 1000)}
	}
	if err := loader.LoadRows("events", schema, rows); err != nil {
		return err
	}
	if _, err := loader.Exec(`CREATE TABLE events_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM events`); err != nil {
		return err
	}
	const query = `SELECT grp, COUNT(*), SUM(val) FROM events_mem WHERE val >= ? GROUP BY grp ORDER BY grp`
	embedded, err := loader.Exec(`SELECT grp, COUNT(*), SUM(val) FROM events_mem WHERE val >= 0 GROUP BY grp ORDER BY grp`)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	// The observability sidecar, exactly as shark-server -obs-addr
	// serves it: Phase B reads the statement counters and the query
	// log through it, and CI archives a scrape.
	obsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer obsLn.Close()
	go http.Serve(obsLn, srv.ObsHandler())
	obsURL := "http://" + obsLn.Addr().String()

	db, err := sql.Open("shark", addr+"?catalog=shared&session=bench")
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetMaxOpenConns(servingConns)
	db.SetMaxIdleConns(servingConns)

	// Phase A: the fleet. Each goroutine pins one pooled connection
	// (one cluster session) and runs timed rounds of the group-by.
	rounds := sc.Reps * 3
	var (
		mu        sync.Mutex
		lats      []float64
		mismatch  error
		completed int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < servingConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := db.Conn(context.Background())
			if err != nil {
				mu.Lock()
				mismatch = fmt.Errorf("conn: %w", err)
				mu.Unlock()
				return
			}
			defer conn.Close()
			for round := 0; round < rounds; round++ {
				t0 := time.Now()
				got, err := fetchGroups(conn, query, 0)
				lat := time.Since(t0).Seconds()
				if err == nil {
					err = sameAsEmbedded(got, embedded)
				}
				mu.Lock()
				if err != nil && mismatch == nil {
					mismatch = err
				}
				lats = append(lats, lat)
				completed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if mismatch != nil {
		return fmt.Errorf("serving fleet: %w", mismatch)
	}
	p50, p95 := quantiles(lats)
	qps := float64(completed) / elapsed
	r.Add(exp, fmt.Sprintf("driver query p95 (%d conns)", servingConns), p95,
		fmt.Sprintf("p50 %.1fms over %d queries, all results identical to embedded execution", p50*1000, completed))
	r.AddValue(exp, "serving QPS", qps,
		fmt.Sprintf("%d concurrent connections x %d rounds in %.2fs", servingConns, rounds, elapsed))

	// Phase B: abrupt client death mid-query cancels cluster-side
	// work (dropped queued tasks or mid-partition aborts). The kill
	// races the query — a fast statement can complete before the
	// disconnect lands — so each attempt watches for EITHER the
	// cancellation counters moving OR the statement finishing: a
	// finish with an error recorded in its trace means cancellation
	// landed between stages (counts), a clean finish means the query
	// outran the kill (retry with a fresh connection). No outcome is
	// inferred from sleeps; every wait is deadline-bound.
	cancelsSeen := func() int64 {
		return srv.Cluster().Metrics().CancelledTasks.Load() +
			srv.Cluster().SchedulerMetrics().CancelledMidPartition.Load()
	}
	const killSQL = `SELECT a.grp, COUNT(*) FROM events_mem a JOIN events_mem b ON a.grp = b.grp GROUP BY a.grp`
	killDeadline := time.Now().Add(time.Minute)
	var killCancels int64 = -1
	for attempt := 0; attempt < 5 && killCancels < 0; attempt++ {
		base := cancelsSeen()
		baseFinished, err := scrapeObsCounter(obsURL, "shark_server_statements_finished_total")
		if err != nil {
			return err
		}
		wc, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			return err
		}
		if _, err := wc.RoundtripCtx(ctx, wire.Hello{Version: wire.Version}); err != nil {
			return err
		}
		if _, err := wc.RoundtripCtx(ctx, wire.Attach{SharedCatalog: true}); err != nil {
			return err
		}
		launched := srv.Cluster().TasksLaunched()
		wc.Send(wire.ExecPrepared{SQL: killSQL})
		for srv.Cluster().TasksLaunched() == launched && time.Now().Before(killDeadline) {
			time.Sleep(time.Millisecond)
		}
		wc.Kill()
		for {
			if n := cancelsSeen() - base; n > 0 {
				killCancels = n
				break
			}
			finished, err := scrapeObsCounter(obsURL, "shark_server_statements_finished_total")
			if err != nil {
				return err
			}
			if finished > baseFinished {
				tr, err := latestObsTrace(obsURL)
				if err != nil {
					return err
				}
				if tr.SQL == killSQL && tr.Error != "" {
					killCancels = cancelsSeen() - base // may be 0: cancelled between stages
				}
				break // clean completion: retry
			}
			if time.Now().After(killDeadline) {
				return fmt.Errorf("serving: no cancellation observed after killing a client mid-query")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if killCancels < 0 {
		return fmt.Errorf("serving: statement completed cleanly on every kill attempt; cancellation never observed")
	}
	r.AddValue(exp, "kill-conn cancellations", float64(killCancels),
		"cluster-side tasks cancelled after an abrupt client disconnect mid-join (0 = aborted between stages)")

	// CI artifacts: a live /metrics scrape and the /queries trace log
	// (which now ends with the killed statement's errored trace).
	if dir := os.Getenv("SHARK_OBS_ARTIFACT_DIR"); dir != "" {
		for _, a := range []struct{ path, name string }{
			{"/metrics", "metrics.prom"},
			{"/queries", "queries.json"},
		} {
			body, err := scrapeObs(obsURL + a.path)
			if err != nil {
				return err
			}
			if err := writeArtifact(dir, a.name, body); err != nil {
				return err
			}
		}
	}

	// Phase C: graceful drain under load. Statements the clients saw
	// complete stay correct; the server settles within the deadline.
	errs := make(chan error, servingConns/4)
	var dwg sync.WaitGroup
	for i := 0; i < servingConns/4; i++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			for {
				got, err := fetchGroupsDB(db, query, 0)
				if err != nil {
					return // drain interrupted this statement: fine
				}
				if err := sameAsEmbedded(got, embedded); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the loops get airborne
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("serving: drain missed its deadline: %w", err)
	}
	drained = true
	dwg.Wait()
	close(errs)
	for err := range errs {
		return fmt.Errorf("serving: completed statement wrong during drain: %w", err)
	}
	r.Add(exp, "graceful drain", time.Since(t0).Seconds(),
		fmt.Sprintf("SIGTERM-style drain under %d querying clients; completed statements all correct", servingConns/4))
	return nil
}

// fetchGroups runs the parameterized group-by on one pinned
// connection and returns rows as printable tuples.
func fetchGroups(conn *sql.Conn, query string, minVal int64) ([]string, error) {
	rows, err := conn.QueryContext(context.Background(), query, minVal)
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

func fetchGroupsDB(db *sql.DB, query string, minVal int64) ([]string, error) {
	rows, err := db.Query(query, minVal)
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

// scrapeObs fetches one observability endpoint's body.
func scrapeObs(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

// scrapeObsCounter reads one counter's current value off /metrics.
func scrapeObsCounter(baseURL, name string) (float64, error) {
	body, err := scrapeObs(baseURL + "/metrics")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not found in /metrics scrape", name)
}

// latestObsTrace returns the newest trace in the /queries log.
func latestObsTrace(baseURL string) (obs.TraceSnapshot, error) {
	body, err := scrapeObs(baseURL + "/queries")
	if err != nil {
		return obs.TraceSnapshot{}, err
	}
	var snaps []obs.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		return obs.TraceSnapshot{}, err
	}
	if len(snaps) == 0 {
		return obs.TraceSnapshot{}, fmt.Errorf("/queries returned no traces")
	}
	return snaps[0], nil
}

// sameAsEmbedded checks a driver-fetched result against the embedded
// session's rows for the same query.
func sameAsEmbedded(got []string, ref *shark.Result) error {
	if len(got) != len(ref.Rows) {
		return fmt.Errorf("driver returned %d groups, embedded %d", len(got), len(ref.Rows))
	}
	for i, r := range ref.Rows {
		want := fmt.Sprintf("%v|%v|%v", r[0], r[1], r[2])
		if got[i] != want {
			return fmt.Errorf("group %d: driver %q, embedded %q", i, got[i], want)
		}
	}
	return nil
}
