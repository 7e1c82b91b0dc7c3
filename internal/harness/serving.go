package harness

import (
	"context"
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

	"shark/internal/obs"
	"shark/internal/wire"
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

	fs, err := newFleetServer(sc, "serving")
	if err != nil {
		return err
	}
	defer fs.close()
	srv, addr := fs.srv, fs.addr
	refs, err := fs.references(ctx, []int64{0})
	if err != nil {
		return err
	}
	embedded := refs[0]

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

	// Phase A: the fleet, each round sending the statement text.
	rounds := sc.Reps * 3
	lats, elapsed, db, err := fleet(ctx, fleetSpec{
		dsn:   addr + "?catalog=shared&session=bench",
		conns: servingConns, rounds: rounds,
		query: fleetQuery, params: []int64{0}, refs: refs,
	})
	if err != nil {
		return fmt.Errorf("serving fleet: %w", err)
	}
	defer db.Close()
	p50, p95 := quantiles(lats)
	r.Add(exp, fmt.Sprintf("driver query p95 (%d conns)", servingConns), p95,
		fmt.Sprintf("p50 %.1fms over %d queries, all results identical to embedded execution", p50*1000, len(lats)))
	r.AddValue(exp, "serving QPS", float64(len(lats))/elapsed,
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
				got, err := scanGroups(db.QueryContext(ctx, fleetQuery, int64(0)))
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
	dwg.Wait()
	close(errs)
	for err := range errs {
		return fmt.Errorf("serving: completed statement wrong during drain: %w", err)
	}
	r.Add(exp, "graceful drain", time.Since(t0).Seconds(),
		fmt.Sprintf("SIGTERM-style drain under %d querying clients; completed statements all correct", servingConns/4))
	return nil
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
