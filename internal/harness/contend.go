package harness

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"shark"
	"shark/internal/row"
)

// contendSpec is one multi-tenant contention scenario: a heavy session
// looping a long scan while light sessions issue short queries on the
// same cluster.
type contendSpec struct {
	policy shark.SchedulingPolicy
	heavy  shark.SessionConfig
	lights []shark.SessionConfig
	// Each light session caches lightRows rows as lookup_mem in
	// lightParts partitions and runs lightSQL over it.
	lightParts, lightRows int
	lightSQL              string
	// rounds timed queries per light session; with barrier, round i of
	// every session starts at the same instant, so each latency
	// contends against all the others instead of drifting out of phase.
	rounds  int
	barrier bool
}

var contendSchema = shark.Schema{
	{Name: "id", Type: row.TInt},
	{Name: "grp", Type: row.TString},
	{Name: "val", Type: row.TFloat},
}

func contendRows(n int) []shark.Row {
	groups := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	rows := make([]shark.Row, n)
	for i := range rows {
		rows[i] = shark.Row{int64(i), groups[i%len(groups)], float64(i) * 0.5}
	}
	return rows
}

// contend builds the scenario on a fresh shared cluster, warms every
// session, and returns each light session's latencies (seconds, in spec
// order) plus how many passes the heavy scan completed meanwhile.
func contend(sc Scale, spec contendSpec) (lats [][]float64, heavyPasses int, err error) {
	cl, err := shark.NewCluster(shark.ClusterConfig{
		Workers:        sc.Workers,
		SlotsPerWorker: sc.Slots,
		Scheduling:     spec.policy,
		// Heavier-than-default per-task cost stands in for real scan
		// work, so queue wait (the thing policies and weights
		// arbitrate) dominates the measurement instead of Go-level row
		// costs.
		TaskLaunchOverhead: 500 * time.Microsecond,
	})
	if err != nil {
		return nil, 0, err
	}
	defer cl.Close()

	// session attaches one tenant with its own cached table and returns
	// its query, already run once so measurement sees steady state.
	session := func(cfg shark.SessionConfig, table string, parts, rows int, sql string) (func() error, error) {
		s, err := cl.NewSession(cfg)
		if err != nil {
			return nil, err
		}
		s.DefaultCacheParts = parts
		if err := s.LoadRows(table, contendSchema, contendRows(rows)); err != nil {
			return nil, err
		}
		ctas := fmt.Sprintf(`CREATE TABLE %s_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM %[1]s`, table)
		if _, err := s.Exec(ctas); err != nil {
			return nil, err
		}
		query := func() error {
			_, err := s.Exec(sql)
			return err
		}
		return query, query()
	}

	// The heavy session scans a big cached table split into 12 × slots
	// partitions: every pass floods the cluster with a full task wave.
	heavy, err := session(spec.heavy, "big", cl.TotalSlots()*12, sc.UserVisits,
		`SELECT grp, SUM(val), COUNT(*) FROM big_mem GROUP BY grp`)
	if err != nil {
		return nil, 0, err
	}
	lights := make([]func() error, len(spec.lights))
	for i, cfg := range spec.lights {
		if lights[i], err = session(cfg, "lookup", spec.lightParts, spec.lightRows, spec.lightSQL); err != nil {
			return nil, 0, err
		}
	}
	return contendLoop(heavy, lights, spec.rounds, spec.barrier)
}

// contendLoop calls heavy back to back on its own goroutine while
// every light is called rounds times (timed) on its own, then stops
// heavy and waits for it. A failed light skips its remaining rounds
// and no further barrier round starts; the error is returned once the
// heavy loop has exited.
func contendLoop(heavy func() error, lights []func() error, rounds int, barrier bool) ([][]float64, int, error) {
	done := make(chan struct{})
	heavyDone := make(chan error, 1)
	passes := 0
	go func() {
		for {
			select {
			case <-done:
				heavyDone <- nil
				return
			default:
			}
			if err := heavy(); err != nil {
				heavyDone <- err
				return
			}
			passes++
		}
	}()

	// One wave of `rounds` calls each, or `rounds` waves of one call.
	waves, perWave := 1, rounds
	if barrier {
		waves, perWave = rounds, 1
	}
	lats := make([][]float64, len(lights))
	errs := make([]error, len(lights))
	var lightErr error
	for w := 0; w < waves && lightErr == nil; w++ {
		var wg sync.WaitGroup
		for i, light := range lights {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < perWave; n++ {
					secs, err := timeIt(light)
					if err != nil {
						errs[i] = err
						return
					}
					lats[i] = append(lats[i], secs)
				}
			}()
		}
		wg.Wait()
		lightErr = errors.Join(errs...)
	}
	close(done)
	if err := <-heavyDone; err != nil {
		return nil, passes, err
	}
	return lats, passes, lightErr
}
