package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"shark"
	"shark/internal/row"
)

// runConcurrency exercises the multi-tenant API: one long-scan session
// and K short-query sessions share one cluster, under FIFO and under
// fair sharing, reporting per-session short-query p50/p95 latency.
// This is the warehouse shape the redesign targets — an interactive
// dashboard must stay interactive while a batch scan's task wave
// floods the queues.
func runConcurrency(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_concurrency: K short-query sessions vs one long scan (shared cluster)"
	for _, pol := range []struct {
		label string
		p     shark.SchedulingPolicy
	}{
		{"FIFO queues", shark.FIFOScheduling},
		{"fair sharing (min-running-job-first)", shark.FairScheduling},
	} {
		res, err := concurrencyPoint(sc, pol.p)
		if err != nil {
			return fmt.Errorf("%s: %w", pol.label, err)
		}
		r.Add(exp, "short-query p95 / "+pol.label, res.p95,
			fmt.Sprintf("p50 %.1fms over %d queries from %d sessions; long scan completed %d passes",
				res.p50*1000, res.queries, res.sessions, res.longScans))
	}
	return nil
}

type concurrencyResult struct {
	p50, p95  float64
	queries   int
	sessions  int
	longScans int
}

var concurrencySchema = shark.Schema{
	{Name: "id", Type: row.TInt},
	{Name: "grp", Type: row.TString},
	{Name: "val", Type: row.TFloat},
}

func concurrencyRows(n int) []shark.Row {
	groups := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	rows := make([]shark.Row, n)
	for i := range rows {
		rows[i] = shark.Row{int64(i), groups[i%len(groups)], float64(i) * 0.5}
	}
	return rows
}

// concurrencyPoint runs the contention scenario under one scheduling
// policy and returns short-query latency percentiles.
func concurrencyPoint(sc Scale, policy shark.SchedulingPolicy) (concurrencyResult, error) {
	var out concurrencyResult
	cl, err := shark.NewCluster(shark.ClusterConfig{
		Workers:        sc.Workers,
		SlotsPerWorker: sc.Slots,
		Scheduling:     policy,
		// Heavier-than-default per-task cost stands in for real scan
		// work, so queue wait (the thing the policies differ on)
		// dominates the measurement instead of Go-level row costs.
		TaskLaunchOverhead: 500 * time.Microsecond,
	})
	if err != nil {
		return out, err
	}
	defer cl.Close()

	// The long session scans a big cached table split into many
	// partitions (12 × slots): every pass floods each worker queue
	// with a full task wave.
	long, err := cl.NewSession(shark.SessionConfig{Name: "long-scan"})
	if err != nil {
		return out, err
	}
	long.DefaultCacheParts = cl.TotalSlots() * 12
	if err := long.LoadRows("big", concurrencySchema, concurrencyRows(sc.UserVisits)); err != nil {
		return out, err
	}
	if _, err := long.Exec(`CREATE TABLE big_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM big`); err != nil {
		return out, err
	}
	const longSQL = `SELECT grp, SUM(val), COUNT(*) FROM big_mem GROUP BY grp`

	// K interactive sessions each cache a small 2-partition table.
	const k = 3
	shorts := make([]*shark.Session, k)
	for i := range shorts {
		s, err := cl.NewSession(shark.SessionConfig{Name: fmt.Sprintf("dash-%d", i)})
		if err != nil {
			return out, err
		}
		s.DefaultCacheParts = 2
		if err := s.LoadRows("lookup", concurrencySchema, concurrencyRows(sc.Rankings/8)); err != nil {
			return out, err
		}
		if _, err := s.Exec(`CREATE TABLE lookup_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM lookup`); err != nil {
			return out, err
		}
		shorts[i] = s
	}
	const shortSQL = `SELECT COUNT(*), SUM(val) FROM lookup_mem`

	// Warm both sides once so measurement sees steady state.
	if _, err := long.Exec(longSQL); err != nil {
		return out, err
	}
	for _, s := range shorts {
		if _, err := s.Exec(shortSQL); err != nil {
			return out, err
		}
	}

	// Long scan loops until the interactive sessions finish.
	done := make(chan struct{})
	longErr := make(chan error, 1)
	go func() {
		scans := 0
		for {
			select {
			case <-done:
				out.longScans = scans
				longErr <- nil
				return
			default:
			}
			if _, err := long.Exec(longSQL); err != nil {
				out.longScans = scans
				longErr <- err
				return
			}
			scans++
		}
	}()

	const perSession = 10
	var mu sync.Mutex
	var lats []float64
	var wg sync.WaitGroup
	shortErrs := make(chan error, k)
	for _, s := range shorts {
		wg.Add(1)
		go func(s *shark.Session) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				start := time.Now()
				if _, err := s.Exec(shortSQL); err != nil {
					shortErrs <- err
					return
				}
				lat := time.Since(start).Seconds()
				mu.Lock()
				lats = append(lats, lat)
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	close(done)
	if err := <-longErr; err != nil {
		return out, err
	}
	close(shortErrs)
	for err := range shortErrs {
		return out, err
	}

	out.queries = len(lats)
	out.sessions = k
	out.p50, out.p95 = quantiles(lats)
	return out, nil
}
