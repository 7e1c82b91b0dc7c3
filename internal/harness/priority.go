package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"shark"
)

// runPriority exercises weighted fair scheduling: one heavy weight-1
// session floods the shared cluster with long-scan task waves while
// three light sessions at priorities 1, 2 and 4 issue the same short
// query stream. Under weighted fair sharing a freed slot runs the job
// with the smallest running/weight ratio, so the priority-4 session
// should sustain ~4x the in-flight tasks of the priority-1 session and
// see strictly lower tail latency. The experiment fails if the
// weight-4 p95 is not strictly below the weight-1 p95 — the acceptance
// signal for per-tenant priorities.
func runPriority(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_priority: 1 heavy + 3 light sessions at weights 1:2:4 (shared cluster)"
	res, err := priorityPoint(sc)
	if err != nil {
		return err
	}
	for _, pr := range res {
		r.Add(exp, fmt.Sprintf("light session p95 / priority %d", pr.priority), pr.p95,
			fmt.Sprintf("p50 %.1fms over %d queries", pr.p50*1000, pr.queries))
	}
	// res is ordered by priority ascending: [1, 2, 4].
	if res[2].p95 >= res[0].p95 {
		return fmt.Errorf("abl_priority: weighted fairness inverted: priority-4 p95 %.1fms >= priority-1 p95 %.1fms",
			res[2].p95*1000, res[0].p95*1000)
	}
	return nil
}

type priorityResult struct {
	priority int
	p50, p95 float64
	queries  int
}

// priorityPoint runs the contention scenario and returns per-priority
// latency percentiles, ascending by priority.
func priorityPoint(sc Scale) ([]priorityResult, error) {
	cl, err := shark.NewCluster(shark.ClusterConfig{
		Workers:        sc.Workers,
		SlotsPerWorker: sc.Slots,
		// Queue wait is what the weights arbitrate; a heavier per-task
		// cost makes it dominate Go-level row costs (same reasoning as
		// abl_concurrency).
		TaskLaunchOverhead: 500 * time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// The heavy weight-1 session: a cached table split into 12 x slots
	// partitions floods every worker queue each pass.
	heavy, err := cl.NewSession(shark.SessionConfig{Name: "heavy", Priority: 1})
	if err != nil {
		return nil, err
	}
	heavy.DefaultCacheParts = cl.TotalSlots() * 12
	if err := heavy.LoadRows("big", concurrencySchema, concurrencyRows(sc.UserVisits)); err != nil {
		return nil, err
	}
	if _, err := heavy.Exec(`CREATE TABLE big_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM big`); err != nil {
		return nil, err
	}
	const heavySQL = `SELECT grp, SUM(val), COUNT(*) FROM big_mem GROUP BY grp`

	// Three light sessions at weights 1:2:4 over identical multi-task
	// tables. Each light query carries 3x-slots tasks — more than the
	// cluster can hold at once — so with the three query streams
	// overlapping, the weighted running/weight ratio (how many slots a
	// session sustains), not first-task FIFO order, decides each
	// query's drain rate.
	weights := []int{1, 2, 4}
	lights := make([]*shark.Session, len(weights))
	for i, w := range weights {
		s, err := cl.NewSession(shark.SessionConfig{Name: fmt.Sprintf("light-w%d", w), Priority: w})
		if err != nil {
			return nil, err
		}
		s.DefaultCacheParts = cl.TotalSlots() * 3
		if err := s.LoadRows("lookup", concurrencySchema, concurrencyRows(sc.Rankings/4)); err != nil {
			return nil, err
		}
		if _, err := s.Exec(`CREATE TABLE lookup_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM lookup`); err != nil {
			return nil, err
		}
		lights[i] = s
	}
	const lightSQL = `SELECT grp, COUNT(*), SUM(val) FROM lookup_mem GROUP BY grp`

	// Warm both sides so measurement sees steady state.
	if _, err := heavy.Exec(heavySQL); err != nil {
		return nil, err
	}
	for _, s := range lights {
		if _, err := s.Exec(lightSQL); err != nil {
			return nil, err
		}
	}

	// The heavy session loops until every light session finishes.
	done := make(chan struct{})
	heavyErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				heavyErr <- nil
				return
			default:
			}
			if _, err := heavy.Exec(heavySQL); err != nil {
				heavyErr <- err
				return
			}
		}
	}()

	// Rounds, not free-running streams: all three light sessions fire
	// each query simultaneously, so every measured latency contends
	// against the other two weights (the situation the weights
	// arbitrate) instead of drifting out of phase.
	const rounds = 24
	lats := make([][]float64, len(lights))
	// Buffered for every possible send (one per goroutine per round),
	// so persistently failing queries can never block a sender and
	// deadlock the round barrier.
	lightErrs := make(chan error, rounds*len(lights))
	for q := 0; q < rounds; q++ {
		var wg sync.WaitGroup
		for i, s := range lights {
			wg.Add(1)
			go func(i int, s *shark.Session) {
				defer wg.Done()
				start := time.Now()
				if _, err := s.Exec(lightSQL); err != nil {
					lightErrs <- err
					return
				}
				lats[i] = append(lats[i], time.Since(start).Seconds())
			}(i, s)
		}
		wg.Wait()
	}
	close(done)
	if err := <-heavyErr; err != nil {
		return nil, err
	}
	close(lightErrs)
	for err := range lightErrs {
		return nil, err
	}

	out := make([]priorityResult, len(weights))
	for i, w := range weights {
		p50, p95 := quantiles(lats[i])
		out[i] = priorityResult{priority: w, p50: p50, p95: p95, queries: len(lats[i])}
	}
	return out, nil
}
