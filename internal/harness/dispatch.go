package harness

import (
	"context"
	"fmt"

	"shark/internal/exec"
	"shark/internal/shuffle"
)

// runDispatch exercises the locality- and load-aware dispatcher
// (§7.1): task balance across workers under many small tasks, cache
// locality on a warm re-scan, and lineage-backed recovery of cached
// partitions after a worker loss — reporting the scheduler and
// dispatcher metrics alongside the runtimes.
func runDispatch(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_dispatch: locality/load-aware task dispatch"
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory)
	if err != nil {
		return err
	}
	defer e.Close()
	sctx := e.Shark.Ctx
	cl := e.SharkCluster

	// (a) Balance: many fine-grained tasks over all workers.
	nTasks := sc.Workers * sc.Slots * 8
	var pairs []any
	for i := 0; i < sc.UserVisits/4; i++ {
		pairs = append(pairs, shuffle.Pair{K: int64(i % 97), V: int64(1)})
	}
	before := cl.TasksPerWorker()
	base := sctx.Parallelize(pairs, nTasks)
	balanceSecs, err := timeIt(func() error {
		_, err := base.CountCtx(ctx)
		return err
	})
	if err != nil {
		return err
	}
	after := cl.TasksPerWorker()
	var maxN, minN, total int64
	minN = 1 << 62
	for i := range after {
		n := after[i] - before[i]
		total += n
		if n > maxN {
			maxN = n
		}
		if n < minN {
			minN = n
		}
	}
	r.Add(exp, fmt.Sprintf("balance: %d tasks / %d workers", nTasks, sc.Workers), balanceSecs,
		fmt.Sprintf("max %d min %d per worker (max share %.0f%%)",
			maxN, minN, 100*float64(maxN)/float64(total)))

	// (b) Locality: a warm re-scan of a cached RDD should run where
	// the partitions live.
	cached := sctx.Parallelize(pairs, sc.Workers*2).Cache()
	if _, err := cached.CountCtx(ctx); err != nil { // materialize
		return err
	}
	hits0, miss0 := cl.Metrics().LocalityHits.Load(), cl.Metrics().LocalityMisses.Load()
	warmSecs, err := timeIt(func() error {
		_, err := cached.CountCtx(ctx)
		return err
	})
	if err != nil {
		return err
	}
	hits := cl.Metrics().LocalityHits.Load() - hits0
	miss := cl.Metrics().LocalityMisses.Load() - miss0
	note := "no preferred placements — locality n/a (cache locations missing?)"
	if hits+miss > 0 {
		note = fmt.Sprintf("locality %.0f%% (%d/%d preferred placements)",
			100*float64(hits)/float64(hits+miss), hits, hits+miss)
	}
	r.Add(exp, "warm scan of cached RDD", warmSecs, note)

	// (c) Recovery: kill a cache-holding worker; the next scan
	// rebuilds its partitions from lineage. With a single worker
	// there is nobody left to recover on — skip rather than hang.
	if sc.Workers < 2 {
		r.Add(exp, "scan after worker loss (skipped)", 0, "needs ≥2 workers")
		return nil
	}
	victim := sc.Workers - 1
	cl.Kill(victim)
	sctx.NotifyWorkerLost(victim)
	recScans := sctx.Scheduler().Metrics().CacheRecomputes.Load()
	steals0 := cl.Metrics().Steals.Load()
	recSecs, err := timeIt(func() error {
		_, err := cached.CountCtx(ctx)
		return err
	})
	if err != nil {
		return err
	}
	recomputed := sctx.Scheduler().Metrics().CacheRecomputes.Load() - recScans
	cl.Restart(victim)
	r.Add(exp, "scan after worker loss (lineage recovery)", recSecs,
		fmt.Sprintf("%d partitions recomputed, %d steals during recovery",
			recomputed, cl.Metrics().Steals.Load()-steals0))
	return nil
}
