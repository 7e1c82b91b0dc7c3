package harness

import (
	"context"
	"fmt"
	"time"

	"shark/internal/memtable"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// memorySchema is the synthetic table swept by abl_memory.
var memorySchema = row.Schema{
	{Name: "id", Type: row.TInt},
	{Name: "grp", Type: row.TString},
	{Name: "ts", Type: row.TInt},
	{Name: "val", Type: row.TFloat},
}

// memoryRows generates deterministic rows whose ts column is clustered
// by partition, so Prune has real work at every sweep point.
func memoryRows(n int) []any {
	groups := []string{"alpha", "beta", "gamma", "delta"}
	out := make([]any, n)
	for i := range out {
		out[i] = row.Row{int64(i), groups[(i/100)%len(groups)], int64(i), float64(i) * 0.25}
	}
	return out
}

// runMemory sweeps per-worker block-store capacity across a cached
// table's footprint (unbounded, then 100% / 50% / 25% of the
// per-worker share) and reports scan time plus hit / eviction /
// remote-read / recompute rates at each point — the ROADMAP "memory
// pressure" item, after §3.2's bounded memstore.
func runMemory(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_memory: bounded memstore (LRU eviction + remote cache reads)"
	rows := memoryRows(sc.Sessions)
	parts := sc.Workers * 4

	// Unbounded probe: learn the footprint and the reference results.
	probe := newWorld(sc, 0, 0, shuffle.Memory, "")
	tbl, err := memtable.LoadCtx(ctx, "mem_sweep", memorySchema, probe.ctx.Parallelize(rows, parts))
	if err != nil {
		probe.close("unbounded probe")
		return err
	}
	totalBytes := tbl.TotalBytes()
	wantRows := tbl.TotalRows()
	probe.close("unbounded probe")
	perWorkerShare := totalBytes / int64(sc.Workers)

	sweep := []struct {
		label string
		bytes int64
	}{
		{"unbounded", 0},
		{"100% of per-worker share", perWorkerShare},
		{"50% of per-worker share", perWorkerShare / 2},
		{"25% of per-worker share", perWorkerShare / 4},
	}
	if sc.WorkerMemoryBytes > 0 {
		// A user-set bound (shark-bench -memory N) replaces the
		// derived sweep points; the unbounded baseline stays for the
		// comparison.
		sweep = sweep[:1]
		sweep = append(sweep, struct {
			label string
			bytes int64
		}{fmt.Sprintf("%d bytes/worker (user-set)", sc.WorkerMemoryBytes), sc.WorkerMemoryBytes})
	}
	for _, pt := range sweep {
		if err := runMemoryPoint(ctx, sc, r, exp, pt.label, pt.bytes, rows, parts, wantRows); err != nil {
			return fmt.Errorf("%s: %w", pt.label, err)
		}
	}
	return nil
}

// runMemoryPoint loads and repeatedly scans the table under one
// capacity setting, verifying results and the capacity invariant.
func runMemoryPoint(ctx context.Context, sc Scale, r *Report, exp, label string, capBytes int64, rows []any, parts int, wantRows int64) error {
	w := newWorld(sc, capBytes, 0, shuffle.Memory, "")
	defer w.close(label)
	tbl, err := memtable.LoadCtx(ctx, "mem_sweep", memorySchema, w.ctx.Parallelize(rows, parts))
	if err != nil {
		return err
	}
	reps := sc.Reps
	if reps < 1 {
		reps = 1
	}
	secs, err := timeIt(func() error {
		for i := 0; i < reps; i++ {
			// A pruned scan racing a full scan, like a warm dashboard:
			// busy holders push tasks off-holder, which is what turns
			// local misses into remote cache reads.
			prunedErr := make(chan error, 1)
			go func() {
				pruned := tbl.Prune([]memtable.ColPredicate{{Col: 2, Lo: int64(0), Hi: int64(len(rows) / 2)}})
				_, err := tbl.Scan(pruned, []int{0, 2}).CountCtx(ctx)
				prunedErr <- err
			}()
			n, err := tbl.Scan(nil, nil).CountCtx(ctx)
			if perr := <-prunedErr; err == nil {
				err = perr
			}
			if err != nil {
				return err
			}
			if n != wantRows {
				return fmt.Errorf("scan returned %d rows, want %d", n, wantRows)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Straggler phase: slow one worker so work stealing pushes its
	// tasks off-holder — stolen tasks then fetch the partitions the
	// straggler still caches instead of recomputing them (the
	// remote-cache-read path).
	w.cl.SetStragglerDelay(0, 5*time.Millisecond)
	if _, err := tbl.Scan(nil, nil).CountCtx(ctx); err != nil {
		return err
	}
	w.cl.SetStragglerFactor(0, 1)
	var maxBytes int64
	for i := 0; i < w.cl.NumWorkers(); i++ {
		if b := w.cl.Worker(i).Store().ApproxBytes(); b > maxBytes {
			maxBytes = b
		}
	}
	if capBytes > 0 && maxBytes > capBytes {
		return fmt.Errorf("worker store holds %d bytes over the %d cap", maxBytes, capBytes)
	}
	sm := w.ctx.Scheduler().Metrics()
	cm := w.cl.Metrics()
	r.Add(exp, label, secs, fmt.Sprintf(
		"hits %d, remote hits %d, recomputes %d, evictions %d (%d KB), peak worker %d KB",
		sm.CacheHits.Load(), sm.RemoteCacheHits.Load(), sm.CacheRecomputes.Load(),
		cm.CacheEvictions.Load(), cm.BytesEvicted.Load()/1024, maxBytes/1024))
	return nil
}
