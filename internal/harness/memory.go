package harness

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"shark/internal/memtable"
	"shark/internal/rdd"
)

// runMemory sweeps per-worker block-store capacity across a cached
// table's footprint (unbounded, then 100% / 50% / 25% of the
// per-worker share) and reports scan time plus hit / eviction /
// remote-read / recompute rates at each point — the ROADMAP "memory
// pressure" item, after §3.2's bounded memstore.
func runMemory(ctx context.Context, sc Scale, r *Report) error {
	return sweep(ctx, sc, r, sweepSpec{
		exp:   "abl_memory: bounded memstore (LRU eviction + remote cache reads)",
		table: "mem_sweep",
		points: func(share int64) []sweepPoint {
			if sc.WorkerMemoryBytes > 0 {
				// A user-set bound (shark-bench -memory N) replaces the
				// derived sweep points; the unbounded baseline stays
				// for the comparison.
				return []sweepPoint{
					{label: "unbounded"},
					{label: fmt.Sprintf("%d bytes/worker (user-set)", sc.WorkerMemoryBytes), mem: sc.WorkerMemoryBytes},
				}
			}
			return []sweepPoint{
				{label: "unbounded"},
				{label: "100% of per-worker share", mem: share},
				{label: "50% of per-worker share", mem: share / 2},
				{label: "25% of per-worker share", mem: share / 4},
			}
		},
		// A pruned scan racing a full scan, like a warm dashboard: busy
		// holders push tasks off-holder, which is what turns local
		// misses into remote cache reads.
		pass: func(ctx context.Context, tbl *memtable.Table, probe *sweepProbe) (int64, error) {
			prunedErr := make(chan error, 1)
			go func() {
				n, err := tbl.Scan(tbl.Prune(probe.preds), []int{0, 2}).CountCtx(ctx)
				if err == nil && n != int64(len(probe.pruned)) {
					err = fmt.Errorf("pruned scan returned %d rows, want %d", n, len(probe.pruned))
				}
				prunedErr <- err
			}()
			n, err := tbl.Scan(nil, nil).CountCtx(ctx)
			if perr := <-prunedErr; err == nil {
				err = perr
			}
			return n, err
		},
		finish: func(ctx context.Context, w *world, tbl *memtable.Table, pt sweepPoint) (string, error) {
			// Straggler phase: slow one worker so work stealing pushes
			// its tasks off-holder — stolen tasks then fetch the
			// partitions the straggler still caches instead of
			// recomputing them (the remote-cache-read path).
			w.cl.SetStragglerDelay(0, 5*time.Millisecond)
			if _, err := tbl.Scan(nil, nil).CountCtx(ctx); err != nil {
				return "", err
			}
			w.cl.SetStragglerFactor(0, 1)
			var maxBytes int64
			for i := 0; i < w.cl.NumWorkers(); i++ {
				maxBytes = max(maxBytes, w.cl.Worker(i).Store().ApproxBytes())
			}
			if pt.mem > 0 && maxBytes > pt.mem {
				return "", fmt.Errorf("worker store holds %d bytes over the %d cap", maxBytes, pt.mem)
			}
			sm := w.ctx.Scheduler().Metrics()
			cm := w.cl.Metrics()
			return fmt.Sprintf(
				"hits %d, remote hits %d, recomputes %d, evictions %d (%d KB), peak worker %d KB",
				sm.CacheHits.Load(), sm.RemoteCacheHits.Load(), sm.CacheRecomputes.Load(),
				cm.CacheEvictions.Load(), cm.BytesEvicted.Load()/1024, maxBytes/1024), nil
		},
	})
}

// runStorage sweeps the storage hierarchy against the unbounded
// baseline — the ROADMAP "spill before recomputing" item, after the
// paper's RDD storage levels (§3.2). With worker memory pinned at 25%
// of the per-worker share it compares the PR-2 eviction-only path
// (cold partitions recomputed from lineage) against the disk spill
// tier (cold partitions read back, MEMORY_AND_DISK) and against
// DISK_ONLY, verifying identical query results at every point and
// that spilling strictly reduces lineage recomputation.
func runStorage(ctx context.Context, sc Scale, r *Report) error {
	const (
		evictOnlyLabel = "25% memory, no disk (eviction-only)"
		spillLabel     = "25% memory + disk, MEMORY_AND_DISK"
	)
	recomputes := map[string]int64{}
	err := sweep(ctx, sc, r, sweepSpec{
		exp:   "abl_storage: disk spill tier vs eviction-only recompute",
		table: "store_sweep",
		points: func(share int64) []sweepPoint {
			mem := share / 4
			// Derived budgets: the spill point gets one per-worker
			// share of disk (enough for the overflow), DISK_ONLY two
			// (the whole table lives there). A user-set -disk N
			// replaces both verbatim so the sweep measures exactly the
			// configured tier.
			diskSpill, diskOnly := share, share*2
			if sc.WorkerDiskBytes != 0 {
				diskSpill, diskOnly = sc.WorkerDiskBytes, sc.WorkerDiskBytes
			}
			return []sweepPoint{
				{label: "unbounded, MEMORY_ONLY (baseline)"},
				{label: evictOnlyLabel, mem: mem},
				{label: spillLabel, mem: mem, disk: diskSpill, level: rdd.MemoryAndDisk},
				{label: "25% memory + disk, DISK_ONLY", mem: mem, disk: diskOnly, level: rdd.DiskOnly},
			}
		},
		pass: func(ctx context.Context, tbl *memtable.Table, probe *sweepProbe) (int64, error) {
			n, err := tbl.Scan(nil, nil).CountCtx(ctx)
			if err != nil {
				return 0, err
			}
			got, err := tbl.Scan(tbl.Prune(probe.preds), []int{0, 2}).CollectCtx(ctx)
			if err != nil {
				return 0, err
			}
			if !reflect.DeepEqual(got, probe.pruned) {
				return 0, fmt.Errorf("pruned scan differs from the unbounded baseline (%d vs %d rows)",
					len(got), len(probe.pruned))
			}
			return n, nil
		},
		finish: func(ctx context.Context, w *world, tbl *memtable.Table, pt sweepPoint) (string, error) {
			sm := w.ctx.Scheduler().Metrics()
			cm := w.cl.Metrics()
			ds := w.cl.DiskTierStats()
			recomputes[pt.label] = sm.CacheRecomputes.Load()
			notes := fmt.Sprintf(
				"hits %d, disk hits %d, remote hits %d, recomputes %d, evictions %d, spilled %d (%d KB), disk evictions %d",
				sm.CacheHits.Load(), sm.DiskHits.Load(), sm.RemoteCacheHits.Load(),
				sm.CacheRecomputes.Load(), cm.CacheEvictions.Load(),
				ds.SpilledBlocks, ds.BytesSpilled/1024, ds.DiskEvictions)
			if pt.level == rdd.MemoryAndDisk && ds.DiskHits == 0 {
				return notes, fmt.Errorf("MEMORY_AND_DISK at 25%% memory served no disk hits (spilled %d)", ds.SpilledBlocks)
			}
			return notes, nil
		},
	})
	if err != nil {
		return err
	}
	// The point of the tier: under identical pressure, reading spilled
	// partitions back must beat recomputing them from lineage.
	evictOnly, spill := recomputes[evictOnlyLabel], recomputes[spillLabel]
	if evictOnly == 0 {
		return fmt.Errorf("eviction-only point recomputed nothing — capacity sweep is not creating pressure")
	}
	if spill >= evictOnly {
		return fmt.Errorf("spill tier did not reduce recomputes: %d with disk vs %d eviction-only", spill, evictOnly)
	}
	return nil
}
