package harness

import (
	"context"
	"fmt"
	"reflect"

	"shark/internal/memtable"
	"shark/internal/rdd"
	"shark/internal/shuffle"
)

// runStorage sweeps the storage hierarchy against the unbounded
// baseline — the ROADMAP "spill before recomputing" item, after the
// paper's RDD storage levels (§3.2). With worker memory pinned at 25%
// of the per-worker share it compares the PR-2 eviction-only path
// (cold partitions recomputed from lineage) against the disk spill
// tier (cold partitions read back, MEMORY_AND_DISK) and against
// DISK_ONLY, verifying identical query results at every point and
// that spilling strictly reduces lineage recomputation.
func runStorage(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_storage: disk spill tier vs eviction-only recompute"
	rows := memoryRows(sc.Sessions)
	parts := sc.Workers * 4

	// Unbounded probe: learn the footprint and the reference results.
	probe := newWorld(sc, 0, 0, shuffle.Memory, "")
	tbl, err := memtable.LoadCtx(ctx, "store_sweep", memorySchema, probe.ctx.Parallelize(rows, parts))
	if err != nil {
		probe.close("unbounded probe")
		return err
	}
	totalBytes := tbl.TotalBytes()
	wantRows := tbl.TotalRows()
	preds := []memtable.ColPredicate{{Col: 2, Lo: int64(0), Hi: int64(len(rows) / 2)}}
	wantPruned, err := tbl.Scan(tbl.Prune(preds), []int{0, 2}).CollectCtx(ctx)
	if err != nil {
		probe.close("unbounded probe")
		return err
	}
	probe.close("unbounded probe")
	share := totalBytes / int64(sc.Workers)
	mem := share / 4
	// Derived budgets: the spill point gets one per-worker share of
	// disk (enough for the overflow), DISK_ONLY two (the whole table
	// lives there). A user-set -disk N replaces both verbatim so the
	// sweep measures exactly the configured tier.
	diskSpill, diskOnly := share, share*2
	if sc.WorkerDiskBytes != 0 {
		diskSpill, diskOnly = sc.WorkerDiskBytes, sc.WorkerDiskBytes
	}

	type point struct {
		label string
		mem   int64
		disk  int64
		level rdd.StorageLevel
	}
	sweep := []point{
		{"unbounded, MEMORY_ONLY (baseline)", 0, 0, rdd.MemoryOnly},
		{"25% memory, no disk (eviction-only)", mem, 0, rdd.MemoryOnly},
		{"25% memory + disk, MEMORY_AND_DISK", mem, diskSpill, rdd.MemoryAndDisk},
		{"25% memory + disk, DISK_ONLY", mem, diskOnly, rdd.DiskOnly},
	}
	recomputes := make(map[string]int64, len(sweep))
	for _, pt := range sweep {
		w := newWorld(sc, pt.mem, pt.disk, shuffle.Memory, "")
		err := func() error {
			tbl, err := memtable.LoadWith(ctx, "store_sweep", memorySchema,
				w.ctx.Parallelize(rows, parts), memtable.LoadOptions{Level: pt.level})
			if err != nil {
				return err
			}
			reps := sc.Reps
			if reps < 1 {
				reps = 1
			}
			secs, err := timeIt(func() error {
				for i := 0; i < reps; i++ {
					n, err := tbl.Scan(nil, nil).CountCtx(ctx)
					if err != nil {
						return err
					}
					if n != wantRows {
						return fmt.Errorf("scan returned %d rows, want %d", n, wantRows)
					}
					got, err := tbl.Scan(tbl.Prune(preds), []int{0, 2}).CollectCtx(ctx)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(got, wantPruned) {
						return fmt.Errorf("pruned scan differs from the unbounded baseline (%d vs %d rows)",
							len(got), len(wantPruned))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			sm := w.ctx.Scheduler().Metrics()
			cm := w.cl.Metrics()
			ds := w.cl.DiskTierStats()
			recomputes[pt.label] = sm.CacheRecomputes.Load()
			r.Add(exp, pt.label, secs, fmt.Sprintf(
				"hits %d, disk hits %d, remote hits %d, recomputes %d, evictions %d, spilled %d (%d KB), disk evictions %d",
				sm.CacheHits.Load(), sm.DiskHits.Load(), sm.RemoteCacheHits.Load(),
				sm.CacheRecomputes.Load(), cm.CacheEvictions.Load(),
				ds.SpilledBlocks, ds.BytesSpilled/1024, ds.DiskEvictions))
			if pt.level == rdd.MemoryAndDisk && ds.DiskHits == 0 {
				return fmt.Errorf("MEMORY_AND_DISK at 25%% memory served no disk hits (spilled %d)", ds.SpilledBlocks)
			}
			return nil
		}()
		w.close(pt.label)
		if err != nil {
			return fmt.Errorf("%s: %w", pt.label, err)
		}
	}
	// The point of the tier: under identical pressure, reading spilled
	// partitions back must beat recomputing them from lineage.
	evictOnly := recomputes["25% memory, no disk (eviction-only)"]
	spill := recomputes["25% memory + disk, MEMORY_AND_DISK"]
	if evictOnly == 0 {
		return fmt.Errorf("eviction-only point recomputed nothing — capacity sweep is not creating pressure")
	}
	if spill >= evictOnly {
		return fmt.Errorf("spill tier did not reduce recomputes: %d with disk vs %d eviction-only", spill, evictOnly)
	}
	return nil
}
