package rdd

import (
	"fmt"
	"sync"
	"testing"

	"shark/internal/cluster"
	"shark/internal/shuffle"
)

// newBoundedCtx builds a context over a cluster whose workers have
// memBytes of block-store capacity each (0 = unbounded).
func newBoundedCtx(t *testing.T, workers int, memBytes int64) *Context {
	t.Helper()
	c := cluster.New(cluster.Config{Workers: workers, Slots: 2, WorkerMemoryBytes: memBytes})
	t.Cleanup(c.Close)
	svc := shuffle.NewService(c, shuffle.Memory, t.TempDir())
	return NewContext(c, svc, Options{})
}

// TestEvictionPrunesTrackerLocations: under memory pressure no
// location whose block was evicted may be advertised — every preferred
// location has to actually hold the block, and the eviction itself must
// be visible in the cluster metrics.
func TestEvictionPrunesTrackerLocations(t *testing.T) {
	// 16 partitions × ~2000B over 4 workers with 3000B each: at most
	// one partition fits per worker, so most cache puts evict.
	ctx := newBoundedCtx(t, 4, 3000)
	src := ctx.Parallelize(ints(4000), 16).Cache()
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	if ctx.Cluster.Metrics().CacheEvictions.Load() == 0 {
		t.Fatal("no evictions despite capacity below the cached footprint")
	}
	for p := 0; p < src.NumPartitions(); p++ {
		for _, w := range src.PreferredLocations(p) {
			if !ctx.Cluster.Worker(w).Store().Contains(cacheKey(src.ID, p)) {
				t.Errorf("partition %d: worker %d is listed but no longer holds the block", p, w)
			}
		}
	}
	n, err := src.Count() // cold partitions recompute from lineage
	if err != nil {
		t.Fatal(err)
	}
	if n != 4000 {
		t.Errorf("count under pressure = %d, want 4000", n)
	}
	if ctx.Scheduler().Metrics().CacheRecomputes.Load() == 0 {
		t.Error("evicted partitions recomputed without CacheRecomputes")
	}
}

// TestRemoteCacheRead: a task placed off-holder fetches the partition
// from the live worker that still caches it instead of recomputing,
// counts a RemoteCacheHit, and records its own replica.
func TestRemoteCacheRead(t *testing.T) {
	ctx := newBoundedCtx(t, 2, 0)
	src := ctx.Parallelize(ints(400), 4).Cache()
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	locs := src.PreferredLocations(0)
	if len(locs) != 1 {
		t.Fatalf("partition 0 locations = %v, want exactly one holder", locs)
	}
	holder := locs[0]
	other := 1 - holder
	m := ctx.Scheduler().Metrics()
	recomputes := m.CacheRecomputes.Load()

	tc := &TaskContext{Worker: ctx.Cluster.Worker(other), Ctx: ctx, Part: 0}
	data := Drain(src.Iterator(tc, 0))
	if len(data) != 100 {
		t.Fatalf("remote read returned %d elements, want 100", len(data))
	}
	if got := m.RemoteCacheHits.Load(); got != 1 {
		t.Errorf("RemoteCacheHits = %d, want 1", got)
	}
	if got := m.CacheRecomputes.Load(); got != recomputes {
		t.Errorf("remote read must not count as a recompute (got %d extra)", got-recomputes)
	}
	replicas := src.PreferredLocations(0)
	if len(replicas) != 2 {
		t.Errorf("after remote read, locations = %v, want both workers", replicas)
	}
}

// TestRemoteCacheReadPrunesStaleLocation: when the only holder no
// longer has the block (dropped without any eviction event), the
// reader falls back to lineage recomputation and nobody is pointed at
// the former holder again.
func TestRemoteCacheReadPrunesStaleLocation(t *testing.T) {
	ctx := newBoundedCtx(t, 2, 0)
	src := ctx.Parallelize(ints(200), 2).Cache()
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	locs := src.PreferredLocations(0)
	if len(locs) != 1 {
		t.Fatalf("locations = %v, want one holder", locs)
	}
	holder := locs[0]
	other := 1 - holder
	// Simulate an unannounced loss: drop the block with no eviction
	// event.
	ctx.Cluster.Worker(holder).Store().Delete(cacheKey(src.ID, 0))

	m := ctx.Scheduler().Metrics()
	remote := m.RemoteCacheHits.Load()
	tc := &TaskContext{Worker: ctx.Cluster.Worker(other), Ctx: ctx, Part: 0}
	data := Drain(src.Iterator(tc, 0))
	if len(data) != 100 {
		t.Fatalf("fallback recompute returned %d elements, want 100", len(data))
	}
	if got := m.RemoteCacheHits.Load(); got != remote {
		t.Error("stale location counted as a remote hit")
	}
	if m.CacheRecomputes.Load() == 0 {
		t.Error("fallback recompute not counted")
	}
	for _, w := range src.PreferredLocations(0) {
		if w == holder {
			t.Error("stale holder still advertised after failed remote read")
		}
	}
}

// TestConcurrentJobsUnderMemoryPressure: several jobs over one cached
// RDD whose footprint is ~2× the aggregate capacity — caching,
// eviction, remote reads and recomputation all race, and every job
// must still see the full dataset. Run under -race this is the
// concurrent-jobs eviction test.
func TestConcurrentJobsUnderMemoryPressure(t *testing.T) {
	ctx := newBoundedCtx(t, 4, 4096) // aggregate 16KB vs ~32KB cached
	src := ctx.Parallelize(ints(4000), 16).Cache()
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 18)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				n, err := src.Count()
				if err != nil {
					errs <- err
					return
				}
				if n != 4000 {
					errs <- fmt.Errorf("count = %d, want 4000", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	capBytes := ctx.Cluster.WorkerMemoryBytes()
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		if b := ctx.Cluster.Worker(i).Store().ApproxBytes(); b > capBytes {
			t.Errorf("worker %d holds %d bytes over the %d cap", i, b, capBytes)
		}
	}
}

// TestShuffleOutputsPinnedUnderPressure: shuffle map outputs are
// pinned — cache churn beside them must not evict them, so a shuffle
// job over a cached RDD stays correct even when the capacity is far
// below the shuffle's footprint.
func TestShuffleOutputsPinnedUnderPressure(t *testing.T) {
	ctx := newBoundedCtx(t, 2, 2048)
	var data []any
	for i := 0; i < 2000; i++ {
		data = append(data, shuffle.Pair{K: int64(i % 10), V: int64(1)})
	}
	src := ctx.Parallelize(data, 8).Cache()
	agg := src.ReduceByKey(func(a, b any) any { return a.(int64) + b.(int64) }, 4)
	got, err := agg.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range got {
		total += v.(shuffle.Pair).V.(int64)
	}
	if total != 2000 || len(got) != 10 {
		t.Errorf("total=%d keys=%d, want 2000/10", total, len(got))
	}
}
