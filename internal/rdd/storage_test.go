package rdd

import (
	"testing"

	"shark/internal/cluster"
	"shark/internal/shuffle"
)

// newTieredCtx builds a context over a cluster with bounded worker
// memory and a disk spill tier.
func newTieredCtx(t *testing.T, workers int, memBytes, diskBytes int64) *Context {
	t.Helper()
	c := cluster.New(cluster.Config{
		Workers:           workers,
		Slots:             2,
		WorkerMemoryBytes: memBytes,
		WorkerDiskBytes:   diskBytes,
	})
	t.Cleanup(c.Close)
	svc := shuffle.NewService(c, shuffle.Memory, t.TempDir())
	return NewContext(c, svc, Options{})
}

// ints builds n int64 elements (mirrors the helper in rdd_test.go's
// data shape but typed for the spill codec).
func spillableInts(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// TestMemoryAndDiskServesFromSpill: under memory pressure a
// MEMORY_AND_DISK RDD's evicted partitions come back from the local
// disk tier — DiskHits count, recomputes stay zero, and the spilled
// partitions' holders are still listed as locations.
func TestMemoryAndDiskServesFromSpill(t *testing.T) {
	// 16 partitions × ~2000B over 4 workers with 3000B each: most
	// cache puts evict, and every victim spills.
	ctx := newTieredCtx(t, 4, 3000, -1)
	src := ctx.Parallelize(spillableInts(4000), 16).Persist(MemoryAndDisk)
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	cm := ctx.Cluster.Metrics()
	if cm.SpilledBlocks.Load() == 0 {
		t.Fatal("no spills despite capacity below the cached footprint")
	}
	if cm.CacheEvictions.Load() != 0 {
		t.Errorf("%d victims dropped instead of spilled", cm.CacheEvictions.Load())
	}
	// Every partition still has at least one location (memory- or
	// disk-resident).
	for p := 0; p < src.NumPartitions(); p++ {
		locs := src.PreferredLocations(p)
		if len(locs) == 0 {
			t.Errorf("partition %d lost all locations despite the disk tier", p)
			continue
		}
		for _, w := range locs {
			if !ctx.Cluster.Worker(w).Store().Contains(cacheKey(src.ID, p)) {
				t.Errorf("partition %d: worker %d advertised but holds nothing on any tier", p, w)
			}
		}
	}
	n, err := src.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4000 {
		t.Errorf("count under pressure = %d, want 4000", n)
	}
	m := ctx.Scheduler().Metrics()
	if m.DiskHits.Load() == 0 {
		t.Error("no disk hits despite spilled partitions being re-read")
	}
	if got := m.CacheRecomputes.Load(); got != 0 {
		t.Errorf("%d lineage recomputes despite every victim being disk-resident", got)
	}
}

// TestDiskOnlyKeepsMemoryFree: a DISK_ONLY RDD materializes to the
// disk tier without occupying evictable memory, and still serves
// every read.
func TestDiskOnlyKeepsMemoryFree(t *testing.T) {
	ctx := newTieredCtx(t, 2, 1<<20, -1)
	src := ctx.Parallelize(spillableInts(400), 4).Persist(DiskOnly)
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		if b := ctx.Cluster.Worker(i).Store().EvictableBytes(); b != 0 {
			t.Errorf("worker %d holds %d evictable bytes for a DISK_ONLY table", i, b)
		}
	}
	n, err := src.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Errorf("count = %d, want 400", n)
	}
	if ctx.Scheduler().Metrics().DiskHits.Load() == 0 {
		t.Error("DISK_ONLY reads did not hit the disk tier")
	}
	if ctx.Scheduler().Metrics().CacheRecomputes.Load() != 0 {
		t.Error("DISK_ONLY reads recomputed")
	}
}

// TestRemoteDiskRead: a task placed off-holder can fetch a partition
// that the holder spilled to its disk — remote reads span both tiers.
func TestRemoteDiskRead(t *testing.T) {
	ctx := newTieredCtx(t, 2, 1<<20, -1)
	src := ctx.Parallelize(spillableInts(400), 4).Persist(MemoryAndDisk)
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	locs := src.PreferredLocations(0)
	if len(locs) != 1 {
		t.Fatalf("partition 0 locations = %v, want exactly one holder", locs)
	}
	holder := locs[0]
	other := 1 - holder
	key := cacheKey(src.ID, 0)
	// Push the holder's copy to its disk tier by hand (as eviction
	// would).
	hs := ctx.Cluster.Worker(holder).Store()
	v, tier := hs.Get(key)
	if tier != cluster.MemoryTier {
		t.Fatal("holder lost the block")
	}
	if !hs.Put(key, v, 100, cluster.Class{Level: DiskOnly}) {
		t.Fatal("manual spill failed")
	}
	if hs.InMemory(key) {
		t.Fatal("block still memory-resident")
	}

	m := ctx.Scheduler().Metrics()
	recomputes := m.CacheRecomputes.Load()
	tc := &TaskContext{Worker: ctx.Cluster.Worker(other), Ctx: ctx, Part: 0}
	data := Drain(src.Iterator(tc, 0))
	if len(data) != 100 {
		t.Fatalf("remote disk read returned %d elements, want 100", len(data))
	}
	if got := m.RemoteCacheHits.Load(); got != 1 {
		t.Errorf("RemoteCacheHits = %d, want 1", got)
	}
	if got := m.CacheRecomputes.Load(); got != recomputes {
		t.Error("remote disk read counted as a recompute")
	}
}

// TestUncacheDropsSpilledPartitions: Uncache deletes disk-resident
// partitions (and their files) along with memory-resident ones — the
// Session.Close path must not leak spill-dir space.
func TestUncacheDropsSpilledPartitions(t *testing.T) {
	ctx := newTieredCtx(t, 2, 2000, -1)
	src := ctx.Parallelize(spillableInts(1000), 8).Persist(MemoryAndDisk)
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		spilled += ctx.Cluster.Worker(i).Store().Disk().ApproxBytes()
	}
	if spilled == 0 {
		t.Fatal("nothing spilled before Uncache")
	}
	src.Uncache()
	for i := 0; i < ctx.Cluster.NumWorkers(); i++ {
		st := ctx.Cluster.Worker(i).Store()
		if b := st.ApproxBytes(); b != 0 {
			t.Errorf("worker %d still accounts %d memory bytes", i, b)
		}
		if b := st.Disk().ApproxBytes(); b != 0 {
			t.Errorf("worker %d still accounts %d disk bytes", i, b)
		}
		if n := st.Disk().Len(); n != 0 {
			t.Errorf("worker %d still holds %d spilled blocks", i, n)
		}
	}
}
