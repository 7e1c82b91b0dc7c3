package rdd

import (
	"fmt"
	"sync/atomic"

	"shark/internal/cluster"
	"shark/internal/pde"
	"shark/internal/shuffle"
)

// Dependency links an RDD to a parent in the lineage graph.
type Dependency interface {
	ParentRDD() *RDD
}

// OneToOne is a narrow dependency: child partition i reads parent
// partition i.
type OneToOne struct{ Parent *RDD }

// ParentRDD implements Dependency.
func (d OneToOne) ParentRDD() *RDD { return d.Parent }

// RangeDep is a narrow dependency used by Union: child partitions
// [OutStart, OutStart+Len) read parent partitions [0, Len).
type RangeDep struct {
	Parent   *RDD
	OutStart int
	Len      int
}

// ParentRDD implements Dependency.
func (d RangeDep) ParentRDD() *RDD { return d.Parent }

// ShuffleDep is a wide dependency: the parent is hash/range
// partitioned into fine-grained buckets, materialized by map tasks,
// and re-read by downstream partitions. The parent RDD must produce
// shuffle.Pair elements.
type ShuffleDep struct {
	Parent *RDD
	// ID is the cluster-wide shuffle identifier.
	ID int
	// Partitioner maps keys to fine-grained buckets. Following §3.1.2
	// this is deliberately finer than the reduce parallelism; the
	// scheduler (or PDE) coalesces buckets into reduce partitions.
	Partitioner shuffle.Partitioner
	// Combiner, when non-nil, merges values of equal keys map-side
	// (and is reused reduce-side). Keys must be Go-comparable.
	Combiner func(a, b any) any
	// Stats configures the PDE accumulators gathered while the map
	// output is materialized.
	Stats pde.CollectorConfig
}

// ParentRDD implements Dependency.
func (d *ShuffleDep) ParentRDD() *RDD { return d.Parent }

// RDD is an immutable, partitioned dataset defined by its lineage:
// a compute function plus dependencies on parent RDDs.
type RDD struct {
	// ID is unique within a Context.
	ID int
	// Name is a debug label ("scan(lineitem)", "map", ...).
	Name string

	ctx      *Context
	numParts int
	deps     []Dependency
	compute  func(tc *TaskContext, part int) Iter
	// prefLocs optionally reports preferred worker IDs per partition
	// (e.g. DFS block homes).
	prefLocs func(part int) []int
	// partitioner is set when the RDD's rows are known to be
	// partitioned by key (output of a shuffle, or a co-partitioned
	// load); joins use it to avoid re-shuffling.
	partitioner shuffle.Partitioner

	cached atomic.Bool
	// level is the StorageLevel in effect while cached (set by
	// Persist; MemoryOnly for plain Cache).
	level atomic.Int32
}

// Context returns the owning context.
func (r *RDD) Context() *Context { return r.ctx }

// NumPartitions returns the partition count.
func (r *RDD) NumPartitions() int { return r.numParts }

// Partitioner returns the key partitioner the RDD is known to respect,
// or nil.
func (r *RDD) Partitioner() shuffle.Partitioner { return r.partitioner }

// Cache marks the RDD's partitions for in-memory materialization in
// worker block stores on first computation (MEMORY_ONLY). Returns r.
func (r *RDD) Cache() *RDD { return r.Persist(MemoryOnly) }

// Persist marks the RDD's partitions for materialization at the given
// storage level on first computation. Returns r.
func (r *RDD) Persist(level StorageLevel) *RDD {
	r.level.Store(int32(level))
	r.cached.Store(true)
	return r
}

// Level returns the storage level in effect while cached.
func (r *RDD) Level() StorageLevel { return StorageLevel(r.level.Load()) }

// Uncache drops the cache flag and deletes materialized partitions
// from every worker's store, both tiers.
func (r *RDD) Uncache() {
	r.cached.Store(false)
	for part := 0; part < r.numParts; part++ {
		key := cacheKey(r.ID, part)
		for w := 0; w < r.ctx.Cluster.NumWorkers(); w++ {
			r.ctx.Cluster.Worker(w).Store().Delete(key)
		}
	}
	r.ctx.cache.Forget(r.ID)
	r.ctx.forgetRDDOwner(r.ID)
}

func cacheKey(rddID, part int) string { return fmt.Sprintf("rdd/%d/%d", rddID, part) }

// CancelCheckRows is how many elements an iterator yields between
// polls of the task's governing context. Small enough that a cancelled
// statement stops paying for row-at-a-time work within milliseconds,
// large enough that the poll is invisible next to per-row compute.
// Task bodies that loop over rows without pulling an RDD iterator
// (the engine's batch kernels) poll TaskContext.FailIfCancelled at the
// same interval.
const CancelCheckRows = 128

// wrapCancel makes an iterator cooperative: every CancelCheckRows
// elements it polls the task's governing context through
// TaskContext.FailIfCancelled, which aborts the task body
// mid-partition once the statement is cancelled. Tasks without a
// cancellable context get the iterator back unchanged.
func (r *RDD) wrapCancel(tc *TaskContext, it Iter) Iter {
	if tc == nil || tc.Gctx == nil || tc.Gctx.Done() == nil {
		return it
	}
	n := 0
	return FuncIter(func() (any, bool) {
		n++
		if n%CancelCheckRows == 0 {
			tc.FailIfCancelled()
		}
		return it.Next()
	})
}

// Iterator returns the partition's elements, serving from the block
// stores when the RDD is cached. The worker's own store is asked first
// — it walks memory then its disk tier, promoting a spilled partition
// back into free memory room — then the other live workers' stores (a
// remote cache read, cheaper than recomputing when the local copy was
// evicted or the task landed off-holder), and only then is the
// partition recomputed from lineage (recompute-on-miss is lineage
// recovery). The materialized partition is put at the RDD's storage
// level: under memory pressure the store may refuse, spill or later
// evict it, and the table still answers queries by reading back or
// recomputing cold partitions (§3.2 partial caching).
func (r *RDD) Iterator(tc *TaskContext, part int) Iter {
	if !r.cached.Load() {
		return r.wrapCancel(tc, r.compute(tc, part))
	}
	key := cacheKey(r.ID, part)
	m := &r.ctx.sched.metrics
	switch v, tier := tc.Worker.Store().Get(key); tier {
	case cluster.MemoryTier:
		m.CacheHits.Add(1)
		tc.Job.noteCacheHit()
		return r.wrapCancel(tc, SliceIter(v.([]any)))
	case cluster.DiskTier:
		m.DiskHits.Add(1)
		tc.Job.noteDiskHit()
		return r.wrapCancel(tc, SliceIter(v.([]any)))
	}
	if r.ctx.cache.WasMaterialized(r.ID, part) {
		// Only a partition materialized before can have a copy on
		// another worker; a first materialization skips the probes.
		if data, ok := r.remoteCacheRead(tc, key); ok {
			return r.wrapCancel(tc, SliceIter(data))
		}
		if r.ctx.cache.NoteRecompute(r.ID, part) {
			// The partition was cached and no live copy remains
			// anywhere (worker loss or eviction): this compute is
			// lineage recovery, visible in the scheduler metrics the
			// fault-tolerance experiments read. Retries and speculative
			// duplicates of one recovery count once.
			m.CacheRecomputes.Add(1)
			tc.Job.noteRecompute()
		}
	}
	// The materializing Drain is itself cancellable: compute's own
	// child iterators are wrapped, and wrapping here too covers
	// source RDDs with no children (their compute yields rows
	// directly).
	data := Drain(r.wrapCancel(tc, r.compute(tc, part)))
	r.cacheLocally(tc, key, data, false)
	// Even if the bounded store rejected the copy, the partition was
	// materialized: the next miss is a recompute, and must count.
	r.ctx.cache.NoteMaterialized(r.ID, part)
	return r.wrapCancel(tc, SliceIter(data))
}

// remoteCacheRead tries to serve a cache miss from another live worker
// still holding the partition on either tier — cheaper than
// recomputing the lineage when the local copy was evicted or the task
// landed off-holder. The holders are whoever's store answers: there is
// no location record to go stale.
func (r *RDD) remoteCacheRead(tc *TaskContext, key string) ([]any, bool) {
	for _, loc := range r.ctx.Cluster.AliveWorkers() {
		if loc == tc.Worker.ID {
			continue
		}
		v, tier := r.ctx.Cluster.Worker(loc).Store().Get(key)
		if tier == cluster.Miss {
			continue
		}
		r.ctx.sched.metrics.RemoteCacheHits.Add(1)
		tc.Job.noteRemoteCacheHit()
		data := v.([]any)
		// Replicate only into free room: evicting residents for a
		// partition another worker already holds would trade a cheap
		// future fetch for someone else's recompute (cache thrash).
		r.cacheLocally(tc, key, data, true)
		return data, true
	}
	return nil, false
}

// cacheLocally puts a materialized partition into the task's worker
// store at the RDD's storage level. ifRoom makes admission
// opportunistic (the replication path); without it the put may
// displace LRU residents (the compute path — this is the only copy).
func (r *RDD) cacheLocally(tc *TaskContext, key string, data []any, ifRoom bool) {
	if tc.Worker.Store().Put(key, data, sliceSize(data), cluster.Class{Level: r.Level(), IfRoom: ifRoom}) {
		// Attribute this RDD's cached partitions (and their future
		// evictions) to the session that materialized them.
		r.ctx.noteRDDOwner(r.ID, tc.Job)
	}
}

// sliceSize estimates a materialized partition's in-memory footprint.
func sliceSize(data []any) int64 {
	var size int64
	for _, v := range data {
		size += shuffle.EstimateSize(v)
	}
	return size
}

// PreferredLocations returns worker IDs that hold useful local state
// for the partition: cached copies first, then source preferences.
func (r *RDD) PreferredLocations(part int) []int {
	var locs []int
	if r.cached.Load() {
		// Read off the live stores (one probe per worker, either tier):
		// an evicted block or a dead worker is simply not listed.
		key := cacheKey(r.ID, part)
		for _, w := range r.ctx.Cluster.AliveWorkers() {
			if r.ctx.Cluster.Worker(w).Store().Contains(key) {
				locs = append(locs, w)
			}
		}
	}
	if r.prefLocs != nil {
		locs = append(locs, r.prefLocs(part)...)
	}
	if len(locs) > 0 {
		return locs
	}
	// Recurse through narrow deps so a map over a cached RDD still
	// schedules next to the cache.
	for _, d := range r.deps {
		switch dep := d.(type) {
		case OneToOne:
			if p := dep.Parent.PreferredLocations(part); len(p) > 0 {
				return p
			}
		case RangeDep:
			if part >= dep.OutStart && part < dep.OutStart+dep.Len {
				if p := dep.Parent.PreferredLocations(part - dep.OutStart); len(p) > 0 {
					return p
				}
			}
		}
	}
	return nil
}
