package rdd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shark/internal/cluster"
	"shark/internal/shuffle"
)

// Context owns the pieces a job needs: the cluster, the shuffle
// service, the map-output tracker, and the cache ledger. It plays the
// role of SparkContext.
type Context struct {
	Cluster *cluster.Cluster
	Shuffle *shuffle.Service

	tracker *MapOutputTracker
	cache   *cacheTracker
	sched   *Scheduler
	jobs    *jobRegistry

	// deps finds a ShuffleDep by ID so a fetch failure can rebuild its
	// map outputs. Per Context because shuffle IDs are allocated per
	// shuffle.Service: a process-wide registry would let two contexts'
	// equal IDs recover each other's shuffles.
	deps sync.Map // shuffleID → *ShuffleDep
}

// nextRDDID allocates RDD IDs process-wide, not per Context: cache
// block keys ("rdd/<id>/<part>") live in cluster-shared worker block
// stores and every Context on a cluster hears every eviction, resolving
// keys back to IDs, so per-Context counters would let two Contexts
// sharing one cluster collide on keys (serving each other's cached
// bytes) and misattribute each other's evictions.
var nextRDDID atomic.Int64

// Options tunes scheduler behaviour.
type Options struct {
	// MaxTaskRetries bounds per-task attempts (default 4).
	MaxTaskRetries int
	// Speculation enables backup copies of straggler tasks.
	Speculation bool
	// SpeculationInterval is how often running stages are checked for
	// stragglers (default 20ms).
	SpeculationInterval time.Duration
	// SpeculationMultiplier: a task is a straggler if it has run
	// longer than multiplier × median completed duration (default 2).
	SpeculationMultiplier float64
}

func (o Options) withDefaults() Options {
	if o.MaxTaskRetries <= 0 {
		o.MaxTaskRetries = 4
	}
	if o.SpeculationInterval <= 0 {
		o.SpeculationInterval = 20 * time.Millisecond
	}
	if o.SpeculationMultiplier <= 1 {
		o.SpeculationMultiplier = 2
	}
	return o
}

// NewContext creates an execution context over a cluster.
func NewContext(c *cluster.Cluster, svc *shuffle.Service, opts Options) *Context {
	ctx := &Context{
		Cluster: c,
		Shuffle: svc,
		tracker: NewMapOutputTracker(),
		cache:   newCacheTracker(),
		jobs:    newJobRegistry(),
	}
	ctx.sched = NewScheduler(ctx, opts.withDefaults())
	// Charge each capacity eviction to the session whose table lost the
	// partition. A block spilled to the worker's disk tier is not a
	// loss: the worker still serves it locally and to remote readers.
	c.OnEviction(func(ev cluster.Eviction) {
		if ev.Spilled {
			return
		}
		if rddID, ok := parseCacheKey(ev.Key); ok {
			ctx.noteEviction(rddID, ev.Size)
		}
	})
	return ctx
}

// Scheduler returns the DAG scheduler.
func (c *Context) Scheduler() *Scheduler { return c.sched }

// Tracker returns the map output tracker.
func (c *Context) Tracker() *MapOutputTracker { return c.tracker }

func (c *Context) newRDDID() int { return int(nextRDDID.Add(1)) }

// NewShuffleDep allocates a shuffle dependency over parent.
func (c *Context) NewShuffleDep(parent *RDD, part shuffle.Partitioner, combiner func(a, b any) any, stats ...func(*ShuffleDep)) *ShuffleDep {
	dep := &ShuffleDep{
		Parent:      parent,
		ID:          c.Shuffle.NewShuffleID(),
		Partitioner: part,
		Combiner:    combiner,
	}
	for _, f := range stats {
		f(dep)
	}
	c.tracker.RegisterShuffle(dep.ID, part.NumPartitions(), parent.NumPartitions())
	c.deps.Store(dep.ID, dep)
	return dep
}

// TaskContext is handed to compute functions running inside a task.
type TaskContext struct {
	Worker *cluster.Worker
	Ctx    *Context
	Part   int
	// Job is the scheduler job the task runs under (nil for work
	// executed outside any job); cache traffic is attributed to it.
	Job *Job
	// Gctx is the governing context of the job's current task set (nil
	// for work executed outside a cancellable job). Iterators returned
	// by RDD.Iterator poll it every CancelCheckRows elements, so a
	// cancelled statement aborts long task bodies mid-partition
	// instead of running each partition to completion.
	Gctx context.Context
}

// CancelErr reports why the task's governing context was cancelled, or
// nil while the task should keep running. Long non-iterator loops in
// task bodies (bucket fetches, hash-join builds) poll it explicitly.
func (tc *TaskContext) CancelErr() error {
	if tc == nil || tc.Gctx == nil {
		return nil
	}
	select {
	case <-tc.Gctx.Done():
		return tc.Gctx.Err()
	default:
		return nil
	}
}

// FailIfCancelled aborts the task body when the governing context has
// been cancelled, counting the abort in the mid-partition cancellation
// metrics (scheduler, job, session). It is the one cooperative abort:
// RDD iterators poll it every CancelCheckRows elements, and long
// non-iterator loops in task bodies call it at natural checkpoints —
// shuffle bucket boundaries, hash-join builds, the scan kernels' batch
// and row-chunk boundaries — so every abort path reports alike.
func (tc *TaskContext) FailIfCancelled() {
	err := tc.CancelErr()
	if err == nil {
		return
	}
	if tc.Ctx != nil {
		tc.Ctx.sched.metrics.CancelledMidPartition.Add(1)
	}
	tc.Job.noteCancelledMidPartition()
	Fail(err)
}

// Broadcast is a value shared read-only with all tasks. In this
// in-process simulation broadcasting is a pointer copy; the paper's
// broadcast cost appears instead as the explicit decision threshold in
// the join optimizer.
type Broadcast struct{ Value any }

// NewBroadcast wraps a value for task-side use.
func (c *Context) NewBroadcast(v any) *Broadcast { return &Broadcast{Value: v} }

// cacheTracker is the ledger recompute accounting needs: which cached
// partitions were ever materialized, and which losses already counted
// their recompute. It holds no locations — where a partition is cached
// is read off the live workers' block stores (PreferredLocations,
// remoteCacheRead), so bookkeeping cannot outlive the worker state it
// describes: an evicted block or a dead or restarted worker is simply
// not found.
type cacheTracker struct {
	mu   sync.Mutex
	ever map[int]map[int]bool // rddID → part → was ever materialized
	lost map[int]map[int]bool // rddID → part → recompute already counted
}

func newCacheTracker() *cacheTracker {
	return &cacheTracker{
		ever: make(map[int]map[int]bool),
		lost: make(map[int]map[int]bool),
	}
}

// NoteMaterialized records that a partition of a cached RDD was
// computed to completion, independently of whether the block store
// admitted the copy (a bounded store may reject it). Marking
// ever-materialized and re-arming the recompute counter here keeps
// memory pressure observable at the tightest capacities: a partition
// too large to ever cache still counts each later rebuild as a
// recompute instead of reading as a table that was never cached.
func (t *cacheTracker) NoteMaterialized(rddID, part int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.ever[rddID]
	if !ok {
		m = make(map[int]bool)
		t.ever[rddID] = m
	}
	m[part] = true
	delete(t.lost[rddID], part)
}

// NoteRecompute records that a lost partition's recompute is underway
// and reports whether this is the first attempt since the partition
// was last materialized — so retries and speculative duplicates of one
// recovery count as one recomputed partition. Re-armed by
// NoteMaterialized.
func (t *cacheTracker) NoteRecompute(rddID, part int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.lost[rddID]
	if !ok {
		m = make(map[int]bool)
		t.lost[rddID] = m
	}
	if m[part] {
		return false
	}
	m[part] = true
	return true
}

// WasMaterialized reports whether the partition was ever cached (so a
// cache-miss compute is lineage recovery, not first materialization).
func (t *cacheTracker) WasMaterialized(rddID, part int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ever[rddID][part]
}

// Forget drops an uncached RDD's ledger entries.
func (t *cacheTracker) Forget(rddID int) {
	t.mu.Lock()
	delete(t.ever, rddID)
	delete(t.lost, rddID)
	t.mu.Unlock()
}

// parseCacheKey inverts cacheKey's RDD ID; non-cache block keys
// (shuffle buckets, cached results) report ok=false.
func parseCacheKey(key string) (rddID int, ok bool) {
	var part int
	n, err := fmt.Sscanf(key, "rdd/%d/%d", &rddID, &part)
	return rddID, err == nil && n == 2
}

// NotifyWorkerLost clears master metadata referring to a dead worker:
// its shuffle output registrations. (Cache locations need no clearing —
// they are read off live stores.)
func (c *Context) NotifyWorkerLost(worker int) {
	c.tracker.DropWorker(worker)
}
