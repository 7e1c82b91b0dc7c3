// Package cluster simulates the machines under the engines: a set of
// worker nodes, each with a fixed number of task slots and a local
// block store. It reproduces the *scheduling cost structure* the paper
// analyzes (§7.1): per-task launch overhead, heartbeat-based vs.
// event-driven task assignment, worker failures that wipe local state,
// and injected stragglers.
//
// Simulated delays (launch overhead, stragglers) are charged to a
// per-slot debt that is slept off in steps of at least a millisecond,
// so a 50µs launch costs 50µs per task, not the timer's floor, while
// Hadoop's launch and injected stragglers still sleep on every task.
//
// Task dispatch is locality- and load-aware. Each worker owns a
// bounded queue; the dispatcher places unconstrained tasks on the
// least-loaded live worker, holds locality-preferred tasks for a short
// wait before falling back to any worker (delay-scheduling-lite,
// after Zaharia et al.), and idle slots steal queued work in batches
// from the most-loaded worker once a task's locality window has
// expired. This is what makes "many small tasks" actually balance
// (§7.1) instead of one worker draining a global queue.
//
// Tasks carry a JobID and a Weight. Under the default FairShare policy
// a freed slot runs the queued task whose job has the smallest
// running/weight ratio cluster-wide (weighted fair sharing, after the
// Spark fair scheduler's pool weights), so concurrent sessions sharing
// the cluster each make progress in proportion to their priority
// instead of queueing behind the largest job's task wave; CancelJob
// drops a job's queued tasks without touching other jobs.
//
// The cluster runs tasks for both the Spark-like engine (internal/rdd)
// and the Hadoop-like engine (internal/mr); the two differ only in the
// Profile they configure.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects how tasks are assigned to slots.
type Mode int

const (
	// EventDriven assigns tasks immediately (Spark's fast RPC model).
	EventDriven Mode = iota
	// Heartbeat assigns at most one task per slot per heartbeat tick
	// (Hadoop's polling model).
	Heartbeat
)

// ErrWorkerLost marks a task that was running on a worker when the
// worker was killed.
var ErrWorkerLost = errors.New("cluster: worker lost")

// ErrClosed marks work submitted to a cluster that has been shut
// down.
var ErrClosed = errors.New("cluster: closed")

// ErrJobCancelled marks a queued task dropped by CancelJob before any
// worker ran it.
var ErrJobCancelled = errors.New("cluster: job cancelled")

// Policy selects how a freed slot picks among queued tasks.
type Policy int

const (
	// FairShare (default) picks the eligible task whose job currently
	// has the smallest running/weight ratio cluster-wide, breaking
	// ties in queue order. With a single active job this degenerates
	// to FIFO; with a short interactive job queued behind a long
	// scan's task wave it is what keeps the short job's latency
	// bounded by task duration instead of queue depth, and a
	// weight-4 job holds 4x the slots of a weight-1 job when both are
	// backlogged.
	FairShare Policy = iota
	// FIFO always takes the oldest eligible queued task, regardless of
	// which job it belongs to (the pre-multi-tenant behavior; kept for
	// the abl_concurrency ablation).
	FIFO
)

// Profile holds the simulated overhead constants. SimScale documents
// the wall-clock compression relative to the paper's deployment.
type Profile struct {
	// Mode is the task-assignment discipline.
	Mode Mode
	// TaskLaunchOverhead is charged to the slot before each task body
	// (process / JVM start cost): added to the slot's debt, which is
	// slept off whenever it reaches a millisecond (see charge).
	TaskLaunchOverhead time.Duration
	// HeartbeatInterval is the assignment poll period in Heartbeat
	// mode.
	HeartbeatInterval time.Duration
}

// SimScale is the wall-clock compression factor versus the paper's
// cluster: all simulated overheads are paper values divided by this.
const SimScale = 100

// SparkProfile mirrors Spark's ~5 ms task launch (scaled).
func SparkProfile() Profile {
	return Profile{Mode: EventDriven, TaskLaunchOverhead: 5 * time.Millisecond / SimScale}
}

// HadoopProfile mirrors Hadoop's 3 s heartbeats and multi-second task
// launch (scaled).
func HadoopProfile() Profile {
	return Profile{
		Mode:               Heartbeat,
		TaskLaunchOverhead: 5 * time.Second / SimScale,
		HeartbeatInterval:  3 * time.Second / SimScale,
	}
}

// Config sizes the simulated cluster.
type Config struct {
	// Workers is the number of simulated nodes. Default 8.
	Workers int
	// Slots is the number of concurrent tasks per node. Default 2.
	Slots int
	// QueueDepth bounds each worker's task queue; placements beyond
	// it spill to a central pending list drained by idle slots.
	// Default 32.
	QueueDepth int
	// LocalityWait is how long a locality-preferred task waits for a
	// slot on a preferred worker before any worker may run it
	// (delay-scheduling-lite). Default 2ms.
	LocalityWait time.Duration
	// StealDelay is how long a slot must sit idle before it may steal
	// queued tasks from another worker. Without it, one fast slot
	// drains every queue of microsecond tasks before the owning
	// workers' slots wake — stealing exists to fix real imbalance
	// (stragglers, dead or late-joining workers), not to concentrate
	// load. Default 1ms.
	StealDelay time.Duration
	// WorkerMemoryBytes bounds each worker's block store; evictable
	// blocks (RDD cache partitions) are LRU-evicted under pressure
	// while pinned blocks (shuffle outputs) survive until pruned.
	// 0 = unbounded (the pre-limit behavior).
	WorkerMemoryBytes int64
	// WorkerDiskBytes sizes each worker's local-disk spill tier:
	// spillable LRU victims of the memory tier land there and are read
	// back instead of recomputed. 0 disables the tier (evictions drop
	// blocks, the pre-spill behavior); negative = unbounded disk.
	WorkerDiskBytes int64
	// WorkerShuffleBytes gives pinned shuffle outputs their own byte
	// budget so a shuffle-heavy job cannot starve the cache: pinned
	// bytes stop counting against WorkerMemoryBytes, and the coldest
	// pinned buckets spill to the disk tier when the budget overflows.
	// 0 keeps the legacy shared accounting.
	WorkerShuffleBytes int64
	// SpillDir roots the per-worker spill directories. Created (and a
	// temp dir when empty) only when WorkerDiskBytes != 0; the spill
	// files are removed on Close.
	SpillDir string
	// Policy selects the dequeue discipline for freed slots. Default
	// FairShare (min-running-tasks-first across jobs).
	Policy Policy
	// Profile sets scheduling overheads. Default SparkProfile.
	Profile Profile
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.LocalityWait <= 0 {
		c.LocalityWait = 2 * time.Millisecond
	}
	if c.StealDelay <= 0 {
		c.StealDelay = time.Millisecond
	}
	return c
}

// Task is one unit of work submitted to the cluster.
type Task struct {
	// Fn runs on some worker. It must be a pure function of its
	// inputs plus the worker's block store.
	Fn func(w *Worker) (any, error)
	// Preferred lists worker IDs that should run the task if
	// possible (data locality). May be nil.
	Preferred []int
	// Excluded lists worker IDs that must not run the task
	// (e.g. it already failed there).
	Excluded []int
	// JobID tags the task with the scheduler job that submitted it.
	// Fair sharing balances running-task counts across JobIDs, and
	// CancelJob drops queued tasks by it. 0 = untagged (legacy
	// submitters), which fair-shares as one shared bucket.
	JobID int64
	// Weight is the job's fair-share weight (<=0 reads as 1): under
	// FairShare a freed slot picks the queued task whose job has the
	// smallest running/weight ratio, so a weight-4 job sustains 4x the
	// running tasks of a weight-1 job before losing priority. Every
	// task of one job must carry the same weight.
	Weight int

	result chan Result
	// deadline is when the locality window expires (guarded by the
	// cluster mutex while the task is queued or pending).
	deadline time.Time
	// runningOn holds workerID+1 while the task body runs (0 = not
	// started); schedulers use it to place speculative copies away
	// from the original attempt.
	runningOn atomic.Int32
	// placedOn holds workerID+1 of the queue the task was last
	// placed on (0 = pending/unplaced).
	placedOn atomic.Int32
}

// weight normalizes the task's fair-share weight (unset reads as 1).
func (t *Task) weight() int {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// RunningOn reports the worker currently (or last) executing the task,
// or -1 if it has not started.
func (t *Task) RunningOn() int { return int(t.runningOn.Load()) - 1 }

// PlacedOn reports the worker whose queue last held the task, or -1
// while it sits unplaced on the pending list. Together with RunningOn
// it tells a scheduler where a straggling task is stuck even before
// its body starts executing.
func (t *Task) PlacedOn() int { return int(t.placedOn.Load()) - 1 }

// Result is a completed task's outcome.
type Result struct {
	Worker int
	Value  any
	Err    error
	// SlotTime is the task's time on its slot: the launch overhead
	// charged, the body, and any straggler delay. Queue wait and
	// heartbeat waits are not in it.
	SlotTime time.Duration
}

// Worker is one simulated node.
type Worker struct {
	ID    int
	store *BlockStore

	alive  atomic.Bool
	slowBy atomic.Int64 // extra ns per task (straggler injection)

	// queue and busy are guarded by the cluster mutex.
	queue []*Task
	busy  int

	tasksRun atomic.Int64
}

// Store returns the worker's local block store.
func (w *Worker) Store() *BlockStore { return w.store }

// Alive reports whether the worker is up.
func (w *Worker) Alive() bool { return w.alive.Load() }

// TasksRun returns how many task bodies this worker has executed.
func (w *Worker) TasksRun() int64 { return w.tasksRun.Load() }

// load is the worker's instantaneous load for placement decisions
// (running + queued tasks). Caller holds the cluster mutex.
func (w *Worker) load() int { return w.busy + len(w.queue) }

// DispatchMetrics counts dispatcher activity, observable by tests and
// the scheduling experiments.
type DispatchMetrics struct {
	// Steals counts steal *events*: times an idle slot took work from
	// another worker's queue. One event may move several tasks (batch
	// stealing); StolenTasks counts the tasks.
	Steals atomic.Int64
	// StolenTasks counts individual tasks moved by steal events.
	StolenTasks atomic.Int64
	// CancelledTasks counts queued tasks dropped by CancelJob before
	// any worker ran them.
	CancelledTasks atomic.Int64
	// LocalityHits / LocalityMisses count preferred-location tasks
	// that did / did not run on a preferred worker.
	LocalityHits   atomic.Int64
	LocalityMisses atomic.Int64
	// PendingOverflows counts placements that found every eligible
	// queue full (or every preferred worker busy) and spilled to the
	// central pending list.
	PendingOverflows atomic.Int64
	// CacheEvictions / BytesEvicted aggregate LRU drops across all
	// worker block stores (memory pressure, not failures) that left no
	// disk copy behind — the blocks that are actually gone.
	CacheEvictions atomic.Int64
	BytesEvicted   atomic.Int64
	// SpilledBlocks / BytesSpilled aggregate memory-tier victims the
	// disk tiers caught instead (still locally readable).
	SpilledBlocks atomic.Int64
	BytesSpilled  atomic.Int64
	// DiskEvictions aggregates blocks the disk budgets dropped for
	// good (no copy left on any local tier).
	DiskEvictions atomic.Int64
}

// Cluster is the simulated cluster.
type Cluster struct {
	cfg     Config
	workers []*Worker

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*Task // unplaced tasks drained by idle slots
	rr      int     // rotates equal-load placement ties across workers
	closed  bool
	// jobRunning counts in-flight task bodies per JobID (the fair-
	// sharing signal); jobQueued counts tasks sitting in queues or
	// pending per JobID (lets CancelJob skip the queue sweep for the
	// common no-leftovers case). Entries are deleted at zero.
	jobRunning map[int64]int
	jobQueued  map[int64]int

	wg sync.WaitGroup

	tick     chan struct{} // heartbeat broadcast (closed+replaced each tick)
	tickMu   sync.Mutex
	stopTick chan struct{}

	tasksLaunched atomic.Int64
	// backlog counts tasks sitting in queues or pending (not yet
	// taken by a slot), letting wakeLoop skip the mutex entirely on
	// an idle cluster.
	backlog atomic.Int64
	metrics DispatchMetrics

	// evictSubs hear every capacity eviction on any worker's store
	// (OnEviction appends; the slice is replaced, never mutated).
	evictMu   sync.RWMutex
	evictSubs []func(Eviction)

	// spillRoot is the directory under the per-worker spill dirs;
	// ownsSpillRoot marks a temp dir the cluster created (removed
	// whole on Close, versus only the per-worker subdirs).
	spillRoot     string
	ownsSpillRoot bool
}

// New starts a simulated cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:        cfg,
		tick:       make(chan struct{}),
		stopTick:   make(chan struct{}),
		jobRunning: make(map[int64]int),
		jobQueued:  make(map[int64]int),
	}
	c.cond = sync.NewCond(&c.mu)
	if cfg.WorkerDiskBytes != 0 {
		c.spillRoot = cfg.SpillDir
		if c.spillRoot == "" {
			dir, err := os.MkdirTemp("", "shark-spill-*")
			if err == nil {
				c.spillRoot = dir
				c.ownsSpillRoot = true
			} else {
				// Running without the configured tier would be silent
				// degradation (every spill becomes an eviction) — say
				// why, loudly, the one time it can happen.
				fmt.Fprintf(os.Stderr,
					"cluster: WorkerDiskBytes set but no spill dir available (%v); disk tier disabled\n", err)
			}
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		var disk *DiskStore
		if cfg.WorkerDiskBytes != 0 && c.spillRoot != "" {
			disk = NewDiskStore(filepath.Join(c.spillRoot, fmt.Sprintf("w%d", i)), cfg.WorkerDiskBytes)
		}
		w := &Worker{ID: i, store: NewBlockStore(cfg.WorkerMemoryBytes, cfg.WorkerShuffleBytes, disk)}
		wid := i
		w.store.SetOnEvict(func(ev Eviction) {
			ev.Worker = wid
			c.noteEviction(ev)
		})
		w.alive.Store(true)
		c.workers = append(c.workers, w)
		for s := 0; s < cfg.Slots; s++ {
			c.wg.Add(1)
			go c.slotLoop(w)
		}
	}
	go c.wakeLoop()
	if cfg.Profile.Mode == Heartbeat {
		go c.heartbeatLoop()
	}
	return c
}

// NumWorkers returns the configured worker count.
func (c *Cluster) NumWorkers() int { return c.cfg.Workers }

// TotalSlots returns cluster-wide slot count.
func (c *Cluster) TotalSlots() int { return c.cfg.Workers * c.cfg.Slots }

// Worker returns worker i.
func (c *Cluster) Worker(i int) *Worker { return c.workers[i] }

// TasksLaunched returns the number of task bodies started (for tests
// and the task-overhead experiment).
func (c *Cluster) TasksLaunched() int64 { return c.tasksLaunched.Load() }

// Metrics returns the dispatcher counters.
func (c *Cluster) Metrics() *DispatchMetrics { return &c.metrics }

// Backlog returns the tasks currently queued or pending (not yet
// running) — the dispatcher's instantaneous queue depth.
func (c *Cluster) Backlog() int64 { return c.backlog.Load() }

// WorkerMemoryBytes returns the per-worker block-store capacity
// (0 = unbounded).
func (c *Cluster) WorkerMemoryBytes() int64 { return c.cfg.WorkerMemoryBytes }

// OnEviction registers fn to hear every block a worker's store loses
// from a tier to capacity pressure. Registration is additive — every
// subscriber hears every event, so the RDD layer's session attribution
// and the result caches' quota release coexist on one cluster — and
// lasts for the cluster's lifetime. fn runs on the evicting task's
// goroutine, outside the store lock; an event with Spilled set is not a
// loss (the block still reads back from the worker's disk tier).
func (c *Cluster) OnEviction(fn func(Eviction)) {
	c.evictMu.Lock()
	c.evictSubs = append(c.evictSubs[:len(c.evictSubs):len(c.evictSubs)], fn)
	c.evictMu.Unlock()
}

// noteEviction counts one store eviction in the dispatch metrics and
// fans it out to the subscribers.
func (c *Cluster) noteEviction(ev Eviction) {
	switch {
	case ev.FromDisk:
		c.metrics.DiskEvictions.Add(1)
	case ev.Spilled:
		c.metrics.SpilledBlocks.Add(1)
		c.metrics.BytesSpilled.Add(ev.Size)
	default:
		c.metrics.CacheEvictions.Add(1)
		c.metrics.BytesEvicted.Add(ev.Size)
	}
	c.evictMu.RLock()
	subs := c.evictSubs
	c.evictMu.RUnlock()
	for _, fn := range subs {
		fn(ev)
	}
}

// TasksPerWorker snapshots how many tasks each worker has executed.
func (c *Cluster) TasksPerWorker() []int64 {
	out := make([]int64, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.TasksRun()
	}
	return out
}

// AliveWorkers returns the IDs of live workers.
func (c *Cluster) AliveWorkers() []int {
	var out []int
	for _, w := range c.workers {
		if w.Alive() {
			out = append(out, w.ID)
		}
	}
	return out
}

func (c *Cluster) heartbeatLoop() {
	iv := c.cfg.Profile.HeartbeatInterval
	if iv <= 0 {
		iv = 30 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-c.stopTick:
			return
		case <-t.C:
			c.tickMu.Lock()
			close(c.tick)
			c.tick = make(chan struct{})
			c.tickMu.Unlock()
		}
	}
}

func (c *Cluster) waitTick() bool {
	c.tickMu.Lock()
	ch := c.tick
	c.tickMu.Unlock()
	select {
	case <-ch:
		return true
	case <-c.stopTick:
		return false
	}
}

// wakeLoop periodically wakes idle slots while work is queued or
// pending, so locality windows expire and steal opportunities are
// re-examined without a per-task timer. On an idle cluster the tick
// is a single atomic load — no mutex traffic.
func (c *Cluster) wakeLoop() {
	t := time.NewTicker(500 * time.Microsecond)
	defer t.Stop()
	for {
		select {
		case <-c.stopTick:
			return
		case <-t.C:
			if c.backlog.Load() == 0 {
				continue
			}
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
}

// Submit enqueues a task and returns a channel that will receive
// exactly one Result.
func (c *Cluster) Submit(t *Task) <-chan Result {
	t.result = make(chan Result, 2) // 2: speculation may double-complete
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		t.result <- Result{Worker: -1, Err: ErrClosed}
		return t.result
	}
	t.deadline = time.Now().Add(c.cfg.LocalityWait)
	c.backlog.Add(1)
	c.jobQueued[t.JobID]++
	c.place(t)
	c.cond.Broadcast()
	c.mu.Unlock()
	return t.result
}

// place assigns a task to a worker queue or the pending list. Caller
// holds the cluster mutex.
func (c *Cluster) place(t *Task) {
	// 1. Least-loaded preferred live worker with queue room.
	if best := c.pickWorker(t.Preferred, t.Excluded); best != nil {
		best.queue = append(best.queue, t)
		t.placedOn.Store(int32(best.ID) + 1)
		return
	}
	if len(t.Preferred) > 0 && c.anyPreferredAlive(t) {
		// Delay-scheduling-lite: every preferred worker is full or
		// busy. Hold the task; a preferred worker may free up within
		// the locality window, after which anyone takes it.
		c.metrics.PendingOverflows.Add(1)
		t.placedOn.Store(0)
		c.pending = append(c.pending, t)
		return
	}
	// 2. Unconstrained (or all preferred workers dead): least-loaded
	// live worker with room.
	if best := c.pickWorker(nil, t.Excluded); best != nil {
		best.queue = append(best.queue, t)
		t.placedOn.Store(int32(best.ID) + 1)
		return
	}
	// 3. Every eligible queue is full: spill to pending.
	c.metrics.PendingOverflows.Add(1)
	t.placedOn.Store(0)
	c.pending = append(c.pending, t)
}

// pickWorker returns the least-loaded live worker with queue room from
// the candidate set (nil = all workers), or nil. Equal-load ties
// rotate across workers — a fixed tie-break would send every task of
// a fast sequential submit burst to the same worker. Caller holds the
// cluster mutex.
func (c *Cluster) pickWorker(candidates, excluded []int) *Worker {
	var best *Worker
	consider := func(w *Worker) {
		if !w.alive.Load() || contains(excluded, w.ID) || len(w.queue) >= c.cfg.QueueDepth {
			return
		}
		if best == nil || w.load() < best.load() {
			best = w
		}
	}
	if candidates == nil {
		start := c.rr
		c.rr++
		n := len(c.workers)
		for i := 0; i < n; i++ {
			consider(c.workers[(start+i)%n])
		}
		return best
	}
	for _, id := range candidates {
		if id >= 0 && id < len(c.workers) {
			consider(c.workers[id])
		}
	}
	return best
}

// takePending removes and returns the first pending task worker w may
// run: a task preferring w wins, then any task without a live
// non-excluded preferred worker. Caller holds the cluster mutex.
func (c *Cluster) takePending(w *Worker) *Task {
	take := func(i int) *Task {
		t := c.pending[i]
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		return t
	}
	fallback := -1
	for i, t := range c.pending {
		if !c.mayRun(t, w) {
			continue
		}
		if contains(t.Preferred, w.ID) {
			return take(i)
		}
		if fallback < 0 && (len(t.Preferred) == 0 || !c.anyPreferredAlive(t)) {
			fallback = i
		}
	}
	if fallback >= 0 {
		return take(fallback)
	}
	return nil
}

// starvedLess reports whether task a's job is strictly more starved
// than task b's under weighted fair sharing: smaller running/weight
// ratio wins. Cross-multiplied so the comparison stays in integers —
// running_a/w_a < running_b/w_b ⇔ running_a·w_b < running_b·w_a.
// Caller holds the cluster mutex.
func (c *Cluster) starvedLess(a, b *Task) bool {
	return c.jobRunning[a.JobID]*b.weight() < c.jobRunning[b.JobID]*a.weight()
}

// bestAgedPending returns the index of the aged pending task w should
// run, or -1. FIFO takes the longest-waiting eligible task; fair
// sharing the eligible task whose job has the smallest running/weight
// ratio (ties go to waiting order). Caller holds the cluster mutex.
func (c *Cluster) bestAgedPending(w *Worker, now time.Time) int {
	best := -1
	for i, t := range c.pending {
		if !c.mayRun(t, w) || !now.After(t.deadline) {
			continue
		}
		if c.cfg.Policy == FIFO {
			return i
		}
		if best < 0 || c.starvedLess(t, c.pending[best]) {
			best = i
			if c.jobRunning[t.JobID] == 0 {
				break // ratio 0 is unbeatable; earliest wins ties
			}
		}
	}
	return best
}

// bestQueued mirrors bestAgedPending over w's own queue. Caller holds
// the cluster mutex.
func (c *Cluster) bestQueued(w *Worker) int {
	best := -1
	for i, t := range w.queue {
		if !c.mayRun(t, w) {
			continue
		}
		if c.cfg.Policy == FIFO {
			return i
		}
		if c.jobRunning[t.JobID] == 0 {
			return i
		}
		if best < 0 || c.starvedLess(t, w.queue[best]) {
			best = i
		}
	}
	return best
}

// mayRun reports whether worker w may execute t. An exclusion list
// that has come to cover every live worker (e.g. after a Kill of the
// one worker the task was re-queued on) is ignored rather than
// letting the task starve unrunnable in the pending list: a task that
// produces no failure event never reaches the scheduler's own
// release valve, so the dispatcher needs one too. Caller holds the
// cluster mutex.
func (c *Cluster) mayRun(t *Task, w *Worker) bool {
	if !contains(t.Excluded, w.ID) {
		return true
	}
	for _, o := range c.workers {
		if o.alive.Load() && !contains(t.Excluded, o.ID) {
			return false // somewhere eligible exists; respect the exclusion
		}
	}
	return true
}

// anyPreferredAlive reports whether a live, non-excluded preferred
// worker exists — i.e. whether waiting out the locality window could
// ever pay off. Excluded preferred workers don't count: a speculative
// backup that prefers (for cache locality) exactly the straggler it
// must avoid would otherwise stall in pending for the full wait.
func (c *Cluster) anyPreferredAlive(t *Task) bool {
	for _, id := range t.Preferred {
		if id >= 0 && id < len(c.workers) && c.workers[id].alive.Load() && !contains(t.Excluded, id) {
			return true
		}
	}
	return false
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func (c *Cluster) slotLoop(w *Worker) {
	defer c.wg.Done()
	var idleSince time.Time // zero while the slot is running tasks
	var debt time.Duration  // unslept simulated delay: the slot's, shared by jobs
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return
		}
		canSteal := !idleSince.IsZero() && time.Since(idleSince) >= c.cfg.StealDelay
		t := c.takeTask(w, canSteal)
		if t == nil {
			if idleSince.IsZero() {
				idleSince = time.Now()
			}
			c.cond.Wait()
			continue
		}
		idleSince = time.Time{}
		// The task is now this worker's, wherever it was taken from
		// (pending list, steal) — keep PlacedOn honest for the
		// scheduler's speculative-exclusion decisions.
		t.placedOn.Store(int32(w.ID) + 1)
		c.backlog.Add(-1)
		if c.jobQueued[t.JobID]--; c.jobQueued[t.JobID] <= 0 {
			delete(c.jobQueued, t.JobID)
		}
		w.busy++
		c.jobRunning[t.JobID]++
		c.mu.Unlock()
		c.runTask(w, t, &debt)
		c.mu.Lock()
		w.busy--
		if c.jobRunning[t.JobID]--; c.jobRunning[t.JobID] <= 0 {
			delete(c.jobRunning, t.JobID)
		}
	}
}

// takeTask finds the next task for an idle slot on w: its own queue
// first, then the pending list, then (after StealDelay of idleness)
// stealing from the most-loaded other worker. Returns nil when
// nothing is runnable. Caller holds the cluster mutex.
func (c *Cluster) takeTask(w *Worker, canSteal bool) *Task {
	if !w.alive.Load() {
		return nil
	}
	now := time.Now()
	// 0+1. Aged pending tasks and the worker's own queue form one
	// candidate pool. Under FIFO, aged pending tasks outrank queued
	// work outright: a task past its locality window has already
	// waited longer than anything sitting in a bounded queue. Under
	// fair sharing the two pools compete on weighted running ratios
	// (aged pending wins ties, preserving the anti-starvation order),
	// so a long job that saturates the queues into pending cannot use
	// the aged-first rule to starve a short job all over again.
	pi := c.bestAgedPending(w, now)
	qi := c.bestQueued(w)
	if pi >= 0 && (qi < 0 || c.cfg.Policy == FIFO ||
		!c.starvedLess(w.queue[qi], c.pending[pi])) {
		t := c.pending[pi]
		c.pending = append(c.pending[:pi], c.pending[pi+1:]...)
		return t
	}
	if qi >= 0 {
		t := w.queue[qi]
		w.queue = append(w.queue[:qi], w.queue[qi+1:]...)
		return t
	}
	// 2. Rest of the pending list: first a task that prefers w, else
	// any task with no (live, non-excluded) preferred worker.
	if t := c.takePending(w); t != nil {
		return t
	}
	// 3. Steal from the back of the most-loaded live worker's queue,
	// respecting unexpired locality placements.
	if !canSteal {
		return nil
	}
	var victim *Worker
	for _, v := range c.workers {
		if v == w || !v.alive.Load() || len(v.queue) == 0 {
			continue
		}
		if victim == nil || len(v.queue) > len(victim.queue) {
			victim = v
		}
	}
	if victim != nil {
		// Batch stealing: the imbalance is sustained (this slot has
		// been idle past StealDelay while the victim's queue grew), so
		// take half the victim's stealable queue in one event — the
		// first task runs now, the rest move to this worker's queue —
		// instead of paying one steal event per task.
		take := (len(victim.queue) + 1) / 2
		if room := c.cfg.QueueDepth - len(w.queue); take > room+1 {
			take = room + 1 // never overflow the stealer's own queue
		}
		var taken []*Task
		for i := len(victim.queue) - 1; i >= 0 && len(taken) < take; i-- {
			t := victim.queue[i]
			if !c.mayRun(t, w) {
				continue
			}
			if contains(t.Preferred, victim.ID) && now.Before(t.deadline) {
				continue // still inside its locality window
			}
			victim.queue = append(victim.queue[:i], victim.queue[i+1:]...)
			taken = append(taken, t)
		}
		if len(taken) > 0 {
			c.metrics.Steals.Add(1)
			c.metrics.StolenTasks.Add(int64(len(taken)))
			for _, t := range taken[1:] {
				t.placedOn.Store(int32(w.ID) + 1)
				w.queue = append(w.queue, t)
			}
			return taken[0]
		}
	}
	return nil
}

// CancelJob drops every queued or pending task tagged with jobID,
// delivering ErrJobCancelled on each dropped task's result channel, and
// returns how many tasks it dropped. Tasks already executing are not
// interrupted — the job is cut off at partition boundaries; its
// in-flight partitions complete (or fail) normally and their results
// are the caller's to discard. Safe to call repeatedly.
func (c *Cluster) CancelJob(jobID int64) int {
	if jobID == 0 {
		return 0 // 0 is the shared "untagged" bucket, never mass-cancelled
	}
	c.mu.Lock()
	if c.jobQueued[jobID] == 0 {
		// Nothing of this job is queued anywhere — the common case for
		// normally-completed jobs — so skip the queue sweep.
		c.mu.Unlock()
		return 0
	}
	var dropped []*Task
	filter := func(queue []*Task) []*Task {
		keep := queue[:0]
		for _, t := range queue {
			if t.JobID == jobID {
				dropped = append(dropped, t)
			} else {
				keep = append(keep, t)
			}
		}
		return keep
	}
	for _, w := range c.workers {
		w.queue = filter(w.queue)
	}
	c.pending = filter(c.pending)
	c.backlog.Add(-int64(len(dropped)))
	delete(c.jobQueued, jobID)
	c.metrics.CancelledTasks.Add(int64(len(dropped)))
	c.mu.Unlock()
	for _, t := range dropped {
		select {
		case t.result <- Result{Worker: -1, Err: ErrJobCancelled}:
		default:
		}
	}
	return len(dropped)
}

// RunningTasks reports how many task bodies of jobID are executing
// right now (per-job accounting, observable by tests and schedulers).
func (c *Cluster) RunningTasks(jobID int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobRunning[jobID]
}

// sleepQuantum is the smallest debt a slot sleeps off: a timer sleep
// takes about a millisecond however short the request.
const sleepQuantum = time.Millisecond

// charge adds a simulated delay d to a slot's debt and sleeps the debt
// off once it reaches sleepQuantum, subtracting the time actually
// slept, so overshoot is credit and N charges of d cost N·d in total.
func charge(debt *time.Duration, d time.Duration) {
	*debt += d
	if *debt >= sleepQuantum {
		start := time.Now()
		time.Sleep(*debt)
		*debt -= time.Since(start)
	}
}

// runTask runs t on a slot of w whose unslept delay is *debt.
func (c *Cluster) runTask(w *Worker, t *Task, debt *time.Duration) {
	// Scheduling overheads.
	if c.cfg.Profile.Mode == Heartbeat {
		if !c.waitTick() {
			// Closed while waiting for a tick: the submitter still gets
			// its one Result.
			t.result <- Result{Worker: -1, Err: ErrClosed}
			return
		}
	}
	launch := c.cfg.Profile.TaskLaunchOverhead
	charge(debt, launch)
	c.tasksLaunched.Add(1)
	w.tasksRun.Add(1)
	t.runningOn.Store(int32(w.ID) + 1)
	if len(t.Preferred) > 0 {
		if contains(t.Preferred, w.ID) {
			c.metrics.LocalityHits.Add(1)
		} else {
			c.metrics.LocalityMisses.Add(1)
		}
	}
	start := time.Now()
	value, err := runSafely(t.Fn, w)
	elapsed := time.Since(start)
	delay := time.Duration(w.slowBy.Load())
	if delay < 0 {
		// negative means "multiply elapsed": straggler factor
		delay = time.Duration(float64(elapsed) * (float64(-delay)/1000 - 1))
	}
	charge(debt, delay)
	if !w.Alive() {
		// The worker died while the task ran: its output (local
		// state) is gone, so the task did not really complete.
		err = fmt.Errorf("%w (worker %d died mid-task)", ErrWorkerLost, w.ID)
		value = nil
	}
	select {
	case t.result <- Result{Worker: w.ID, Value: value, Err: err, SlotTime: launch + elapsed + delay}:
	default:
	}
}

func runSafely(fn func(*Worker) (any, error), w *Worker) (value any, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("cluster: task panic: %w", e)
			} else {
				err = fmt.Errorf("cluster: task panic: %v", r)
			}
		}
	}()
	return fn(w)
}

// Kill marks a worker dead, wiping its block store and failing its
// in-flight tasks. Queued tasks are re-placed on live workers.
func (c *Cluster) Kill(id int) {
	w := c.workers[id]
	c.mu.Lock()
	if !w.alive.CompareAndSwap(true, false) {
		c.mu.Unlock()
		return
	}
	w.store.Wipe()
	orphans := w.queue
	w.queue = nil
	for _, t := range orphans {
		c.place(t)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Restart brings a killed worker back with an empty store.
func (c *Cluster) Restart(id int) {
	w := c.workers[id]
	c.mu.Lock()
	w.store.Wipe()
	w.alive.Store(true)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// SetStragglerFactor makes worker id take factor× as long per task
// (factor 1 clears).
func (c *Cluster) SetStragglerFactor(id int, factor float64) {
	if factor <= 1 {
		c.workers[id].slowBy.Store(0)
		return
	}
	c.workers[id].slowBy.Store(-int64(factor * 1000))
}

// SetStragglerDelay adds a fixed delay to every task on worker id.
func (c *Cluster) SetStragglerDelay(id int, d time.Duration) {
	c.workers[id].slowBy.Store(int64(d))
}

// Closed reports whether Close has run.
func (c *Cluster) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Close shuts the cluster down. Tasks no slot has taken yet receive
// ErrClosed — every Submit delivers exactly one Result, so a scheduler
// blocked on a task queued at this instant wakes instead of hanging;
// tasks already executing finish normally. Closing is idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	abandoned := c.pending
	c.pending = nil
	for _, w := range c.workers {
		abandoned = append(abandoned, w.queue...)
		w.queue = nil
	}
	c.backlog.Store(0)
	clear(c.jobQueued)
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, t := range abandoned {
		t.result <- Result{Worker: -1, Err: ErrClosed}
	}
	close(c.stopTick)
	// Spill files are never durable: remove the whole temp root when
	// the cluster created it, else just the per-worker dirs it wrote
	// under the caller-provided root.
	if c.ownsSpillRoot {
		os.RemoveAll(c.spillRoot)
	} else if c.spillRoot != "" {
		for _, w := range c.workers {
			if d := w.store.Disk(); d != nil {
				os.RemoveAll(d.Dir())
			}
		}
	}
}
