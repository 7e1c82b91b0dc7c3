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
// Task dispatch is locality- and load-aware, with one queue per job in
// arrival order (Spark's TaskSetManager). Submit gives each task a home
// worker: the least-loaded live preferred worker, else the least-loaded
// live worker, equal loads rotating. A freed slot runs a task homed on
// its worker; it runs a task away from home only when no job has a
// local one and the task's job has kept a slot waiting for
// localityWait (delay scheduling, after Zaharia et al.). The home
// rotation is what makes "many small tasks" actually balance (§7.1)
// instead of one slot draining the queue.
//
// Tasks carry a JobID and a Weight. Under the default FairShare policy
// a freed slot runs the task of the job with the smallest
// (running+1)/weight ratio cluster-wide (weighted fair sharing, after
// the Spark fair scheduler's pool weights), so concurrent sessions
// sharing the cluster each make progress in proportion to their
// priority instead of queueing behind the largest job's task wave;
// CancelJob drops a job's queued tasks without touching other jobs.
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
	"slices"
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
	// FairShare (default) picks the eligible task whose job has the
	// smallest (running+1)/weight ratio cluster-wide — the ratio the
	// job would have after taking the slot — breaking ties in
	// submission order. With a single active job this degenerates to
	// FIFO; with a short interactive job queued behind a long scan's
	// task wave it is what keeps the short job's latency bounded by
	// task duration instead of queue depth, and backlogged jobs hold
	// slots in proportion to their weights.
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
	return c
}

// localityWait is how long a job keeps idle slots waiting before they
// may run its tasks away from their home workers (delay scheduling; see
// take). It lets a straggling or overloaded worker's tasks move while a
// wave of short tasks stays where its data is: at 2ms the ml_iter
// benchmark's locality hit ratio falls from 0.98 to about 0.94.
const localityWait = 3 * time.Millisecond

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
	// FairShare a freed slot picks the task whose job has the smallest
	// (running+1)/weight ratio, so backlogged jobs hold slots in
	// proportion to their weights. Every task of one job must carry the
	// same weight.
	Weight int

	result chan Result
	// seq orders tasks by submission (guarded by the cluster mutex).
	seq int64
	// runningOn holds workerID+1 while the task body runs (0 = not
	// started); schedulers use it to place speculative copies away
	// from the original attempt.
	runningOn atomic.Int32
	// home holds workerID+1 of the task's home worker (0 = none was
	// live and eligible at submit).
	home atomic.Int32
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

// PlacedOn reports the task's home worker, or -1 if it has none.
// Together with RunningOn it tells a scheduler where a straggling task
// is likely stuck even before its body starts executing.
func (t *Task) PlacedOn() int { return int(t.home.Load()) - 1 }

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

	// busy (running task bodies) and homed (queued tasks whose home
	// this is) are guarded by the cluster mutex.
	busy, homed int

	tasksRun atomic.Int64
}

// Store returns the worker's local block store.
func (w *Worker) Store() *BlockStore { return w.store }

// Alive reports whether the worker is up.
func (w *Worker) Alive() bool { return w.alive.Load() }

// TasksRun returns how many task bodies this worker has executed.
func (w *Worker) TasksRun() int64 { return w.tasksRun.Load() }

// load is the worker's instantaneous load for placement decisions
// (running + homed tasks). Caller holds the cluster mutex.
func (w *Worker) load() int { return w.busy + w.homed }

// DispatchMetrics counts dispatcher activity, observable by tests and
// the scheduling experiments.
type DispatchMetrics struct {
	// Steals counts tasks a slot took away from their live home worker
	// (delay scheduling's fallback after localityWait).
	Steals atomic.Int64
	// CancelledTasks counts queued tasks dropped by CancelJob before
	// any worker ran them.
	CancelledTasks atomic.Int64
	// LocalityHits / LocalityMisses count preferred-location tasks
	// that did / did not run on a preferred worker.
	LocalityHits   atomic.Int64
	LocalityMisses atomic.Int64
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

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*jobQueue // jobs with queued tasks, in arrival order
	seq    int64       // last Task.seq handed out
	rr     int         // rotates equal-load placement ties across workers
	idle   int         // live slots that found nothing to run
	closed bool
	// jobRunning counts in-flight task bodies per JobID (the fair-
	// sharing signal). Entries are deleted at zero.
	jobRunning map[int64]int

	wg sync.WaitGroup

	tick     chan struct{} // heartbeat broadcast (closed+replaced each tick)
	tickMu   sync.Mutex
	stopTick chan struct{}

	tasksLaunched atomic.Int64
	// backlog counts queued tasks (not yet taken by a slot), letting
	// wakeLoop skip the mutex entirely on an idle cluster.
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

// Backlog returns the tasks currently queued (not yet running) — the
// dispatcher's instantaneous queue depth.
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

// wakeLoop periodically wakes idle slots while work is queued, so a
// job's locality wait is re-examined without a per-task timer. On an
// idle cluster the tick is a single atomic load — no mutex traffic.
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

// jobQueue is one job's queued tasks in submission order (Spark's
// TaskSetManager) and when its locality wait started, zero while it
// keeps no slot waiting (see take). Guarded by the cluster mutex.
type jobQueue struct {
	id    int64
	tasks []*Task
	since time.Time
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
	c.seq++
	t.seq = c.seq
	home := c.pickWorker(t.Preferred, t.Excluded)
	if home == nil {
		home = c.pickWorker(nil, t.Excluded)
	}
	var h int32
	if home != nil {
		home.homed++
		h = int32(home.ID) + 1
	}
	t.home.Store(h)
	j := c.queueOf(t.JobID)
	j.tasks = append(j.tasks, t)
	c.backlog.Add(1)
	c.cond.Broadcast()
	c.mu.Unlock()
	return t.result
}

// queueOf returns jobID's queue, appending a new one if the job has
// nothing queued. Caller holds the cluster mutex.
func (c *Cluster) queueOf(jobID int64) *jobQueue {
	for i := len(c.jobs) - 1; i >= 0; i-- {
		if c.jobs[i].id == jobID {
			return c.jobs[i]
		}
	}
	j := &jobQueue{id: jobID}
	c.jobs = append(c.jobs, j)
	return j
}

// unhome takes a task that leaves the queue off its home worker's load.
// Caller holds the cluster mutex.
func (c *Cluster) unhome(t *Task) {
	if h := t.PlacedOn(); h >= 0 {
		c.workers[h].homed--
	}
}

// pickWorker returns the least-loaded live, non-excluded worker from
// the candidate set (nil = all workers), or nil. Equal-load ties
// rotate across workers — a fixed tie-break would send every task of
// a fast sequential submit burst to the same worker. Caller holds the
// cluster mutex.
func (c *Cluster) pickWorker(candidates, excluded []int) *Worker {
	var best *Worker
	consider := func(w *Worker) {
		if !w.alive.Load() || contains(excluded, w.ID) {
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

// local reports whether t counts as local on w: its home is w, or it
// has no live home. Caller holds the cluster mutex.
func (c *Cluster) local(t *Task, w *Worker) bool {
	h := t.PlacedOn()
	return h == w.ID || h < 0 || !c.workers[h].alive.Load()
}

// before reports whether a freed slot should prefer task a to task b:
// under FairShare the task whose job has the smaller (running+1)/weight
// ratio — cross-multiplied to stay in integers — and otherwise, or on a
// tie, the older one. Caller holds the cluster mutex.
func (c *Cluster) before(a, b *Task) bool {
	if c.cfg.Policy == FairShare {
		ra := (c.jobRunning[a.JobID] + 1) * b.weight()
		rb := (c.jobRunning[b.JobID] + 1) * a.weight()
		if ra != rb {
			return ra < rb
		}
	}
	return a.seq < b.seq
}

// mayRun reports whether worker w may execute t. An exclusion list
// that has come to cover every live worker (e.g. after a Kill of the
// one worker the task could run on) is ignored rather than letting
// the task starve unrunnable in its queue: a task that produces no
// failure event never reaches the scheduler's own release valve, so
// the dispatcher needs one too. Caller holds the cluster mutex.
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
	var debt time.Duration // unslept simulated delay: the slot's, shared by jobs
	idle := false          // counted in c.idle
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return
		}
		if idle {
			c.idle--
			idle = false
		}
		t := c.take(w)
		if t == nil {
			if idle = w.alive.Load(); idle {
				c.idle++
			}
			c.cond.Wait()
			continue
		}
		c.backlog.Add(-1)
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

// take removes and returns the task an idle slot on w runs next, or
// nil. Each job offers its oldest task that may run on w and is local
// to it. Only when no job has a local task does each job offer its
// oldest task, and only once it has kept a slot waiting for
// localityWait. The slot takes the offer that comes first by before.
//
// A job's wait starts when a slot finds only its away tasks, and ends
// at a launch of the job that finds no other live slot idle. It is not
// restarted by local launches: a busy worker launching its own tasks
// one by one would otherwise hold a wave's tail while idle slots wait
// forever (Spark fixed the same starvation in SPARK-18886). Caller
// holds the cluster mutex.
func (c *Cluster) take(w *Worker) *Task {
	if !w.alive.Load() || len(c.jobs) == 0 {
		return nil
	}
	var near, far *jobQueue // the best local and away offers' jobs
	ni, fi := -1, -1
	now := time.Now()
	for _, j := range c.jobs {
		li, ai := -1, -1
		for i, t := range j.tasks {
			if !c.mayRun(t, w) {
				continue
			}
			if c.local(t, w) {
				li = i
				break
			}
			if ai < 0 {
				ai = i
			}
		}
		if li >= 0 {
			if near == nil || c.before(j.tasks[li], near.tasks[ni]) {
				near, ni = j, li
			}
			continue
		}
		if ai < 0 {
			continue
		}
		if j.since.IsZero() {
			j.since = now
		}
		if near == nil && now.Sub(j.since) >= localityWait && (far == nil || c.before(j.tasks[ai], far.tasks[fi])) {
			far, fi = j, ai
		}
	}
	j, i := near, ni
	if j == nil {
		if far == nil {
			return nil
		}
		j, i = far, fi
		c.metrics.Steals.Add(1)
	}
	if c.idle == 0 {
		j.since = time.Time{}
	}
	t := j.tasks[i]
	// Close the gap by shifting the older tasks up one: the oldest are
	// taken most, so this copies little.
	copy(j.tasks[1:i+1], j.tasks[:i])
	j.tasks[0] = nil
	j.tasks = j.tasks[1:]
	if len(j.tasks) == 0 {
		c.jobs = slices.DeleteFunc(c.jobs, func(q *jobQueue) bool { return q == j })
	}
	c.unhome(t)
	return t
}

// CancelJob drops every queued task tagged with jobID, delivering
// ErrJobCancelled on each dropped task's result channel, and returns
// how many tasks it dropped. Tasks already executing are not
// interrupted — the job is cut off at partition boundaries; its
// in-flight partitions complete (or fail) normally and their results
// are the caller's to discard. Safe to call repeatedly.
func (c *Cluster) CancelJob(jobID int64) int {
	if jobID == 0 {
		return 0 // 0 is the shared "untagged" bucket, never mass-cancelled
	}
	c.mu.Lock()
	var dropped []*Task
	if i := slices.IndexFunc(c.jobs, func(j *jobQueue) bool { return j.id == jobID }); i >= 0 {
		dropped = c.jobs[i].tasks
		c.jobs = slices.Delete(c.jobs, i, i+1)
	}
	for _, t := range dropped {
		c.unhome(t)
	}
	c.backlog.Add(-int64(len(dropped)))
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
// in-flight tasks. Queued tasks homed on it count as local on every
// live worker from now on.
func (c *Cluster) Kill(id int) {
	w := c.workers[id]
	c.mu.Lock()
	if !w.alive.CompareAndSwap(true, false) {
		c.mu.Unlock()
		return
	}
	w.store.Wipe()
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
	var abandoned []*Task
	for _, j := range c.jobs {
		abandoned = append(abandoned, j.tasks...)
	}
	c.jobs = nil
	c.backlog.Store(0)
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
