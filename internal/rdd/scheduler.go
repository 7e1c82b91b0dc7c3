package rdd

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shark/internal/cluster"
	"shark/internal/obs"
	"shark/internal/pde"
	"shark/internal/shuffle"
)

// Scheduler is the DAG scheduler: it cuts RDD lineage graphs into
// stages at shuffle boundaries, runs stages as task sets on the
// cluster, recovers from task failures and lost map outputs via
// lineage, and optionally speculates on stragglers.
type Scheduler struct {
	ctx  *Context
	opts Options

	metrics Metrics

	// taskObs holds an optional func(time.Duration) fed every
	// completed task attempt's service time (the per-task latency
	// histogram on shark-server). Atomic so observers can attach to a
	// running scheduler without a lock on the hot path.
	taskObs atomic.Value
}

// SetTaskObserver installs fn to receive the slot time
// (cluster.Result.SlotTime) of every successfully completed task
// attempt. A nil fn detaches the observer.
func (s *Scheduler) SetTaskObserver(fn func(time.Duration)) {
	s.taskObs.Store(fn)
}

func (s *Scheduler) observeTask(d time.Duration) {
	if fn, ok := s.taskObs.Load().(func(time.Duration)); ok && fn != nil {
		fn(d)
	}
}

// Metrics counts scheduler activity (observable by tests and the
// fault-tolerance experiments).
type Metrics struct {
	TasksLaunched    atomic.Int64
	TaskRetries      atomic.Int64
	FetchFailures    atomic.Int64
	MapStageReruns   atomic.Int64 // map tasks re-executed to regenerate lost output
	SpeculativeTasks atomic.Int64
	StagesRun        atomic.Int64
	CacheHits        atomic.Int64 // cached partitions served from local worker memory
	CacheRecomputes  atomic.Int64 // previously-cached partitions rebuilt from lineage
	RemoteCacheHits  atomic.Int64 // cached partitions fetched from another live worker
	DiskHits         atomic.Int64 // cached partitions read back from the local disk tier
	// CancelledMidPartition counts task bodies that aborted inside a
	// partition when their job's context was cancelled, instead of
	// running to the partition boundary (cooperative cancellation).
	CancelledMidPartition atomic.Int64
	// BroadcastConversions counts shuffle joins converted to broadcast
	// (map-side) joins at runtime, after observed map-output sizes
	// contradicted the static estimate (PDE join switching, §3.1.1).
	BroadcastConversions atomic.Int64
	// SkewSplits counts hot reduce buckets split across multiple tasks
	// because their observed bytes exceeded the skew factor.
	SkewSplits atomic.Int64
	// AdaptiveCoalesces counts reduce stages whose parallelism was
	// chosen at runtime from observed map-output sizes (§3.1.2).
	AdaptiveCoalesces atomic.Int64
}

// NewScheduler creates a scheduler bound to ctx.
func NewScheduler(ctx *Context, opts Options) *Scheduler {
	return &Scheduler{ctx: ctx, opts: opts}
}

// MetricsSnapshot returns current counters.
func (s *Scheduler) Metrics() *Metrics { return &s.metrics }

// ResultFunc consumes one partition's iterator inside a result task
// and produces the task's value.
type ResultFunc func(tc *TaskContext, part int, it Iter) (any, error)

// RunJob executes fn over the listed partitions of r (all partitions
// when parts is nil), returning one value per partition in order.
func (s *Scheduler) RunJob(r *RDD, parts []int, fn ResultFunc) ([]any, error) {
	return s.RunJobCtx(context.Background(), r, parts, fn)
}

// RunJobCtx is RunJob under a context: the job attached by WithJob
// owns the launched tasks (an anonymous job is opened when none is
// attached), and cancelling gctx aborts the job — queued tasks are
// dropped, running tasks finish their partition, and the error wraps
// context.Canceled.
func (s *Scheduler) RunJobCtx(gctx context.Context, r *RDD, parts []int, fn ResultFunc) ([]any, error) {
	job, owned := s.jobFor(gctx)
	if owned {
		defer s.ctx.FinishJob(job)
	}
	if parts == nil {
		parts = make([]int, r.NumPartitions())
		for i := range parts {
			parts[i] = i
		}
	}
	if len(parts) == 0 {
		return nil, nil
	}
	// Make sure every ancestor shuffle is materialized.
	if err := s.ensureParents(gctx, job, r); err != nil {
		return nil, err
	}
	results := make([]any, len(parts))
	idxOf := make(map[int]int, len(parts))
	for i, p := range parts {
		idxOf[p] = i
	}
	err := s.runTaskSet(gctx, job, "stage:result", parts, func(part int) *cluster.Task {
		return &cluster.Task{
			JobID:     job.ID,
			Weight:    job.Weight,
			Preferred: r.PreferredLocations(part),
			Fn: func(w *cluster.Worker) (any, error) {
				tc := &TaskContext{Worker: w, Ctx: s.ctx, Part: part, Job: job, Gctx: gctx}
				return fn(tc, part, r.Iterator(tc, part))
			},
		}
	}, func(part int, value any) {
		results[idxOf[part]] = value
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// jobFor resolves the job a scheduler entry point runs under: the one
// attached to gctx, or a fresh anonymous job (owned=true — the caller
// must finish it).
func (s *Scheduler) jobFor(gctx context.Context) (job *Job, owned bool) {
	if j := JobFrom(gctx); j != nil {
		return j, false
	}
	return s.ctx.StartJob(""), true
}

// MaterializeShuffleCtx runs (only) the map stage of dep — the partial
// DAG execution primitive: callers inspect the returned statistics and
// then decide how to consume the shuffle. Job attribution and
// cancellation are RunJobCtx's.
func (s *Scheduler) MaterializeShuffleCtx(gctx context.Context, dep *ShuffleDep) (*pde.StageStats, error) {
	job, owned := s.jobFor(gctx)
	if owned {
		defer s.ctx.FinishJob(job)
	}
	if err := s.ensureShuffle(gctx, job, dep); err != nil {
		return nil, err
	}
	return s.ctx.tracker.Stats(dep.ID), nil
}

// ensureParents materializes every ancestor shuffle of r, parallelizing
// independent branches.
func (s *Scheduler) ensureParents(gctx context.Context, job *Job, r *RDD) error {
	deps := directShuffleDeps(r)
	return s.ensureAll(gctx, job, deps)
}

func (s *Scheduler) ensureAll(gctx context.Context, job *Job, deps []*ShuffleDep) error {
	if len(deps) == 0 {
		return nil
	}
	if len(deps) == 1 {
		return s.ensureShuffle(gctx, job, deps[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(deps))
	for i, d := range deps {
		wg.Add(1)
		go func(i int, d *ShuffleDep) {
			defer wg.Done()
			errs[i] = s.ensureShuffle(gctx, job, d)
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ensureShuffle materializes dep's map outputs (running parent stages
// first), skipping map partitions whose outputs already exist.
func (s *Scheduler) ensureShuffle(gctx context.Context, job *Job, dep *ShuffleDep) error {
	if s.ctx.tracker.Complete(dep.ID) {
		return nil
	}
	if err := s.ensureParents(gctx, job, dep.Parent); err != nil {
		return err
	}
	// Idempotent for live shuffles; re-creates the tracker state (all
	// parts missing) and the recovery-registry entry for a dependency
	// a statement's shuffle cleanup released while an exotic caller
	// still held the RDD — the stage re-materializes in full instead
	// of panicking on unknown state, and a later fetch failure can
	// still find the dep to rebuild it.
	s.ctx.tracker.RegisterShuffle(dep.ID, dep.Partitioner.NumPartitions(), dep.Parent.NumPartitions())
	s.ctx.deps.Store(dep.ID, dep)
	missing := s.ctx.tracker.MissingParts(dep.ID)
	if len(missing) == 0 {
		return nil
	}
	s.metrics.StagesRun.Add(1)
	// This job is executing (at least part of) the map stage: it
	// becomes the candidate owner of the shuffle's pinned outputs, so
	// the statement that owns the job can unregister them once no live
	// RDD depends on the shuffle.
	job.noteShuffle(dep)
	return s.runTaskSet(gctx, job, fmt.Sprintf("stage:map(shuffle %d)", dep.ID), missing, func(part int) *cluster.Task {
		return &cluster.Task{
			JobID:     job.ID,
			Weight:    job.Weight,
			Preferred: dep.Parent.PreferredLocations(part),
			Fn: func(w *cluster.Worker) (any, error) {
				return s.runMapTask(gctx, job, dep, part, w)
			},
		}
	}, func(part int, value any) {
		out := value.(mapTaskOutput)
		s.ctx.tracker.AddMapOutput(dep.ID, part, out.worker, out.report)
	})
}

type mapTaskOutput struct {
	worker int
	report pde.MapReport
}

// runMapTask computes one partition of the map side of dep and
// materializes its buckets, applying map-side combining and gathering
// PDE statistics. The parent iterator polls gctx (via the task
// context), so a cancelled job aborts mid-partition instead of
// finishing the scan.
func (s *Scheduler) runMapTask(gctx context.Context, job *Job, dep *ShuffleDep, part int, w *cluster.Worker) (any, error) {
	tc := &TaskContext{Worker: w, Ctx: s.ctx, Part: part, Job: job, Gctx: gctx}
	writer := s.ctx.Shuffle.NewWriter(dep.ID, part, dep.Partitioner.NumPartitions(), w)
	collector := dep.Stats.NewTaskCollector()
	it := dep.Parent.Iterator(tc, part)

	if dep.Combiner != nil {
		nb := dep.Partitioner.NumPartitions()
		combined := make([]map[any]any, nb)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			p := v.(shuffle.Pair)
			b := dep.Partitioner.PartitionFor(p.K)
			m := combined[b]
			if m == nil {
				m = make(map[any]any)
				combined[b] = m
			}
			if prev, ok := m[p.K]; ok {
				m[p.K] = dep.Combiner(prev, p.V)
			} else {
				m[p.K] = p.V
			}
		}
		for b, m := range combined {
			for k, v := range m {
				writer.Write(b, shuffle.Pair{K: k, V: v})
				collector.Observe(k)
			}
		}
	} else {
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			p := v.(shuffle.Pair)
			writer.Write(dep.Partitioner.PartitionFor(p.K), p)
			collector.Observe(p.K)
		}
	}
	stats, err := writer.Commit()
	if err != nil {
		return nil, err
	}
	report := collector.BuildReport(part, stats.Bytes, stats.Records)
	return mapTaskOutput{worker: w.ID, report: report}, nil
}

// runTaskSet launches one task per partition and blocks until every
// partition has succeeded, handling retries, lost workers, fetch
// failures (by regenerating parent shuffle outputs), speculation, and
// context cancellation (queued tasks dropped via the job ID, running
// tasks left to finish their partition).
func (s *Scheduler) runTaskSet(gctx context.Context, job *Job, stage string, parts []int, mkTask func(part int) *cluster.Task, onSuccess func(part int, value any)) error {
	tr := obs.FromContext(gctx)
	sp := tr.StartSpan(stage)
	defer sp.End()
	type event struct {
		part    int
		started time.Time
		res     cluster.Result
	}
	// Sized so every possible attempt (retries + a speculative copy
	// per partition) can deliver without blocking: early returns on
	// error or cancellation must never strand a sender goroutine.
	events := make(chan event, len(parts)*(s.opts.MaxTaskRetries+2))
	running := make(map[int]time.Time, len(parts)) // part → earliest attempt start
	inflight := make(map[int]*cluster.Task, len(parts))
	attempts := make(map[int]int, len(parts))
	speculated := make(map[int]bool, len(parts))
	done := make(map[int]bool, len(parts))
	var durations []time.Duration

	launch := func(part int, excluded []int) {
		t := mkTask(part)
		t.Excluded = excluded
		start := time.Now()
		if _, ok := running[part]; !ok {
			running[part] = start
		}
		inflight[part] = t
		s.metrics.TasksLaunched.Add(1)
		job.noteLaunch()
		tr.AddTask()
		sp.AddTasks(1)
		ch := s.ctx.Cluster.Submit(t)
		go func() {
			r := <-ch
			events <- event{part: part, started: start, res: r}
		}()
	}

	// cancelled abandons the task set: queued tasks of the job are
	// dropped cluster-wide (freeing their slots for other jobs),
	// running tasks complete their partition into the buffered events
	// channel, and the caller gets an error wrapping gctx's cause.
	cancelled := func() error {
		s.ctx.Cluster.CancelJob(job.ID)
		cause := gctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		return fmt.Errorf("rdd: job %d cancelled: %w", job.ID, cause)
	}
	if gctx.Err() != nil {
		return cancelled()
	}

	for _, p := range parts {
		launch(p, nil)
	}

	var specTicker *time.Ticker
	var specC <-chan time.Time
	if s.opts.Speculation {
		specTicker = time.NewTicker(s.opts.SpeculationInterval)
		specC = specTicker.C
		defer specTicker.Stop()
	}

	remaining := len(parts)
	excludedByPart := make(map[int][]int)
	for remaining > 0 {
		// The select picks randomly among ready cases; check
		// cancellation first so a flood of ready events cannot delay
		// the abort.
		if gctx.Err() != nil {
			return cancelled()
		}
		select {
		case <-gctx.Done():
			return cancelled()
		case ev := <-events:
			if done[ev.part] {
				continue // late duplicate (speculation)
			}
			if ev.res.Err == nil {
				done[ev.part] = true
				delete(running, ev.part)
				// Speculation compares since-submit times; the job
				// and the observer get the task's time on its slot.
				durations = append(durations, time.Since(ev.started))
				job.noteTaskDone(ev.res.SlotTime)
				s.observeTask(ev.res.SlotTime)
				onSuccess(ev.part, ev.res.Value)
				remaining--
				continue
			}
			// Failure handling.
			if errors.Is(ev.res.Err, cluster.ErrClosed) {
				// No retry can succeed on a closed cluster: fail now
				// instead of spending the retry budget resubmitting.
				return fmt.Errorf("rdd: job %d: %w", job.ID, ev.res.Err)
			}
			if errors.Is(ev.res.Err, cluster.ErrJobCancelled) {
				// Another task set of the same job (a parallel stage)
				// hit the cancellation first.
				return cancelled()
			}
			if errors.Is(ev.res.Err, context.Canceled) || errors.Is(ev.res.Err, context.DeadlineExceeded) {
				// A task body aborted itself mid-partition when it saw
				// the job's context cancelled (cooperative
				// cancellation) — this is the abort landing, not a task
				// failure to retry.
				return cancelled()
			}
			if errors.Is(ev.res.Err, cluster.ErrWorkerLost) {
				s.ctx.NotifyWorkerLost(ev.res.Worker)
			}
			var fe *shuffle.FetchError
			if errors.As(ev.res.Err, &fe) {
				s.metrics.FetchFailures.Add(1)
				if err := s.recoverFetchFailure(gctx, job, fe); err != nil {
					return err
				}
				// Retry the reduce task without penalizing it.
				launch(ev.part, excludedByPart[ev.part])
				continue
			}
			attempts[ev.part]++
			s.metrics.TaskRetries.Add(1)
			if attempts[ev.part] >= s.opts.MaxTaskRetries {
				return fmt.Errorf("rdd: task for partition %d failed %d times: %w",
					ev.part, attempts[ev.part], ev.res.Err)
			}
			if ev.res.Worker >= 0 {
				excludedByPart[ev.part] = append(excludedByPart[ev.part], ev.res.Worker)
			}
			// Never exclude the whole cluster: a deterministic failure
			// must exhaust the retry budget, not starve in the queue.
			if s.coversAllAlive(excludedByPart[ev.part]) {
				excludedByPart[ev.part] = nil
			}
			launch(ev.part, excludedByPart[ev.part])

		case <-specC:
			if len(durations)*4 < len(parts)*3 { // wait for 75% completion
				continue
			}
			med := medianDuration(durations)
			if med <= 0 {
				med = time.Millisecond
			}
			for part, started := range running {
				if speculated[part] || done[part] {
					continue
				}
				if time.Since(started) > time.Duration(float64(med)*s.opts.SpeculationMultiplier) {
					speculated[part] = true
					s.metrics.SpeculativeTasks.Add(1)
					// A backup copy on the straggler's own node would
					// straggle identically: exclude the worker running
					// the original — or, if the original is still
					// queued, its home worker — so placement picks a
					// distinct one.
					excl := excludedByPart[part]
					if orig := inflight[part]; orig != nil {
						wid := orig.RunningOn()
						if wid < 0 {
							wid = orig.PlacedOn()
						}
						if wid >= 0 && !slices.Contains(excl, wid) {
							excl = append(append([]int(nil), excl...), wid)
						}
					}
					if s.coversAllAlive(excl) {
						excl = excludedByPart[part]
					}
					launch(part, excl)
				}
			}
		}
	}
	return nil
}

// recoverFetchFailure regenerates the lost map outputs named by fe by
// re-running the corresponding map tasks (lineage recovery, §2.3).
func (s *Scheduler) recoverFetchFailure(gctx context.Context, job *Job, fe *shuffle.FetchError) error {
	s.ctx.tracker.MarkLost(fe.ShuffleID, fe.MapParts)
	v, ok := s.ctx.deps.Load(fe.ShuffleID)
	if !ok {
		return fmt.Errorf("rdd: cannot recover unknown shuffle %d", fe.ShuffleID)
	}
	s.metrics.MapStageReruns.Add(int64(len(fe.MapParts)))
	return s.ensureShuffle(gctx, job, v.(*ShuffleDep))
}

// ReleaseJobShuffles unregisters the map outputs of every shuffle the
// job materialized, except shuffles whose IDs appear in keep. The
// pinned buckets are deleted from every worker's block store (spilled
// copies included), the map-output tracker forgets the shuffle, and
// the recovery registry entry is dropped — this is how a statement's
// shuffle outputs stop outliving the statement in worker memory. The
// caller is responsible for putting every shuffle still reachable from
// a live RDD (a cached table's lineage, a TableRDD handed to the user)
// into keep; LineageShuffleIDs computes exactly that set.
func (c *Context) ReleaseJobShuffles(j *Job, keep map[int]bool) {
	if j == nil {
		return
	}
	for _, dep := range j.takeShuffles() {
		if keep[dep.ID] {
			continue
		}
		c.tracker.Unregister(dep.ID)
		c.Shuffle.Unregister(dep.ID)
		c.deps.Delete(dep.ID)
	}
}

// LineageShuffleIDs returns the IDs of every shuffle dependency
// reachable from r's lineage (crossing shuffle boundaries), the set of
// shuffles a live RDD may still need to read or regenerate.
func LineageShuffleIDs(r *RDD) []int {
	var out []int
	visited := make(map[int]bool)
	var walk func(*RDD)
	walk = func(cur *RDD) {
		if cur == nil || visited[cur.ID] {
			return
		}
		visited[cur.ID] = true
		for _, d := range cur.deps {
			if sd, ok := d.(*ShuffleDep); ok {
				out = append(out, sd.ID)
			}
			walk(d.ParentRDD())
		}
	}
	walk(r)
	return out
}

// coversAllAlive reports whether the exclusion list blocks every live
// worker. Dead workers in the list don't count — excluding them is a
// no-op for placement, so they must not trip the "don't exclude the
// whole cluster" release valve.
func (s *Scheduler) coversAllAlive(excl []int) bool {
	for _, w := range s.ctx.Cluster.AliveWorkers() {
		if !slices.Contains(excl, w) {
			return false
		}
	}
	return true
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), ds...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp[len(cp)/2]
}

// directShuffleDeps finds the shuffle dependencies reachable from r
// without crossing another shuffle boundary.
func directShuffleDeps(r *RDD) []*ShuffleDep {
	var out []*ShuffleDep
	visited := make(map[int]bool)
	var walk func(*RDD)
	walk = func(cur *RDD) {
		if visited[cur.ID] {
			return
		}
		visited[cur.ID] = true
		for _, d := range cur.deps {
			if sd, ok := d.(*ShuffleDep); ok {
				out = append(out, sd)
				continue
			}
			walk(d.ParentRDD())
		}
	}
	walk(r)
	return out
}
