package rdd

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Job is the scheduler's first-class unit of multi-tenant work: every
// RunJobCtx / MaterializeShuffleCtx executes under exactly one Job, all
// cluster tasks it launches carry the Job's ID (the fair-sharing and
// cancellation handle), and the work it does is metered both on the
// Job and on the session that started it.
//
// Sessions create one Job per SQL statement via Context.StartJob and
// attach it to a context.Context with WithJob; scheduler entry points
// that find no Job in their context run under a fresh anonymous one,
// so legacy callers still get job identity (and with it fair sharing)
// for free.
type Job struct {
	// ID is unique within a Context and tags every cluster.Task the
	// job launches.
	ID int64
	// Session is the tag of the session that started the job ("" for
	// anonymous jobs).
	Session string
	// Weight is the job's fair-share weight (set at start, immutable;
	// always >= 1). Every cluster task the job launches carries it:
	// under weighted fair sharing backlogged jobs hold slots in
	// proportion to their weights.
	Weight int

	tasks            atomic.Int64
	taskTime         atomic.Int64 // ns of completed tasks' slot time
	cacheHits        atomic.Int64
	remoteCacheHits  atomic.Int64
	diskHits         atomic.Int64
	cacheRecomputes  atomic.Int64
	cancelledMidPart atomic.Int64
	broadcastConv    atomic.Int64
	skewSplits       atomic.Int64
	adaptiveCoalesce atomic.Int64

	agg *sessionAgg
	// gate is the admission gate the job was admitted under (nil when
	// the session caps nothing); FinishJob hands the slot to the
	// gate's next waiter. Held directly so a racing ReleaseSession
	// (which forgets the registry entry) cannot strand waiters.
	gate *admission

	// mu guards shuffles: the shuffle dependencies whose map stages
	// this job executed. Once the statement that owns the job retains
	// no live RDD over them, their pinned map outputs can be
	// unregistered cluster-wide (ReleaseJobShuffles).
	mu       sync.Mutex
	shuffles []*ShuffleDep
}

// JobStats is a point-in-time snapshot of one job's activity.
type JobStats struct {
	// Tasks counts task launches (including retries and speculative
	// copies).
	Tasks int64
	// TaskTime sums the slot time (cluster.Result.SlotTime) of
	// completed task attempts.
	TaskTime time.Duration
	// CacheHits / RemoteCacheHits / DiskHits / CacheRecomputes
	// attribute the cache traffic of the job's tasks.
	CacheHits, RemoteCacheHits, DiskHits, CacheRecomputes int64
	// CancelledMidPartition counts task bodies that aborted inside a
	// partition when the job's context was cancelled (cooperative
	// mid-partition cancellation).
	CancelledMidPartition int64
	// BroadcastConversions / SkewSplits / AdaptiveCoalesces count the
	// adaptive-execution (PDE) decisions made while planning the job's
	// shuffles from observed map-output statistics.
	BroadcastConversions, SkewSplits, AdaptiveCoalesces int64
}

// Stats snapshots the job's counters.
func (j *Job) Stats() JobStats {
	return JobStats{
		Tasks:                 j.tasks.Load(),
		TaskTime:              time.Duration(j.taskTime.Load()),
		CacheHits:             j.cacheHits.Load(),
		RemoteCacheHits:       j.remoteCacheHits.Load(),
		DiskHits:              j.diskHits.Load(),
		CacheRecomputes:       j.cacheRecomputes.Load(),
		CancelledMidPartition: j.cancelledMidPart.Load(),
		BroadcastConversions:  j.broadcastConv.Load(),
		SkewSplits:            j.skewSplits.Load(),
		AdaptiveCoalesces:     j.adaptiveCoalesce.Load(),
	}
}

// noteShuffle records that this job executed (some of) dep's map
// stage, making the job the candidate owner of its pinned outputs.
func (j *Job) noteShuffle(dep *ShuffleDep) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, d := range j.shuffles {
		if d == dep {
			return
		}
	}
	j.shuffles = append(j.shuffles, dep)
}

// takeShuffles drains the job's recorded shuffle dependencies.
func (j *Job) takeShuffles() []*ShuffleDep {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.shuffles
	j.shuffles = nil
	return out
}

// The note helpers are nil-safe: task-side code calls them through
// TaskContext.Job, which is nil for work running outside any job.

func (j *Job) noteLaunch() {
	if j == nil {
		return
	}
	j.tasks.Add(1)
	j.agg.tasks.Add(1)
}

func (j *Job) noteTaskDone(d time.Duration) {
	if j == nil {
		return
	}
	j.taskTime.Add(int64(d))
	j.agg.taskTime.Add(int64(d))
}

func (j *Job) noteCacheHit() {
	if j == nil {
		return
	}
	j.cacheHits.Add(1)
	j.agg.cacheHits.Add(1)
}

func (j *Job) noteRemoteCacheHit() {
	if j == nil {
		return
	}
	j.remoteCacheHits.Add(1)
	j.agg.remoteCacheHits.Add(1)
}

func (j *Job) noteDiskHit() {
	if j == nil {
		return
	}
	j.diskHits.Add(1)
	j.agg.diskHits.Add(1)
}

func (j *Job) noteRecompute() {
	if j == nil {
		return
	}
	j.cacheRecomputes.Add(1)
	j.agg.cacheRecomputes.Add(1)
}

func (j *Job) noteCancelledMidPartition() {
	if j == nil {
		return
	}
	j.cancelledMidPart.Add(1)
	j.agg.cancelledMidPart.Add(1)
}

// The adaptive-execution note methods are exported: the exec engine
// records each PDE plan decision on the statement's job (master-side,
// during compilation) so it surfaces in JobStats and Session.Stats().
// Like the task-side helpers they are nil-safe for job-less work.

// NoteBroadcastConversion records a runtime shuffle-to-broadcast join
// conversion made from observed map-output sizes.
func (j *Job) NoteBroadcastConversion() {
	if j == nil {
		return
	}
	j.broadcastConv.Add(1)
	j.agg.broadcastConv.Add(1)
}

// NoteSkewSplits records n hot reduce buckets split across tasks.
func (j *Job) NoteSkewSplits(n int64) {
	if j == nil || n <= 0 {
		return
	}
	j.skewSplits.Add(n)
	j.agg.skewSplits.Add(n)
}

// NoteAdaptiveCoalesce records one reduce stage whose parallelism was
// chosen at runtime from observed map-output sizes.
func (j *Job) NoteAdaptiveCoalesce() {
	if j == nil {
		return
	}
	j.adaptiveCoalesce.Add(1)
	j.agg.adaptiveCoalesce.Add(1)
}

// sessionAgg accumulates every job's counters for one session tag,
// plus the evictions attributed to RDDs the session materialized.
type sessionAgg struct {
	jobs             atomic.Int64
	tasks            atomic.Int64
	taskTime         atomic.Int64
	cacheHits        atomic.Int64
	remoteCacheHits  atomic.Int64
	diskHits         atomic.Int64
	cacheRecomputes  atomic.Int64
	evictions        atomic.Int64
	bytesEvicted     atomic.Int64
	admissionWaits   atomic.Int64
	admittedJobs     atomic.Int64
	cancelledMidPart atomic.Int64
	broadcastConv    atomic.Int64
	skewSplits       atomic.Int64
	adaptiveCoalesce atomic.Int64
}

// SessionStats is a point-in-time snapshot of everything one session
// has asked the cluster to do.
type SessionStats struct {
	// Jobs counts statements (scheduler jobs) the session started.
	Jobs int64
	// Tasks counts task launches across those jobs; TaskTime sums
	// completed tasks' slot times.
	Tasks    int64
	TaskTime time.Duration
	// Cache traffic of the session's tasks (DiskHits: partitions read
	// back from a worker's local spill tier).
	CacheHits, RemoteCacheHits, DiskHits, CacheRecomputes int64
	// Evictions / BytesEvicted count cache partitions this session
	// materialized that capacity pressure took away for good — dropped
	// from a worker's memory without a disk copy, or dropped by its
	// disk budget — whichever session's put displaced them. A spill is
	// not counted (the partition still reads back from disk). Fed by
	// the cluster's eviction events.
	Evictions    int64
	BytesEvicted int64
	// AdmissionWaits counts jobs that had to queue for admission
	// because the session was at its MaxConcurrentJobs cap;
	// AdmittedJobs counts jobs that passed admission control (with or
	// without waiting). A job cancelled while queued for admission
	// counts a wait but never an admitted job.
	AdmissionWaits int64
	AdmittedJobs   int64
	// CancelledMidPartition counts task bodies the session's cancelled
	// statements aborted inside a partition (cooperative cancellation)
	// instead of running to the partition boundary.
	CancelledMidPartition int64
	// BroadcastConversions counts shuffle joins the session's
	// statements converted to broadcast joins at runtime after PDE
	// statistics contradicted the static estimate; SkewSplits counts
	// hot reduce buckets split across tasks; AdaptiveCoalesces counts
	// reduce stages whose parallelism was picked from observed sizes.
	BroadcastConversions, SkewSplits, AdaptiveCoalesces int64
}

func (a *sessionAgg) snapshot() SessionStats {
	return SessionStats{
		Jobs:                  a.jobs.Load(),
		Tasks:                 a.tasks.Load(),
		TaskTime:              time.Duration(a.taskTime.Load()),
		CacheHits:             a.cacheHits.Load(),
		RemoteCacheHits:       a.remoteCacheHits.Load(),
		DiskHits:              a.diskHits.Load(),
		CacheRecomputes:       a.cacheRecomputes.Load(),
		Evictions:             a.evictions.Load(),
		BytesEvicted:          a.bytesEvicted.Load(),
		AdmissionWaits:        a.admissionWaits.Load(),
		AdmittedJobs:          a.admittedJobs.Load(),
		CancelledMidPartition: a.cancelledMidPart.Load(),
		BroadcastConversions:  a.broadcastConv.Load(),
		SkewSplits:            a.skewSplits.Load(),
		AdaptiveCoalesces:     a.adaptiveCoalesce.Load(),
	}
}

// nextJobID allocates job IDs process-wide, not per Context: the
// cluster's fair-share accounting and CancelJob are keyed by bare
// JobID, and several Contexts may share one cluster (the shuffle-mode
// ablation does), so per-Context counters would collide and let one
// context cancel another's job.
var nextJobID atomic.Int64

// jobRegistry tracks active jobs, per-session aggregates, per-session
// admission gates, and which session materialized each cached RDD (for
// eviction attribution).
type jobRegistry struct {
	mu         sync.Mutex
	active     map[int64]*Job
	sessions   map[string]*sessionAgg
	owners     map[int]*sessionAgg   // rddID → materializing session
	admissions map[string]*admission // session → concurrency gate
}

// admission serializes one session's jobs past its MaxConcurrentJobs
// cap: excess jobs park on the FIFO waiter list and are granted slots
// strictly in arrival order as running jobs finish.
type admission struct {
	limit    int
	inflight int
	waiters  []chan struct{} // FIFO; a closed channel is a granted slot
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{
		active:     make(map[int64]*Job),
		sessions:   make(map[string]*sessionAgg),
		owners:     make(map[int]*sessionAgg),
		admissions: make(map[string]*admission),
	}
}

// admit blocks until the session is below its concurrency cap (FIFO
// within the session) or gctx is cancelled, returning the gate the
// slot was taken from. A cancelled wait releases the queue position
// without the job ever existing — no tasks are dispatched, nothing to
// clean up.
func (r *jobRegistry) admit(gctx context.Context, session string, limit int, agg *sessionAgg) (*admission, error) {
	r.mu.Lock()
	a := r.admissions[session]
	if a == nil {
		a = &admission{}
		r.admissions[session] = a
	}
	a.limit = limit
	if a.inflight < a.limit && len(a.waiters) == 0 {
		a.inflight++
		agg.admittedJobs.Add(1)
		r.mu.Unlock()
		return a, nil
	}
	ch := make(chan struct{})
	a.waiters = append(a.waiters, ch)
	agg.admissionWaits.Add(1)
	r.mu.Unlock()
	select {
	case <-ch:
		agg.admittedJobs.Add(1)
		return a, nil
	case <-gctx.Done():
		r.mu.Lock()
		for i, w := range a.waiters {
			if w == ch {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				r.mu.Unlock()
				return nil, fmt.Errorf("rdd: session %q job cancelled awaiting admission: %w",
					session, gctx.Err())
			}
		}
		// The slot was granted concurrently with the cancellation:
		// hand it straight to the next waiter instead of leaking it.
		r.releaseLocked(a)
		r.mu.Unlock()
		return nil, fmt.Errorf("rdd: session %q job cancelled awaiting admission: %w",
			session, gctx.Err())
	}
}

// releaseLocked returns one admission slot and wakes waiters in FIFO
// order. Caller holds r.mu.
func (r *jobRegistry) releaseLocked(a *admission) {
	a.inflight--
	for a.inflight < a.limit && len(a.waiters) > 0 {
		ch := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.inflight++
		close(ch)
	}
}

func (r *jobRegistry) aggFor(session string) *sessionAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.sessions[session]
	if !ok {
		a = &sessionAgg{}
		r.sessions[session] = a
	}
	return a
}

// JobConfig shapes one job's scheduling behaviour.
type JobConfig struct {
	// Weight is the fair-share weight the job's cluster tasks carry
	// (<=0 reads as 1): under weighted fair sharing backlogged jobs
	// hold slots in proportion to their weights.
	Weight int
	// MaxConcurrentJobs caps how many of the session's jobs may be
	// in flight at once (0 = unlimited). A job past the cap waits in
	// the session's FIFO admission queue before it exists at all —
	// no tasks are dispatched while waiting.
	MaxConcurrentJobs int
}

// StartJob opens a job attributed to session (may be "" for anonymous
// work) with default config. Pair with FinishJob.
func (c *Context) StartJob(session string) *Job {
	j, _ := c.StartJobCfg(context.Background(), session, JobConfig{})
	return j
}

// StartJobCfg opens a job attributed to session under a scheduling
// config, blocking for per-session admission when MaxConcurrentJobs is
// set. It fails only when gctx is cancelled while the job waits for
// admission — in that case no job was created and no tasks were ever
// dispatched. Pair a returned job with FinishJob.
func (c *Context) StartJobCfg(gctx context.Context, session string, cfg JobConfig) (*Job, error) {
	r := c.jobs
	agg := r.aggFor(session)
	var gate *admission
	if cfg.MaxConcurrentJobs > 0 {
		var err error
		if gate, err = r.admit(gctx, session, cfg.MaxConcurrentJobs, agg); err != nil {
			return nil, err
		}
	}
	w := cfg.Weight
	if w < 1 {
		w = 1
	}
	j := &Job{ID: nextJobID.Add(1), Session: session, Weight: w, agg: agg, gate: gate}
	j.agg.jobs.Add(1)
	r.mu.Lock()
	r.active[j.ID] = j
	r.mu.Unlock()
	return j, nil
}

// FinishJob closes a job: it leaves the active set, any of its
// still-queued cluster tasks are dropped (normal completions leave
// none; error and cancellation paths may), and its admission slot — if
// the session caps concurrent jobs — passes to the session's next
// waiting job.
func (c *Context) FinishJob(j *Job) {
	if j == nil {
		return
	}
	c.jobs.mu.Lock()
	delete(c.jobs.active, j.ID)
	if j.gate != nil {
		c.jobs.releaseLocked(j.gate)
		j.gate = nil // release exactly once
	}
	c.jobs.mu.Unlock()
	c.Cluster.CancelJob(j.ID)
}

// ActiveJobs lists the IDs of jobs currently running, ascending.
func (c *Context) ActiveJobs() []int64 {
	c.jobs.mu.Lock()
	out := make([]int64, 0, len(c.jobs.active))
	for id := range c.jobs.active {
		out = append(out, id)
	}
	c.jobs.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// SessionStats snapshots the aggregate activity of one session tag.
// Reading is side-effect free: a tag with no recorded activity (never
// seen, or freed by ReleaseSession) reads as zero without re-creating
// registry state.
func (c *Context) SessionStats(session string) SessionStats {
	r := c.jobs
	r.mu.Lock()
	agg := r.sessions[session]
	r.mu.Unlock()
	if agg == nil {
		return SessionStats{}
	}
	return agg.snapshot()
}

// ReleaseSession forgets a closed session's aggregate and its RDD
// ownership entries, so a long-lived cluster serving many short-lived
// sessions does not accumulate per-session state forever. Stats for
// the tag read as zero afterwards.
func (c *Context) ReleaseSession(session string) {
	r := c.jobs
	r.mu.Lock()
	agg := r.sessions[session]
	delete(r.sessions, session)
	delete(r.admissions, session)
	if agg != nil {
		for id, a := range r.owners {
			if a == agg {
				delete(r.owners, id)
			}
		}
	}
	r.mu.Unlock()
}

// noteRDDOwner attributes rddID's cached partitions to the session of
// the job that first materialized them (first writer wins).
func (c *Context) noteRDDOwner(rddID int, j *Job) {
	if j == nil {
		return
	}
	r := c.jobs
	r.mu.Lock()
	if _, ok := r.owners[rddID]; !ok {
		r.owners[rddID] = j.agg
	}
	r.mu.Unlock()
}

// noteEviction credits a capacity eviction of one of rddID's cached
// partitions to the owning session, if known.
func (c *Context) noteEviction(rddID int, sizeBytes int64) {
	r := c.jobs
	r.mu.Lock()
	agg := r.owners[rddID]
	r.mu.Unlock()
	if agg != nil {
		agg.evictions.Add(1)
		agg.bytesEvicted.Add(sizeBytes)
	}
}

// forgetRDDOwner drops the attribution entry (Uncache / table drop).
func (c *Context) forgetRDDOwner(rddID int) {
	c.jobs.mu.Lock()
	delete(c.jobs.owners, rddID)
	c.jobs.mu.Unlock()
}

// jobCtxKey carries a *Job through a context.Context.
type jobCtxKey struct{}

// WithJob attaches a job to ctx; scheduler entry points executed under
// the returned context run as that job.
func WithJob(ctx context.Context, j *Job) context.Context {
	return context.WithValue(ctx, jobCtxKey{}, j)
}

// JobFrom extracts the job attached by WithJob, or nil.
func JobFrom(ctx context.Context) *Job {
	if ctx == nil {
		return nil
	}
	j, _ := ctx.Value(jobCtxKey{}).(*Job)
	return j
}
