package rdd

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"shark/internal/cluster"
	"shark/internal/shuffle"
)

// slowRDD builds an RDD whose every partition sleeps d before yielding
// its single element.
func slowRDD(ctx *Context, parts int, d time.Duration, started *atomic.Int64) *RDD {
	return ctx.Source("slow", parts, func(tc *TaskContext, part int) Iter {
		if started != nil {
			started.Add(1)
		}
		time.Sleep(d)
		return SliceIter([]any{int64(part)})
	}, nil)
}

// TestRunJobCtxCancelMidJob: cancelling the context mid-job returns an
// error wrapping context.Canceled, drops the job's queued tasks, and
// leaves the context fully usable for the next job.
func TestRunJobCtxCancelMidJob(t *testing.T) {
	ctx := newTestCtx(t, 2, Options{}) // 2 workers × 2 slots = 4 slots
	var started atomic.Int64
	r := slowRDD(ctx, 32, 5*time.Millisecond, &started)

	gctx, cancel := context.WithCancel(context.Background())
	go func() {
		for started.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	_, err := r.CollectCtx(gctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Far fewer than all 32 partitions should have run: the queued
	// remainder was dropped, not executed.
	if n := started.Load(); n >= 32 {
		t.Errorf("all %d tasks ran despite cancellation", n)
	}
	// Dropped tasks must have been cancelled on the cluster side.
	if ct := ctx.Cluster.Metrics().CancelledTasks.Load(); ct == 0 {
		t.Error("no queued tasks were dropped by the cancellation")
	}
	// The same context answers the next job correctly.
	got, err := ctx.Parallelize(ints(100), 8).Count()
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("post-cancel count = %d", got)
	}
}

// TestCancelAbortsMidPartition: a single-partition task body that
// would run for seconds must abort cooperatively within a bounded
// wall-clock once its context is cancelled — the iterator polls the
// context every CancelCheckRows rows instead of finishing the
// partition — and the context stays usable.
func TestCancelAbortsMidPartition(t *testing.T) {
	ctx := newTestCtx(t, 2, Options{})
	const rows = 40000
	const perRow = 100 * time.Microsecond // full partition ≈ 4s
	slow := ctx.Source("slow-rows", 1, func(tc *TaskContext, part int) Iter {
		i := 0
		return FuncIter(func() (any, bool) {
			if i >= rows {
				return nil, false
			}
			i++
			time.Sleep(perRow)
			return int64(i), true
		})
	}, nil)

	gctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := slow.CountCtx(gctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The partition takes ~4s to finish; a cooperative abort must land
	// orders of magnitude earlier. 1s leaves slack for slow CI.
	if elapsed > time.Second {
		t.Errorf("cancellation took %v; task ran its partition to completion?", elapsed)
	}
	// The master returns the moment the cancel lands; the running task
	// body aborts at its next row checkpoint shortly after. Wait for
	// the abort to land rather than racing it.
	abortDeadline := time.Now().Add(2 * time.Second)
	for ctx.Scheduler().Metrics().CancelledMidPartition.Load() == 0 {
		if time.Now().After(abortDeadline) {
			t.Fatal("CancelledMidPartition stayed 0; the task body never aborted mid-partition")
		}
		time.Sleep(time.Millisecond)
	}
	// The context still runs fresh jobs to completion.
	if got, err := ctx.Parallelize(ints(50), 4).Count(); err != nil || got != 50 {
		t.Errorf("post-abort count = (%d, %v)", got, err)
	}
}

// TestStartJobCfgAdmissionFIFO: a session capped at one concurrent job
// admits jobs strictly in arrival order, counts waits, and a cancelled
// waiter is released without ever producing a job.
func TestStartJobCfgAdmissionFIFO(t *testing.T) {
	ctx := newTestCtx(t, 1, Options{})
	cfg := JobConfig{MaxConcurrentJobs: 1}
	first, err := ctx.StartJobCfg(context.Background(), "s", cfg)
	if err != nil {
		t.Fatal(err)
	}

	type admitted struct {
		j   *Job
		err error
	}
	second := make(chan admitted, 1)
	go func() {
		j, err := ctx.StartJobCfg(context.Background(), "s", cfg)
		second <- admitted{j, err}
	}()
	// The second job must wait while the first is in flight.
	select {
	case a := <-second:
		t.Fatalf("second job admitted while first in flight: %+v", a)
	case <-time.After(30 * time.Millisecond):
	}

	// A third, cancellable waiter joins the queue and is cancelled:
	// it must return promptly, with no job created.
	gctx, cancel := context.WithCancel(context.Background())
	third := make(chan admitted, 1)
	go func() {
		j, err := ctx.StartJobCfg(gctx, "s", cfg)
		third <- admitted{j, err}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case a := <-third:
		if a.j != nil || !errors.Is(a.err, context.Canceled) {
			t.Fatalf("cancelled waiter = (%v, %v), want (nil, context.Canceled)", a.j, a.err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter never returned")
	}

	// Finishing the first job admits the second (FIFO head).
	ctx.FinishJob(first)
	select {
	case a := <-second:
		if a.err != nil {
			t.Fatal(a.err)
		}
		ctx.FinishJob(a.j)
	case <-time.After(time.Second):
		t.Fatal("second job never admitted after first finished")
	}

	st := ctx.SessionStats("s")
	if st.AdmittedJobs != 2 {
		t.Errorf("AdmittedJobs = %d, want 2 (cancelled waiter must not count)", st.AdmittedJobs)
	}
	if st.AdmissionWaits != 2 {
		t.Errorf("AdmissionWaits = %d, want 2", st.AdmissionWaits)
	}
}

// TestCancelBeforeStart: a context cancelled before the job starts
// fails fast without launching anything.
func TestCancelBeforeStart(t *testing.T) {
	ctx := newTestCtx(t, 2, Options{})
	gctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int64
	_, err := slowRDD(ctx, 4, 0, &started).CollectCtx(gctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() != 0 {
		t.Errorf("%d tasks started under a pre-cancelled context", started.Load())
	}
}

// TestCancelShuffleLeavesBookkeepingConsistent: cancelling a shuffle
// materialization mid-map-stage must leave the tracker consistent —
// the same dependency can be materialized to completion afterwards and
// read back correctly.
func TestCancelShuffleLeavesBookkeepingConsistent(t *testing.T) {
	ctx := newTestCtx(t, 2, Options{})
	pairs := make([]any, 64)
	for i := range pairs {
		pairs[i] = shuffle.Pair{K: int64(i % 8), V: int64(1)}
	}
	var started atomic.Int64
	base := ctx.Parallelize(pairs, 16).MapPartitions(func(part int, in Iter) Iter {
		started.Add(1)
		time.Sleep(3 * time.Millisecond)
		return in
	})
	dep := ctx.NewShuffleDep(base, shuffle.HashPartitioner{N: 8},
		func(a, b any) any { return a.(int64) + b.(int64) })

	gctx, cancel := context.WithCancel(context.Background())
	go func() {
		for started.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	if _, err := ctx.Scheduler().MaterializeShuffleCtx(gctx, dep); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Finish the same shuffle and read it: every key must have the
	// exact count, i.e. no duplicated or lost map outputs.
	if _, err := ctx.Scheduler().MaterializeShuffle(dep); err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Shuffled(dep, nil, ReadCombine).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("keys = %d, want 8", len(out))
	}
	for _, v := range out {
		p := v.(shuffle.Pair)
		if p.V.(int64) != 8 {
			t.Errorf("key %v count = %v, want 8", p.K, p.V)
		}
	}
}

// TestJobAndSessionStats: jobs run under WithJob are metered on the
// job and aggregated per session, including cache traffic.
func TestJobAndSessionStats(t *testing.T) {
	ctx := newTestCtx(t, 2, Options{})
	r := ctx.Parallelize(ints(100), 8).Cache()

	jobA := ctx.StartJob("alice")
	if _, err := r.CountCtx(WithJob(context.Background(), jobA)); err != nil {
		t.Fatal(err)
	}
	ctx.FinishJob(jobA)

	jobB := ctx.StartJob("bob")
	if _, err := r.CountCtx(WithJob(context.Background(), jobB)); err != nil {
		t.Fatal(err)
	}
	ctx.FinishJob(jobB)

	if s := jobA.Stats(); s.Tasks != 8 || s.TaskTime <= 0 {
		t.Errorf("jobA stats = %+v, want 8 tasks with time", s)
	}
	// Job B re-scanned the cached RDD: its tasks hit the cache.
	if s := jobB.Stats(); s.CacheHits == 0 {
		t.Errorf("jobB stats = %+v, want cache hits", s)
	}
	alice := ctx.SessionStats("alice")
	bob := ctx.SessionStats("bob")
	if alice.Jobs != 1 || alice.Tasks != 8 {
		t.Errorf("alice session stats = %+v", alice)
	}
	if bob.CacheHits == 0 {
		t.Errorf("bob session stats = %+v, want cache hits", bob)
	}
	if alice.CacheHits != 0 {
		t.Errorf("alice charged %d cache hits from bob's job", alice.CacheHits)
	}
}

// TestJobIDsUniqueAcrossContexts: two Contexts sharing one cluster
// must never allocate colliding job IDs — the cluster's fair-share
// accounting and CancelJob are keyed by bare JobID, so a collision
// would let one context cancel the other's queued work.
func TestJobIDsUniqueAcrossContexts(t *testing.T) {
	ctxA := newTestCtx(t, 2, Options{})
	ctxB := NewContext(ctxA.Cluster, ctxA.Shuffle, Options{})
	a := ctxA.StartJob("a")
	b := ctxB.StartJob("b")
	defer ctxA.FinishJob(a)
	defer ctxB.FinishJob(b)
	if a.ID == b.ID {
		t.Fatalf("job ID collision across contexts: %d", a.ID)
	}
}

// TestActiveJobsRegistry: jobs appear in ActiveJobs between start and
// finish, and anonymous scheduler entry points clean up after
// themselves.
func TestActiveJobsRegistry(t *testing.T) {
	ctx := newTestCtx(t, 2, Options{})
	j := ctx.StartJob("s")
	if got := ctx.ActiveJobs(); len(got) != 1 || got[0] != j.ID {
		t.Errorf("ActiveJobs = %v, want [%d]", got, j.ID)
	}
	ctx.FinishJob(j)
	if got := ctx.ActiveJobs(); len(got) != 0 {
		t.Errorf("ActiveJobs after finish = %v", got)
	}
	// An anonymous job (no WithJob) must not leak into the registry.
	if _, err := ctx.Parallelize(ints(10), 2).Count(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.ActiveJobs(); len(got) != 0 {
		t.Errorf("ActiveJobs after anonymous run = %v", got)
	}
}

// TestClosedClusterFailsFast: a task set submitted to a closed cluster
// fails with cluster.ErrClosed at the first result instead of spending
// its retry budget resubmitting.
func TestClosedClusterFailsFast(t *testing.T) {
	ctx := newTestCtx(t, 2, Options{})
	src := ctx.Parallelize(ints(100), 4)
	ctx.Cluster.Close()
	if _, err := src.Count(); !errors.Is(err, cluster.ErrClosed) {
		t.Fatalf("Count on a closed cluster: %v, want cluster.ErrClosed", err)
	}
	if n := ctx.Scheduler().Metrics().TaskRetries.Load(); n != 0 {
		t.Errorf("%d task retries against a closed cluster", n)
	}
}
