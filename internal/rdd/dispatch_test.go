package rdd

import (
	"sync"
	"testing"
	"time"

	"shark/internal/shuffle"
)

// TestTaskDistributionNoWorkerDominates: the ISSUE acceptance bar —
// with 4 workers and 64 tasks, no single worker runs more than 50%,
// and max/min stays within 3×.
func TestTaskDistributionNoWorkerDominates(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	var mu sync.Mutex
	perWorker := map[int]int{}
	r := ctx.Parallelize(ints(640), 64).Map(func(v any) any {
		time.Sleep(200 * time.Microsecond)
		return v
	})
	_, err := ctx.Scheduler().RunJob(r, nil, func(tc *TaskContext, part int, it Iter) (any, error) {
		mu.Lock()
		perWorker[tc.Worker.ID]++
		mu.Unlock()
		Drain(it)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	maxN, minN := 0, 64
	for w := 0; w < 4; w++ {
		n := perWorker[w]
		if n > maxN {
			maxN = n
		}
		if n < minN {
			minN = n
		}
	}
	if maxN > 32 {
		t.Errorf("one worker ran %d/64 tasks (>50%%): %v", maxN, perWorker)
	}
	if minN == 0 || maxN > 3*minN {
		t.Errorf("imbalance beyond 3x: %v", perWorker)
	}
}

// TestSpeculationPicksDistinctWorker: a speculative backup must land
// on a different worker than the straggling original attempt.
func TestSpeculationPicksDistinctWorker(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{
		Speculation:           true,
		SpeculationInterval:   3 * time.Millisecond,
		SpeculationMultiplier: 1.5,
	})
	ctx.Cluster.SetStragglerDelay(0, 120*time.Millisecond)
	var mu sync.Mutex
	attempts := map[int]map[int]bool{} // part → workers that ran it
	r := ctx.Parallelize(ints(64), 16).Map(func(v any) any {
		time.Sleep(time.Millisecond)
		return v
	})
	_, err := ctx.Scheduler().RunJob(r, nil, func(tc *TaskContext, part int, it Iter) (any, error) {
		mu.Lock()
		if attempts[part] == nil {
			attempts[part] = map[int]bool{}
		}
		attempts[part][tc.Worker.ID] = true
		mu.Unlock()
		Drain(it)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Scheduler().Metrics().SpeculativeTasks.Load() == 0 {
		t.Fatal("expected speculative tasks for the straggler worker")
	}
	// Attempts record at task-body time, before the straggler's
	// injected result delay, so both attempts are visible here.
	mu.Lock()
	defer mu.Unlock()
	distinct := false
	for part, workers := range attempts {
		if len(workers) >= 2 {
			distinct = true
		}
		_ = part
	}
	if !distinct {
		t.Error("no speculated partition ran on two distinct workers")
	}
}

// TestCacheRecoveryObservableInMetrics: killing a worker holding
// cached partitions must surface as CacheRecomputes when the next job
// rebuilds them from lineage — and cached reads as CacheHits.
func TestCacheRecoveryObservableInMetrics(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	src := ctx.Parallelize(ints(800), 8).Cache()
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Count(); err != nil { // warm pass: all hits
		t.Fatal(err)
	}
	m := ctx.Scheduler().Metrics()
	if m.CacheHits.Load() == 0 {
		t.Fatal("no cache hits recorded on warm pass")
	}
	if m.CacheRecomputes.Load() != 0 {
		t.Fatalf("recomputes before any failure: %d", m.CacheRecomputes.Load())
	}
	ctx.Cluster.Kill(1)
	ctx.NotifyWorkerLost(1)
	n, err := src.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 800 {
		t.Errorf("count after failure = %d", n)
	}
	if m.CacheRecomputes.Load() == 0 {
		t.Error("lost cached partitions recomputed without metric")
	}
}

// TestStaleCacheEpochNotReported: cache locations must not survive the
// worker state they describe. A kill+restart cycle (without any
// NotifyWorkerLost call) wipes the store; locations are read off the
// live stores, so no task is routed to copies that no longer exist.
func TestStaleCacheEpochNotReported(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	src := ctx.Parallelize(ints(400), 8).Cache()
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	// Worker 1 held some partitions; bounce it without notifying.
	ctx.Cluster.Kill(1)
	ctx.Cluster.Restart(1)
	for p := 0; p < 8; p++ {
		for _, w := range src.PreferredLocations(p) {
			if w == 1 {
				t.Errorf("partition %d still claims wiped worker 1 as cached", p)
			}
		}
	}
	n, err := src.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Errorf("count after bounce = %d", n)
	}
}

// TestKillMidJobRecoversWithRecomputeMetrics: the end-to-end
// acceptance path — kill a worker while a job over cached data runs;
// results stay correct and the recovery is visible in metrics.
func TestKillMidJobRecoversWithRecomputeMetrics(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	var data []any
	for i := 0; i < 1000; i++ {
		data = append(data, shuffle.Pair{K: int64(i % 50), V: int64(1)})
	}
	src := ctx.Parallelize(data, 16).Cache()
	if _, err := src.Count(); err != nil { // materialize the cache
		t.Fatal(err)
	}
	slow := src.Map(func(v any) any {
		time.Sleep(300 * time.Microsecond)
		return v
	})
	agg := slow.ReduceByKey(func(a, b any) any { return a.(int64) + b.(int64) }, 4)
	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		ctx.Cluster.Kill(2)
		ctx.NotifyWorkerLost(2)
		close(done)
	}()
	got, err := agg.CollectCtx(t.Context())
	<-done
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range got {
		total += v.(shuffle.Pair).V.(int64)
	}
	if total != 1000 || len(got) != 50 {
		t.Errorf("total=%d keys=%d", total, len(got))
	}
	m := ctx.Scheduler().Metrics()
	if m.CacheRecomputes.Load() == 0 {
		t.Error("expected cache recomputes after killing a cache-holding worker")
	}
}
