package rdd

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"shark/internal/cluster"
	"shark/internal/pde"
	"shark/internal/shuffle"
)

func newTestCtx(t *testing.T, workers int, opts Options) *Context {
	t.Helper()
	c := cluster.New(cluster.Config{Workers: workers, Slots: 2})
	t.Cleanup(c.Close)
	svc := shuffle.NewService(c, shuffle.Memory, t.TempDir())
	return NewContext(c, svc, opts)
}

func ints(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestParallelizeCollect(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	r := ctx.Parallelize(ints(100), 8)
	if r.NumPartitions() != 8 {
		t.Fatalf("parts = %d", r.NumPartitions())
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v.(int64) != int64(i) {
			t.Fatalf("got[%d] = %v", i, v)
		}
	}
}

func TestMapFilterFlatMapChain(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	r := ctx.Parallelize(ints(1000), 8).
		Map(func(v any) any { return v.(int64) * 2 }).
		Filter(func(v any) bool { return v.(int64)%4 == 0 }).
		FlatMap(func(v any) []any { return []any{v, v} })
	n, err := r.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 { // 500 pass filter, doubled
		t.Errorf("count = %d", n)
	}
}

func TestReduceAction(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	r := ctx.Parallelize(ints(101), 7)
	got, err := r.Reduce(func(a, b any) any { return a.(int64) + b.(int64) })
	if err != nil {
		t.Fatal(err)
	}
	if got.(int64) != 5050 {
		t.Errorf("sum = %v", got)
	}
	empty := ctx.Parallelize(nil, 3)
	if _, err := empty.Reduce(func(a, b any) any { return a }); err == nil {
		t.Error("reduce of empty must error")
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	var data []any
	for i := 0; i < 1000; i++ {
		data = append(data, shuffle.Pair{K: fmt.Sprintf("k%d", i%10), V: int64(1)})
	}
	r := ctx.Parallelize(data, 8).
		ReduceByKey(func(a, b any) any { return a.(int64) + b.(int64) }, 4)
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("groups = %d", len(got))
	}
	for _, v := range got {
		p := v.(shuffle.Pair)
		if p.V.(int64) != 100 {
			t.Errorf("key %v count %v", p.K, p.V)
		}
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	data := []any{
		shuffle.Pair{K: int64(1), V: "a"},
		shuffle.Pair{K: int64(1), V: "b"},
		shuffle.Pair{K: int64(2), V: "c"},
	}
	got, err := ctx.Parallelize(data, 2).GroupByKey(3).Collect()
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int64]int{}
	for _, v := range got {
		p := v.(shuffle.Pair)
		sizes[p.K.(int64)] = len(p.V.([]any))
	}
	if sizes[1] != 2 || sizes[2] != 1 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestUnion(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	a := ctx.Parallelize(ints(10), 2)
	b := ctx.Parallelize(ints(5), 3)
	n, err := a.Union(b).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Errorf("count = %d", n)
	}
}

func TestZipPartitions(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	a := ctx.Parallelize(ints(8), 4)
	b := ctx.Parallelize(ints(8), 4)
	zipped := a.ZipPartitions(b, func(part int, x, y Iter) Iter {
		xs, ys := Drain(x), Drain(y)
		var out []any
		for i := range xs {
			out = append(out, xs[i].(int64)+ys[i].(int64))
		}
		return SliceIter(out)
	})
	got, err := zipped.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range got {
		sum += v.(int64)
	}
	if sum != 2*28 {
		t.Errorf("sum = %d", sum)
	}
}

func TestTake(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	r := ctx.Parallelize(ints(100), 10)
	got, err := r.Take(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 || got[6].(int64) != 6 {
		t.Errorf("take = %v", got)
	}
}

func TestCacheAvoidsRecompute(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	var computes atomic.Int64
	src := ctx.Source("counting", 4, func(tc *TaskContext, part int) Iter {
		computes.Add(1)
		return SliceIter(ints(10))
	}, nil)
	cached := src.Cache()
	if _, err := cached.Count(); err != nil {
		t.Fatal(err)
	}
	first := computes.Load()
	if first != 4 {
		t.Fatalf("first pass computes = %d", first)
	}
	if _, err := cached.Count(); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != first {
		t.Errorf("cached RDD recomputed: %d → %d", first, computes.Load())
	}
	// Uncache forces recompute.
	cached.Uncache()
	cached.Cache()
	if _, err := cached.Count(); err != nil {
		t.Fatal(err)
	}
	if computes.Load() == first {
		t.Error("uncache should force recompute")
	}
}

func TestCacheLossRecoveredByLineage(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	var computes atomic.Int64
	src := ctx.Source("counting", 8, func(tc *TaskContext, part int) Iter {
		computes.Add(1)
		return SliceIter(ints(100))
	}, nil).Cache()
	n1, err := src.Count()
	if err != nil {
		t.Fatal(err)
	}
	// Kill a worker that holds cached partitions (under load one worker
	// may have run no task at all): they vanish.
	victim := src.PreferredLocations(0)[0]
	ctx.Cluster.Kill(victim)
	ctx.NotifyWorkerLost(victim)
	n2, err := src.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 != 800 {
		t.Errorf("counts differ after failure: %d vs %d", n1, n2)
	}
	if computes.Load() <= 8 {
		t.Error("lost partitions should have been recomputed")
	}
}

func TestShuffleFetchFailureRecovery(t *testing.T) {
	// Map outputs live on workers; killing one after the map stage
	// forces a fetch failure, which the scheduler must repair by
	// re-running the lost map tasks (mid-query recovery, §6.3.3).
	ctx := newTestCtx(t, 4, Options{})
	var data []any
	for i := 0; i < 400; i++ {
		data = append(data, shuffle.Pair{K: int64(i % 37), V: int64(1)})
	}
	src := ctx.Parallelize(data, 8)
	dep := ctx.NewShuffleDep(src, shuffle.HashPartitioner{N: 4}, func(a, b any) any { return a.(int64) + b.(int64) })
	// Materialize the map side first (as PDE would).
	if _, err := ctx.Scheduler().MaterializeShuffle(dep); err != nil {
		t.Fatal(err)
	}
	// Kill a worker holding some map outputs.
	ctx.Cluster.Kill(2)
	ctx.NotifyWorkerLost(2)
	ctx.Cluster.Restart(2)

	reduced := ctx.Shuffled(dep, nil, ReadCombine)
	got, err := reduced.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range got {
		total += v.(shuffle.Pair).V.(int64)
	}
	if total != 400 {
		t.Errorf("total = %d (lost data?)", total)
	}
	if len(got) != 37 {
		t.Errorf("keys = %d", len(got))
	}
}

// TestFetchRecoveryStaysInItsContext: shuffle IDs are allocated per
// shuffle.Service, so two contexts in one process hand out the same
// numbers; a fetch failure in one must rebuild its own dependency, not
// the other context's that happens to share the ID (which used to
// "recover" foreign map output into the shuffle and return wrong sums).
func TestFetchRecoveryStaysInItsContext(t *testing.T) {
	a, b := newTestCtx(t, 4, Options{}), newTestCtx(t, 4, Options{})
	sum := func(x, y any) any { return x.(int64) + y.(int64) }
	ones := make([]any, 1000)
	for i := range ones {
		ones[i] = shuffle.Pair{K: int64(i % 10), V: int64(1)}
	}
	reducedA := a.Parallelize(ones, 8).ReduceByKey(sum, 4)
	if n, err := reducedA.Count(); err != nil || n != 10 {
		t.Fatalf("count = %d, %v; want 10 keys", n, err)
	}
	// B builds its first shuffle second: same numeric ID as A's.
	var bMapCalls atomic.Int64
	reducedB := b.Parallelize(ones, 8).Map(func(v any) any {
		bMapCalls.Add(1)
		return v
	}).ReduceByKey(sum, 4)
	if idA, idB := LineageShuffleIDs(reducedA), LineageShuffleIDs(reducedB); len(idA) != 1 || len(idB) != 1 || idA[0] != idB[0] {
		t.Fatalf("shuffle IDs %v / %v: the probe needs them to collide", idA, idB)
	}
	// Lose some of A's map outputs behind the tracker's back, so the
	// reduce hits a fetch failure and recovers by shuffle ID.
	a.Cluster.Kill(a.Tracker().Locations(LineageShuffleIDs(reducedA)[0])[0])
	got, err := reducedA.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range got {
		total += v.(shuffle.Pair).V.(int64)
	}
	if total != 1000 || len(got) != 10 {
		t.Errorf("after recovery: sum %d over %d keys, want 1000 over 10", total, len(got))
	}
	if a.Scheduler().Metrics().FetchFailures.Load() == 0 {
		t.Error("no fetch failure: the probe did not exercise recovery")
	}
	if n := bMapCalls.Load(); n != 0 {
		t.Errorf("context B's map function ran %d times on context A's recovery", n)
	}
}

func TestKillDuringQueryStillCompletes(t *testing.T) {
	// End-to-end: kill a worker while the job runs; the query must
	// still produce correct results.
	ctx := newTestCtx(t, 6, Options{})
	var data []any
	for i := 0; i < 2000; i++ {
		data = append(data, shuffle.Pair{K: int64(i % 100), V: int64(1)})
	}
	src := ctx.Parallelize(data, 24).Map(func(v any) any {
		time.Sleep(200 * time.Microsecond) // make the stage long enough to kill mid-flight
		return v
	})
	agg := src.ReduceByKey(func(a, b any) any { return a.(int64) + b.(int64) }, 6)

	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		ctx.Cluster.Kill(3)
		ctx.NotifyWorkerLost(3)
		close(done)
	}()
	got, err := agg.Collect()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range got {
		total += v.(shuffle.Pair).V.(int64)
	}
	if total != 2000 || len(got) != 100 {
		t.Errorf("total=%d keys=%d", total, len(got))
	}
}

func TestTaskRetryOnTransientFailure(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{MaxTaskRetries: 5})
	var failures atomic.Int64
	r := ctx.Source("flaky", 4, func(tc *TaskContext, part int) Iter {
		if part == 2 && failures.Add(1) <= 2 {
			Fail(errors.New("transient"))
		}
		return SliceIter(ints(5))
	}, nil)
	n, err := r.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("count = %d", n)
	}
	if ctx.Scheduler().Metrics().TaskRetries.Load() < 2 {
		t.Error("expected retries")
	}
}

func TestPermanentFailureAborts(t *testing.T) {
	ctx := newTestCtx(t, 2, Options{MaxTaskRetries: 3})
	r := ctx.Source("broken", 2, func(tc *TaskContext, part int) Iter {
		if part == 1 {
			Fail(errors.New("permanent"))
		}
		return EmptyIter()
	}, nil)
	if _, err := r.Count(); err == nil {
		t.Fatal("job should abort after retry budget")
	}
}

func TestSpeculationLaunchesBackups(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{
		Speculation:           true,
		SpeculationInterval:   5 * time.Millisecond,
		SpeculationMultiplier: 1.5,
	})
	ctx.Cluster.SetStragglerDelay(0, 150*time.Millisecond)
	r := ctx.Parallelize(ints(64), 16).Map(func(v any) any {
		time.Sleep(time.Millisecond)
		return v
	})
	start := time.Now()
	if _, err := r.Count(); err != nil {
		t.Fatal(err)
	}
	_ = time.Since(start)
	if ctx.Scheduler().Metrics().SpeculativeTasks.Load() == 0 {
		t.Error("expected speculative tasks for the straggler worker")
	}
}

func TestMaterializeShuffleStats(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	var data []any
	for i := 0; i < 1000; i++ {
		// Skewed keys: key 0 takes half the stream so the Misra–Gries
		// summary provably retains it.
		k := int64(0)
		if i%2 == 1 {
			k = int64(i % 8)
		}
		data = append(data, shuffle.Pair{K: k, V: "payload-payload"})
	}
	src := ctx.Parallelize(data, 4)
	dep := ctx.NewShuffleDep(src, shuffle.HashPartitioner{N: 16}, nil, func(d *ShuffleDep) {
		d.Stats = pde.CollectorConfig{HeavyHitterK: 4}
	})
	stats, err := ctx.Scheduler().MaterializeShuffle(dep)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalRecords != 1000 {
		t.Errorf("records = %d", stats.TotalRecords)
	}
	if stats.TotalBytes <= 0 {
		t.Error("no byte stats")
	}
	if stats.HH == nil || len(stats.HH.Top()) == 0 {
		t.Error("heavy hitters missing")
	}
	// Second materialization is free (stage skipping).
	launched := ctx.Scheduler().Metrics().TasksLaunched.Load()
	if _, err := ctx.Scheduler().MaterializeShuffle(dep); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Scheduler().Metrics().TasksLaunched.Load(); got != launched {
		t.Errorf("re-materialization launched %d extra tasks", got-launched)
	}
}

func TestCoalescedShuffleRead(t *testing.T) {
	// 16 fine buckets coalesced into 3 reduce partitions via PDE
	// bin-packing must still see every record exactly once.
	ctx := newTestCtx(t, 4, Options{})
	var data []any
	for i := 0; i < 500; i++ {
		data = append(data, shuffle.Pair{K: int64(i), V: int64(1)})
	}
	src := ctx.Parallelize(data, 4)
	dep := ctx.NewShuffleDep(src, shuffle.HashPartitioner{N: 16}, nil)
	stats, err := ctx.Scheduler().MaterializeShuffle(dep)
	if err != nil {
		t.Fatal(err)
	}
	groups := pde.Coalesce(stats.BucketBytes, 3)
	reduced := ctx.Shuffled(dep, groups, ReadRaw)
	if reduced.NumPartitions() != len(groups) {
		t.Fatalf("parts = %d", reduced.NumPartitions())
	}
	got, err := reduced.Collect()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, v := range got {
		k := v.(shuffle.Pair).K.(int64)
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
	if len(seen) != 500 {
		t.Errorf("saw %d keys", len(seen))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	build := func() ([]any, error) {
		var data []any
		for i := 0; i < 300; i++ {
			data = append(data, shuffle.Pair{K: int64(i % 13), V: int64(i)})
		}
		return ctx.Parallelize(data, 6).
			ReduceByKey(func(a, b any) any { return a.(int64) + b.(int64) }, 4).
			SortedCollect(func(a, b any) bool {
				return a.(shuffle.Pair).K.(int64) < b.(shuffle.Pair).K.(int64)
			})
	}
	a, err := build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		pa, pb := a[i].(shuffle.Pair), b[i].(shuffle.Pair)
		if pa.K != pb.K || pa.V != pb.V {
			t.Fatalf("run mismatch at %d: %v vs %v", i, pa, pb)
		}
	}
}

func TestPreferredLocationsFollowCache(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	src := ctx.Parallelize(ints(40), 4).Cache()
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	mapped := src.Map(func(v any) any { return v })
	foundPref := false
	for p := 0; p < 4; p++ {
		if len(mapped.PreferredLocations(p)) > 0 {
			foundPref = true
		}
	}
	if !foundPref {
		t.Error("derived RDD should inherit cache locality")
	}
}

func TestSortedCollect(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	r := ctx.Parallelize([]any{int64(3), int64(1), int64(2)}, 2)
	got, err := r.SortedCollect(func(a, b any) bool { return a.(int64) < b.(int64) })
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].(int64) < got[j].(int64) }) {
		t.Errorf("not sorted: %v", got)
	}
}
