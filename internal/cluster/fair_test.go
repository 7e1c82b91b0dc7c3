package cluster

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submitJobTasks queues n short tasks tagged with jobID that append
// their job to order as they execute. Each then holds its slot for
// two milliseconds: fair sharing reads running-task counts, so with
// microsecond bodies one slot descheduled mid-task (-race on a loaded
// box) lets the other drain a whole wave against a stale count.
func submitJobTasks(c *Cluster, jobID int64, n int, mu *sync.Mutex, order *[]int64) []<-chan Result {
	var chans []<-chan Result
	for i := 0; i < n; i++ {
		chans = append(chans, c.Submit(&Task{
			JobID: jobID,
			Fn: func(w *Worker) (any, error) {
				mu.Lock()
				*order = append(*order, jobID)
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				return nil, nil
			},
		}))
	}
	return chans
}

// blockSlots occupies every slot of the cluster with tasks of jobID
// that hold until release is closed, returning their result channels
// after all have started.
func blockSlots(t *testing.T, c *Cluster, jobID int64, release chan struct{}) []<-chan Result {
	t.Helper()
	slots := c.TotalSlots()
	started := make(chan struct{}, slots)
	var chans []<-chan Result
	for i := 0; i < slots; i++ {
		chans = append(chans, c.Submit(&Task{
			JobID: jobID,
			Fn: func(w *Worker) (any, error) {
				started <- struct{}{}
				<-release
				return nil, nil
			},
		}))
	}
	for i := 0; i < slots; i++ {
		select {
		case <-started:
		case <-time.After(2 * time.Second):
			t.Fatal("slots never filled")
		}
	}
	return chans
}

// runFairnessScenario blocks both slots of a 1-worker cluster with
// long-job tasks, queues a long-job wave and then a few short-job
// tasks behind it, releases one slot, and returns the order in which
// queued tasks executed.
func runFairnessScenario(t *testing.T) []int64 {
	t.Helper()
	c := newTest(t, Config{Workers: 1, Slots: 2})
	const longJob, shortJob = 1, 2
	release := make(chan struct{})
	blockers := blockSlots(t, c, longJob, release)

	var mu sync.Mutex
	var order []int64
	longChans := submitJobTasks(c, longJob, 10, &mu, &order)
	shortChans := submitJobTasks(c, shortJob, 3, &mu, &order)

	close(release)
	for _, ch := range append(append(blockers, longChans...), shortChans...) {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]int64(nil), order...)
}

// TestFairShareUnstarvesShortJob: with one long-job blocker still
// holding a slot, a freed slot must drain the short job's tasks before
// the long job's queued wave (min-running-tasks-first).
func TestFairShareUnstarvesShortJob(t *testing.T) {
	order := runFairnessScenario(t)
	// The three short-job tasks must all run before the last long-job
	// task; under fairness they should in fact be among the first few
	// queued executions. Find the position of the last short task.
	lastShort := -1
	for i, j := range order {
		if j == 2 {
			lastShort = i
		}
	}
	if lastShort < 0 {
		t.Fatal("short job never ran")
	}
	if lastShort > 5 {
		t.Errorf("short job finished at queued position %d of %d under fair sharing: %v",
			lastShort, len(order), order)
	}
}

// TestCancelJobDropsQueuedTasks: cancelling a job fails its queued
// tasks with ErrJobCancelled, leaves other jobs' tasks untouched, and
// the cluster keeps serving new work.
func TestCancelJobDropsQueuedTasks(t *testing.T) {
	c := newTest(t, Config{Workers: 2, Slots: 1})
	release := make(chan struct{})
	blockers := blockSlots(t, c, 99, release)

	var mu sync.Mutex
	var order []int64
	doomed := submitJobTasks(c, 7, 8, &mu, &order)
	survivors := submitJobTasks(c, 8, 4, &mu, &order)

	if n := c.CancelJob(7); n != 8 {
		t.Errorf("CancelJob dropped %d tasks, want 8", n)
	}
	if n := c.CancelJob(7); n != 0 {
		t.Errorf("second CancelJob dropped %d tasks, want 0", n)
	}
	for _, ch := range doomed {
		if r := <-ch; !errors.Is(r.Err, ErrJobCancelled) {
			t.Errorf("dropped task result = %v, want ErrJobCancelled", r.Err)
		}
	}
	close(release)
	for _, ch := range append(blockers, survivors...) {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if got := c.Metrics().CancelledTasks.Load(); got != 8 {
		t.Errorf("CancelledTasks = %d, want 8", got)
	}
	// The cluster still runs fresh work afterwards.
	if r := <-c.Submit(&Task{JobID: 7, Fn: func(w *Worker) (any, error) { return 42, nil }}); r.Err != nil || r.Value != 42 {
		t.Errorf("post-cancel task = (%v, %v)", r.Value, r.Err)
	}
}

// TestCancelJobZeroIsNoop: JobID 0 is the shared untagged bucket and
// must never be mass-cancelled.
func TestCancelJobZeroIsNoop(t *testing.T) {
	c := newTest(t, Config{Workers: 1, Slots: 1})
	release := make(chan struct{})
	blockers := blockSlots(t, c, 5, release)
	ch := c.Submit(&Task{Fn: func(w *Worker) (any, error) { return nil, nil }})
	if n := c.CancelJob(0); n != 0 {
		t.Errorf("CancelJob(0) dropped %d tasks", n)
	}
	close(release)
	if r := <-ch; r.Err != nil {
		t.Fatal(r.Err)
	}
	for _, b := range blockers {
		<-b
	}
}

// blockN occupies n slots with tasks of jobID that each hold until a
// value arrives on release, returning the result channels once all n
// have started.
func blockN(t *testing.T, c *Cluster, jobID int64, weight, n int, release chan struct{}) []<-chan Result {
	t.Helper()
	started := make(chan struct{}, n)
	var chans []<-chan Result
	for i := 0; i < n; i++ {
		chans = append(chans, c.Submit(&Task{
			JobID:  jobID,
			Weight: weight,
			Fn: func(w *Worker) (any, error) {
				started <- struct{}{}
				<-release
				return nil, nil
			},
		}))
	}
	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(2 * time.Second):
			t.Fatal("blockers never started")
		}
	}
	return chans
}

// TestWeightedFairShareDequeue: with equal running counts a weighted
// job outranks an unweighted one — the heavy job H (weight 4) holding
// 1 running task (ratio 1/4) beats the light job L (weight 1) holding
// 1 running task (ratio 1/1), even though L's task was queued first.
// Under the old unweighted policy this tie (1 running vs 1 running)
// went to queue order.
func TestWeightedFairShareDequeue(t *testing.T) {
	c := newTest(t, Config{Workers: 1, Slots: 3})
	const hJob, lJob = 1, 2
	relH := make(chan struct{}, 2)
	relL := make(chan struct{}, 1)
	hBlockers := blockN(t, c, hJob, 4, 2, relH) // H: 2 running
	lBlockers := blockN(t, c, lJob, 1, 1, relL) // L: 1 running

	var mu sync.Mutex
	var order []int64
	record := func(jobID int64, weight int) <-chan Result {
		return c.Submit(&Task{JobID: jobID, Weight: weight, Fn: func(w *Worker) (any, error) {
			mu.Lock()
			order = append(order, jobID)
			mu.Unlock()
			return nil, nil
		}})
	}
	lCh := record(lJob, 1) // queued first
	hCh := record(hJob, 4)

	// Free exactly one H slot: running becomes H=1 (ratio 0.25) vs
	// L=1 (ratio 1.0) — the freed slot must take H's queued task.
	relH <- struct{}{}
	if r := <-hCh; r.Err != nil {
		t.Fatal(r.Err)
	}
	relH <- struct{}{}
	close(relL)
	for _, ch := range append(hBlockers, lBlockers...) {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if r := <-lCh; r.Err != nil {
		t.Fatal(r.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != hJob {
		t.Errorf("dequeue order = %v, want weight-4 job first despite later queueing", order)
	}
}

// TestWeightedShareConvergence: three saturating jobs at weights 1:2:4
// must receive long-run shares of executed task-time proportional to
// their weights (torture-test criterion (c)). Each job keeps a deep
// backlog of equal-duration tasks, so completed-task counts are a
// direct proxy for slot-time share.
func TestWeightedShareConvergence(t *testing.T) {
	c := newTest(t, Config{Workers: 2, Slots: 4})
	weights := []int{1, 2, 4}
	const taskDur = 2 * time.Millisecond
	const window = 900 * time.Millisecond

	var stop atomic.Bool
	counts := make([]atomic.Int64, len(weights))
	var wg sync.WaitGroup
	for i, w := range weights {
		jobID, weight := int64(i+1), w
		// Keep 16 tasks outstanding per job: the backlog must always
		// exceed what the job's fair share can absorb.
		for k := 0; k < 16; k++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for !stop.Load() {
					ch := c.Submit(&Task{JobID: jobID, Weight: weight, Fn: func(wk *Worker) (any, error) {
						time.Sleep(taskDur)
						return nil, nil
					}})
					if r := <-ch; r.Err != nil {
						return
					}
					counts[i].Add(1)
				}
			}(i)
		}
	}
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()

	var total, weightSum int64
	for i := range weights {
		total += counts[i].Load()
		weightSum += int64(weights[i])
	}
	if total == 0 {
		t.Fatal("no tasks completed")
	}
	for i, w := range weights {
		share := float64(counts[i].Load()) / float64(total)
		want := float64(w) / float64(weightSum)
		if share < want*0.75 || share > want*1.25 {
			t.Errorf("weight-%d job share = %.3f (count %d), want ~%.3f (±25%%); all counts: %d/%d/%d",
				w, share, counts[i].Load(), want,
				counts[0].Load(), counts[1].Load(), counts[2].Load())
		}
	}
}

// TestSchedulerTortureRandomized: 12 jobs with random weights submit
// random task waves while roughly half of them are cancelled
// mid-stream; afterwards (a) every slot is free again, (b) every
// per-job running count is back to zero, and (c) the cluster still
// executes fresh work. The invariants must hold for any schedule, so
// the seed is fresh per run and logged for replay.
func TestSchedulerTortureRandomized(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("torture seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	c := newTest(t, Config{Workers: 3, Slots: 2})
	const jobs = 12
	type jobState struct {
		id    int64
		chans []<-chan Result
	}
	states := make([]*jobState, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		st := &jobState{id: int64(j + 1)}
		states[j] = st
		weight := 1 << rng.Intn(4) // 1, 2, 4 or 8
		n := 10 + rng.Intn(30)
		dur := time.Duration(rng.Intn(1500)) * time.Microsecond
		for i := 0; i < n; i++ {
			st.chans = append(st.chans, c.Submit(&Task{
				JobID:  st.id,
				Weight: weight,
				Fn: func(w *Worker) (any, error) {
					if dur > 0 {
						time.Sleep(dur)
					}
					return nil, nil
				},
			}))
		}
		if rng.Intn(2) == 0 {
			// Cancel roughly half the jobs from a racing goroutine.
			wg.Add(1)
			go func(id int64, delay time.Duration) {
				defer wg.Done()
				time.Sleep(delay)
				c.CancelJob(id)
			}(st.id, time.Duration(rng.Intn(5000))*time.Microsecond)
		}
	}

	// Every task resolves exactly once: completed or ErrJobCancelled.
	for _, st := range states {
		for _, ch := range st.chans {
			select {
			case r := <-ch:
				if r.Err != nil && !errors.Is(r.Err, ErrJobCancelled) {
					t.Fatalf("job %d task failed: %v", st.id, r.Err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("job %d task never resolved (slot leak?)", st.id)
			}
		}
	}
	wg.Wait()

	// (b) running counts return to zero for every job.
	deadline := time.Now().Add(2 * time.Second)
	for _, st := range states {
		for c.RunningTasks(st.id) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("job %d still has %d running tasks after drain", st.id, c.RunningTasks(st.id))
			}
			time.Sleep(time.Millisecond)
		}
	}

	// (a) no slot leak: every slot can be occupied again...
	release := make(chan struct{})
	probes := blockN(t, c, 999, 1, c.TotalSlots(), release)
	close(release)
	for _, ch := range probes {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// ...and (c) fresh work still executes.
	if r := <-c.Submit(&Task{JobID: 1, Fn: func(w *Worker) (any, error) { return 7, nil }}); r.Err != nil || r.Value != 7 {
		t.Fatalf("post-torture task = (%v, %v)", r.Value, r.Err)
	}
}

// TestRunningTasksAccounting: per-job running counts rise while a
// job's tasks execute and drop back to zero after.
func TestRunningTasksAccounting(t *testing.T) {
	c := newTest(t, Config{Workers: 2, Slots: 1})
	release := make(chan struct{})
	blockers := blockSlots(t, c, 11, release)
	if got := c.RunningTasks(11); got != 2 {
		t.Errorf("RunningTasks(11) = %d while both slots blocked, want 2", got)
	}
	close(release)
	for _, b := range blockers {
		<-b
	}
	deadline := time.Now().Add(time.Second)
	for c.RunningTasks(11) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("RunningTasks(11) = %d after completion", c.RunningTasks(11))
		}
		time.Sleep(time.Millisecond)
	}
}
