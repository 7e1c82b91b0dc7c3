package cluster

import (
	"errors"
	"testing"
	"time"
)

// drainAll waits for every submitted task's result.
func drainAll(t *testing.T, chans []<-chan Result) []Result {
	t.Helper()
	out := make([]Result, 0, len(chans))
	for _, ch := range chans {
		out = append(out, <-ch)
	}
	return out
}

// TestDispatchBalanceManySmallTasks: 64 fine-grained tasks over 4
// workers must spread — no worker runs more than half, and max/min
// stays within 3× (the §7.1 load-balancing argument).
func TestDispatchBalanceManySmallTasks(t *testing.T) {
	c := newTest(t, Config{Workers: 4, Slots: 2})
	var chans []<-chan Result
	for i := 0; i < 64; i++ {
		chans = append(chans, c.Submit(&Task{Fn: func(w *Worker) (any, error) {
			time.Sleep(200 * time.Microsecond)
			return w.ID, nil
		}}))
	}
	for _, r := range drainAll(t, chans) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	counts := c.TasksPerWorker()
	var maxN, minN int64 = 0, 1 << 62
	for _, n := range counts {
		if n > maxN {
			maxN = n
		}
		if n < minN {
			minN = n
		}
	}
	if maxN > 32 {
		t.Errorf("one worker ran %d/64 tasks (>50%%): %v", maxN, counts)
	}
	if minN == 0 || maxN > 3*minN {
		t.Errorf("imbalance beyond 3x: %v", counts)
	}
}

// TestLocalityPreferredWhenIdle: with an otherwise idle cluster,
// preferred-location tasks must achieve ≥90% locality.
func TestLocalityPreferredWhenIdle(t *testing.T) {
	c := newTest(t, Config{Workers: 4, Slots: 2})
	const n = 40
	for i := 0; i < n; i++ {
		r := <-c.Submit(&Task{
			Preferred: []int{i % 4},
			Fn:        func(w *Worker) (any, error) { return w.ID, nil },
		})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	hits := c.Metrics().LocalityHits.Load()
	if hits < n*9/10 {
		t.Errorf("locality hits = %d/%d (<90%%), misses = %d",
			hits, n, c.Metrics().LocalityMisses.Load())
	}
}

// TestStealingRelievesSlowWorker: tasks homed on a busy preferred
// worker are run by an idle slot once their job's locality wait
// expires, instead of waiting forever — whether the worker straggles
// or launches its own short tasks back to back, which must not keep
// restarting the wait.
func TestStealingRelievesSlowWorker(t *testing.T) {
	for _, tc := range []struct {
		name           string
		straggle, body time.Duration
	}{
		{"straggler", 5 * time.Millisecond, 0},
		{"busy", 0, 500 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTest(t, Config{Workers: 2, Slots: 1})
			c.SetStragglerDelay(0, tc.straggle)
			var chans []<-chan Result
			for i := 0; i < 20; i++ {
				chans = append(chans, c.Submit(&Task{
					Preferred: []int{0},
					Fn: func(w *Worker) (any, error) {
						time.Sleep(tc.body)
						return w.ID, nil
					},
				}))
			}
			for _, r := range drainAll(t, chans) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
			if got := c.Worker(1).TasksRun(); got == 0 {
				t.Error("idle worker stole nothing from the busy worker's tasks")
			}
			if c.Metrics().Steals.Load() == 0 {
				t.Error("no steals recorded")
			}
		})
	}
}

// TestLocalityWaitRestartsAfterBusyLaunch: a launch that finds every
// other slot busy ends the job's locality wait, so a slot that frees up
// later waits a full localityWait again before running the job's tasks
// away from home — however long ago the job's previous wait ran out.
func TestLocalityWaitRestartsAfterBusyLaunch(t *testing.T) {
	c := newTest(t, Config{Workers: 2, Slots: 1})
	// Another job's task holds worker 0 until the end.
	free0 := make(chan struct{})
	blocker := c.Submit(&Task{JobID: 2, Excluded: []int{1}, Fn: func(w *Worker) (any, error) {
		<-free0
		return w.ID, nil
	}})
	// The job's five tasks are homed on busy worker 0. Its oldest runs
	// on worker 1 once the job's wait runs out, and holds it; worker 0
	// is busy at that launch.
	free1 := make(chan struct{})
	started := make(chan int, 1)
	first := c.Submit(&Task{JobID: 1, Preferred: []int{0}, Fn: func(w *Worker) (any, error) {
		started <- w.ID
		<-free1
		return w.ID, nil
	}})
	type launch struct {
		worker int
		at     time.Time
	}
	launches := make(chan launch, 4)
	var rest []<-chan Result
	for i := 0; i < 4; i++ {
		rest = append(rest, c.Submit(&Task{JobID: 1, Preferred: []int{0}, Fn: func(w *Worker) (any, error) {
			launches <- launch{w.ID, time.Now()}
			return w.ID, nil
		}}))
	}
	if w := <-started; w != 1 {
		t.Fatalf("first task ran on worker %d, want 1", w)
	}
	freed := time.Now()
	close(free1)
	if l := <-launches; l.worker != 1 || l.at.Sub(freed) < localityWait {
		t.Errorf("next task ran on worker %d %v after worker 1 freed up, want worker 1 after ≥ %v",
			l.worker, l.at.Sub(freed), localityWait)
	}
	close(free0)
	drainAll(t, append(rest, first, blocker))
}

// TestLocalityUnderLongWave: a wave of 64 preferred tasks spread over
// four single-slot workers keeps at least 95% locality while a second
// job contends for the same slots: every worker holds home tasks of
// both jobs until the wave's tail, so no slot idles long enough for
// either job's locality wait to run out.
func TestLocalityUnderLongWave(t *testing.T) {
	c := newTest(t, Config{Workers: 4, Slots: 1})
	body := func(w *Worker) (any, error) {
		time.Sleep(200 * time.Microsecond)
		return w.ID, nil
	}
	var chans []<-chan Result
	for i := 0; i < 64; i++ {
		chans = append(chans, c.Submit(&Task{JobID: 1, Preferred: []int{i % 4}, Fn: body}))
		if i%4 == 0 {
			chans = append(chans, c.Submit(&Task{JobID: 2, Fn: body}))
		}
	}
	for _, r := range drainAll(t, chans) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	hits, misses := c.Metrics().LocalityHits.Load(), c.Metrics().LocalityMisses.Load()
	if hits+misses != 64 || hits*100 < 95*64 {
		t.Errorf("locality hits = %d, misses = %d of 64 preferred tasks, want ≥ 95%% hits", hits, misses)
	}
}

// TestKillRedistributesQueuedTasks: tasks homed on a killed worker run
// on live workers; only the in-flight task is lost.
func TestKillRedistributesQueuedTasks(t *testing.T) {
	c := newTest(t, Config{Workers: 2, Slots: 1})
	release := make(chan struct{})
	started := make(chan int, 2)
	var blockers []<-chan Result
	for i := 0; i < 2; i++ {
		blockers = append(blockers, c.Submit(&Task{
			Preferred: []int{i},
			Fn: func(w *Worker) (any, error) {
				started <- w.ID
				<-release
				return nil, nil
			},
		}))
	}
	<-started
	<-started
	// Both slots busy: these ten queue up, roughly half on worker 1.
	var queued []<-chan Result
	for i := 0; i < 10; i++ {
		queued = append(queued, c.Submit(&Task{
			Fn: func(w *Worker) (any, error) { return w.ID, nil },
		}))
	}
	c.Kill(1)
	close(release)
	for _, r := range drainAll(t, queued) {
		if r.Err != nil {
			t.Fatalf("queued task lost: %v", r.Err)
		}
		if r.Value.(int) != 0 {
			t.Errorf("task ran on dead worker %d", r.Value)
		}
	}
	var lost int
	for _, r := range drainAll(t, blockers) {
		if errors.Is(r.Err, ErrWorkerLost) {
			lost++
		}
	}
	if lost != 1 {
		t.Errorf("in-flight losses = %d, want 1", lost)
	}
}

// TestExcludedEverywhereStillRuns: an exclusion list that covers
// every live worker (possible after kills re-queue a retried task)
// must not starve the task — the dispatcher ignores it, mirroring
// the scheduler's release valve.
func TestExcludedEverywhereStillRuns(t *testing.T) {
	c := newTest(t, Config{Workers: 3, Slots: 1})
	c.Kill(2)
	done := make(chan Result, 1)
	go func() {
		done <- <-c.Submit(&Task{
			Excluded: []int{0, 1}, // every live worker
			Fn:       func(w *Worker) (any, error) { return w.ID, nil },
		})
	}()
	select {
	case r := <-done:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Value.(int) == 2 {
			t.Error("task ran on the dead worker")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("task starved: exclusions cover every live worker")
	}
}

// TestSpeculativeExclusionViaRunningOn: RunningOn exposes the worker
// executing a task so schedulers can place backup copies elsewhere.
func TestSpeculativeExclusionViaRunningOn(t *testing.T) {
	c := newTest(t, Config{Workers: 3, Slots: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	orig := &Task{Fn: func(w *Worker) (any, error) {
		close(started)
		<-release
		return "orig", nil
	}}
	if orig.RunningOn() != -1 {
		t.Fatalf("unstarted RunningOn = %d, want -1", orig.RunningOn())
	}
	ch := c.Submit(orig)
	<-started
	wid := orig.RunningOn()
	if wid < 0 {
		t.Fatal("RunningOn unset while task runs")
	}
	backup := <-c.Submit(&Task{
		Excluded: []int{wid},
		Fn:       func(w *Worker) (any, error) { return w.ID, nil },
	})
	if backup.Err != nil {
		t.Fatal(backup.Err)
	}
	if backup.Worker == wid {
		t.Errorf("backup landed on the original's worker %d", wid)
	}
	close(release)
	<-ch
}
