package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTest(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

func TestRunTasks(t *testing.T) {
	c := newTest(t, Config{Workers: 4, Slots: 2})
	var sum atomic.Int64
	var chans []<-chan Result
	for i := 0; i < 100; i++ {
		i := i
		chans = append(chans, c.Submit(&Task{Fn: func(w *Worker) (any, error) {
			sum.Add(int64(i))
			return i * 2, nil
		}}))
	}
	total := 0
	for _, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		total += r.Value.(int)
	}
	if total != 99*100 {
		t.Errorf("total = %d", total)
	}
	if sum.Load() != 99*100/2 {
		t.Errorf("sum = %d", sum.Load())
	}
	if c.TasksLaunched() != 100 {
		t.Errorf("TasksLaunched = %d", c.TasksLaunched())
	}
}

func TestLocalityPreference(t *testing.T) {
	c := newTest(t, Config{Workers: 4, Slots: 1})
	// All tasks prefer worker 2; with an uncontended cluster they
	// should mostly land there.
	var onPreferred atomic.Int64
	var chans []<-chan Result
	for i := 0; i < 20; i++ {
		chans = append(chans, c.Submit(&Task{
			Preferred: []int{2},
			Fn: func(w *Worker) (any, error) {
				if w.ID == 2 {
					onPreferred.Add(1)
				}
				return nil, nil
			},
		}))
	}
	for _, ch := range chans {
		<-ch
	}
	if onPreferred.Load() < 15 {
		t.Errorf("only %d/20 tasks ran on the preferred worker", onPreferred.Load())
	}
}

func TestExcludedWorker(t *testing.T) {
	c := newTest(t, Config{Workers: 3, Slots: 1})
	for i := 0; i < 30; i++ {
		r := <-c.Submit(&Task{
			Excluded: []int{0},
			Fn:       func(w *Worker) (any, error) { return w.ID, nil },
		})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Value.(int) == 0 {
			t.Fatal("task ran on excluded worker")
		}
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	c := newTest(t, Config{Workers: 1, Slots: 1})
	r := <-c.Submit(&Task{Fn: func(w *Worker) (any, error) { panic("boom") }})
	if r.Err == nil {
		t.Fatal("panic should surface as error")
	}
}

func TestKillFailsInFlightTasks(t *testing.T) {
	c := newTest(t, Config{Workers: 2, Slots: 1})
	release := make(chan struct{})
	started := make(chan int, 2)
	mk := func() *Task {
		return &Task{Fn: func(w *Worker) (any, error) {
			started <- w.ID
			<-release
			return "done", nil
		}}
	}
	ch1 := c.Submit(mk())
	ch2 := c.Submit(mk())
	w1 := <-started
	<-started
	c.Kill(w1)
	close(release)
	r1, r2 := <-ch1, <-ch2
	var lost, ok int
	for _, r := range []Result{r1, r2} {
		if errors.Is(r.Err, ErrWorkerLost) {
			lost++
		} else if r.Err == nil {
			ok++
		}
	}
	if lost != 1 || ok != 1 {
		t.Errorf("lost=%d ok=%d (want 1/1): %v %v", lost, ok, r1.Err, r2.Err)
	}
}

func TestKillWipesStore(t *testing.T) {
	c := newTest(t, Config{Workers: 2, Slots: 1})
	w := c.Worker(0)
	w.Store().Put("blk", 42, 8, Class{Pinned: true})
	c.Kill(0)
	if _, tier := w.Store().Get("blk"); tier != Miss {
		t.Error("store should be wiped on kill")
	}
	if w.Alive() {
		t.Error("worker should be dead")
	}
	c.Restart(0)
	if !w.Alive() {
		t.Error("worker should be back")
	}
}

func TestDeadWorkerTasksRescheduled(t *testing.T) {
	c := newTest(t, Config{Workers: 3, Slots: 1})
	c.Kill(1)
	for i := 0; i < 20; i++ {
		r := <-c.Submit(&Task{
			Preferred: []int{1}, // prefers the dead worker
			Fn:        func(w *Worker) (any, error) { return w.ID, nil },
		})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Value.(int) == 1 {
			t.Fatal("task ran on dead worker")
		}
	}
}

func TestHeartbeatModeSlower(t *testing.T) {
	run := func(p Profile) time.Duration {
		c := New(Config{Workers: 2, Slots: 1, Profile: p})
		defer c.Close()
		start := time.Now()
		var chans []<-chan Result
		for i := 0; i < 8; i++ {
			chans = append(chans, c.Submit(&Task{Fn: func(w *Worker) (any, error) { return nil, nil }}))
		}
		for _, ch := range chans {
			<-ch
		}
		return time.Since(start)
	}
	fast := run(Profile{Mode: EventDriven})
	slow := run(Profile{Mode: Heartbeat, HeartbeatInterval: 10 * time.Millisecond, TaskLaunchOverhead: 5 * time.Millisecond})
	if slow < 4*fast && slow < 40*time.Millisecond {
		t.Errorf("heartbeat mode (%v) should be much slower than event-driven (%v)", slow, fast)
	}
}

// TestLaunchOverheadAmortized: a sub-millisecond launch overhead is
// charged at its modelled cost, N·d per slot, not once per task at the
// timer's millisecond floor; a launch above the floor (Hadoop's) is
// still slept in full before every task.
func TestLaunchOverheadAmortized(t *testing.T) {
	const tasks, workers = 400, 4
	c := newTest(t, Config{Workers: workers, Slots: 1, Profile: SparkProfile()})
	start := time.Now()
	var chans []<-chan Result
	for i := 0; i < tasks; i++ {
		chans = append(chans, c.Submit(&Task{Fn: func(*Worker) (any, error) { return nil, nil }}))
	}
	for _, ch := range chans {
		<-ch
	}
	// Some slot ran at least tasks/workers tasks and slept all of
	// their charge but the under-a-quantum debt it may still owe. A
	// sleep per task would take the timer's ~1ms floor each, over
	// tasks/workers ms; the upper bound is a quarter of that, or half
	// under -race, which slows dispatch several-fold.
	d := SparkProfile().TaskLaunchOverhead
	lo, hi := tasks*d/workers-sleepQuantum, tasks/workers*sleepQuantum/4
	if raceDetector {
		hi *= 2
	}
	if el := time.Since(start); el < lo || el > hi {
		t.Errorf("%d tasks of %v launch on %d slots took %v, want between %v and %v", tasks, d, workers, el, lo, hi)
	}

	h := newTest(t, Config{Workers: 1, Slots: 1, Profile: HadoopProfile()})
	launch := HadoopProfile().TaskLaunchOverhead
	start = time.Now()
	for k := 1; k <= 3; k++ {
		r := <-h.Submit(&Task{Fn: func(*Worker) (any, error) { return nil, nil }})
		if el := time.Since(start); el < time.Duration(k)*launch {
			t.Errorf("Hadoop task %d done after %v, want at least %v", k, el, time.Duration(k)*launch)
		}
		if r.SlotTime < launch {
			t.Errorf("Hadoop task %d slot time %v, want at least its %v launch", k, r.SlotTime, launch)
		}
	}
}

func TestStragglerDelay(t *testing.T) {
	c := newTest(t, Config{Workers: 1, Slots: 1})
	c.SetStragglerDelay(0, 30*time.Millisecond)
	start := time.Now()
	<-c.Submit(&Task{Fn: func(w *Worker) (any, error) { return nil, nil }})
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("straggler delay not applied: %v", d)
	}
	c.SetStragglerFactor(0, 1) // clear
	start = time.Now()
	<-c.Submit(&Task{Fn: func(w *Worker) (any, error) { return nil, nil }})
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("delay should be cleared: %v", d)
	}
}

func TestBlockStoreConcurrency(t *testing.T) {
	s := NewBlockStore(0, 0, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := string(rune('a'+g)) + "-block"
				s.Put(key, i, 8, Class{Pinned: true})
				s.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSubmitAfterClose(t *testing.T) {
	c := New(Config{Workers: 1, Slots: 1})
	c.Close()
	r := <-c.Submit(&Task{Fn: func(w *Worker) (any, error) { return nil, nil }})
	if r.Err == nil {
		t.Error("submit after close must error")
	}
}

// TestCloseFailsQueuedTasks: every Submit delivers exactly one Result,
// Close included — tasks queued behind a blocked slot all receive
// ErrClosed promptly. A scheduler blocked on such a task with no
// deadline would otherwise hang forever.
func TestCloseFailsQueuedTasks(t *testing.T) {
	c := New(Config{Workers: 1, Slots: 1})
	started, release := make(chan struct{}), make(chan struct{})
	blocker := c.Submit(&Task{Fn: func(*Worker) (any, error) {
		close(started)
		<-release
		return "done", nil
	}})
	<-started
	var queued []<-chan Result
	for i := 0; i < 6; i++ {
		queued = append(queued, c.Submit(&Task{Fn: func(*Worker) (any, error) { return nil, nil }}))
	}
	c.Close()
	deadline := time.After(5 * time.Second)
	for i, ch := range queued {
		select {
		case r := <-ch:
			if !errors.Is(r.Err, ErrClosed) || r.Worker != -1 {
				t.Errorf("queued task %d: got %+v, want ErrClosed from worker -1", i, r)
			}
		case <-deadline:
			t.Fatalf("queued task %d never received a Result after Close", i)
		}
	}
	if got := c.Backlog(); got != 0 {
		t.Errorf("Backlog after Close = %d, want 0", got)
	}
	close(release)
	if r := <-blocker; r.Err != nil || r.Value != "done" {
		t.Errorf("running task must finish normally, got %+v", r)
	}
}

// TestCloseFailsTaskAwaitingHeartbeat: in Heartbeat mode a task its
// slot already took is parked waiting for a tick; Close stops the
// ticks, so that wait must end in a Result too.
func TestCloseFailsTaskAwaitingHeartbeat(t *testing.T) {
	c := New(Config{Workers: 1, Slots: 1, Profile: HadoopProfile()})
	ch := c.Submit(&Task{Fn: func(*Worker) (any, error) { return nil, nil }})
	c.Close() // microseconds after Submit: the 30ms tick has not come
	select {
	case r := <-ch:
		if !errors.Is(r.Err, ErrClosed) {
			t.Errorf("got %+v, want ErrClosed", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("task parked on the heartbeat never received a Result after Close")
	}
}
