package rdd

import (
	"sync"
	"testing"

	"shark/internal/pde"
)

// TestTrackerToleratesUnregistered: every tracker read/write on a
// shuffle a racing cancel/close already unregistered degrades to a
// zero value instead of panicking — an unhandled panic in a serving
// process kills every connected client.
func TestTrackerToleratesUnregistered(t *testing.T) {
	tr := NewMapOutputTracker()
	const id = 7
	if got := tr.Locations(id); len(got) != 0 {
		t.Errorf("Locations on unregistered = %v, want empty", got)
	}
	if got := tr.MissingParts(id); got != nil {
		t.Errorf("MissingParts on unregistered = %v, want nil", got)
	}
	if got := tr.NumBuckets(id); got != 0 {
		t.Errorf("NumBuckets on unregistered = %d, want 0", got)
	}
	if st := tr.Stats(id); st == nil {
		t.Error("Stats on unregistered must return empty stats, not nil")
	}
	tr.AddMapOutput(id, 0, 1, pde.MapReport{}) // must not panic
	tr.MarkLost(id, []int{0})
	if tr.Complete(id) {
		t.Error("unregistered shuffle must not read as complete")
	}
}

// TestTrackerUnregisterRace hammers reads against a racing
// register/unregister cycle; -race plus the absence of panics is the
// assertion.
func TestTrackerUnregisterRace(t *testing.T) {
	tr := NewMapOutputTracker()
	const id = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr.AddMapOutput(id, part, part%2, pde.MapReport{})
				tr.Locations(id)
				tr.MissingParts(id)
				tr.NumBuckets(id)
				tr.Stats(id)
				tr.PerMapBucketBytes(id, 0)
			}
		}(i)
	}
	for i := 0; i < 200; i++ {
		tr.RegisterShuffle(id, 4, 4)
		tr.Unregister(id)
	}
	close(stop)
	wg.Wait()
}
