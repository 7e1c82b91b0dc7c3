package rdd

import (
	"sync"

	"shark/internal/pde"
)

// MapOutputTracker is the master-side registry of shuffle map outputs:
// which worker holds each map partition's buckets, and the aggregated
// PDE statistics for completed stages.
type MapOutputTracker struct {
	mu       sync.Mutex
	shuffles map[int]*shuffleState
}

type shuffleState struct {
	numBuckets int
	numMaps    int
	// workerByMap[mapPart] = worker holding its output, or -1.
	workerByMap []int
	stats       *pde.StageStats
	reports     []pde.MapReport // indexed by map partition (zero value when absent)
	done        []bool
}

// NewMapOutputTracker creates an empty tracker.
func NewMapOutputTracker() *MapOutputTracker {
	return &MapOutputTracker{shuffles: make(map[int]*shuffleState)}
}

// RegisterShuffle declares a shuffle's shape.
func (t *MapOutputTracker) RegisterShuffle(id, numBuckets, numMaps int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.shuffles[id]; ok {
		return
	}
	st := &shuffleState{
		numBuckets:  numBuckets,
		numMaps:     numMaps,
		workerByMap: make([]int, numMaps),
		reports:     make([]pde.MapReport, numMaps),
		done:        make([]bool, numMaps),
	}
	for i := range st.workerByMap {
		st.workerByMap[i] = -1
	}
	t.shuffles[id] = st
}

// AddMapOutput records a completed map task's output location and
// statistics report. A shuffle already unregistered (a racing
// cancel/close tore the statement down while its map tasks were still
// finishing) is a no-op — the output is moot and must not crash the
// process.
func (t *MapOutputTracker) AddMapOutput(id, mapPart, worker int, report pde.MapReport) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.shuffles[id]
	if !ok || mapPart < 0 || mapPart >= len(st.workerByMap) {
		return
	}
	st.workerByMap[mapPart] = worker
	st.reports[mapPart] = report
	st.done[mapPart] = true
	st.stats = nil // invalidate aggregation
}

// MarkLost invalidates the outputs of specific map partitions
// (after a fetch failure). A shuffle already unregistered (a
// statement's cleanup racing a straggling reader) is a no-op: the
// reader's recovery will re-register and re-materialize it.
func (t *MapOutputTracker) MarkLost(id int, mapParts []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.shuffles[id]
	if !ok {
		return
	}
	for _, p := range mapParts {
		if p >= 0 && p < len(st.done) {
			st.done[p] = false
			st.workerByMap[p] = -1
		}
	}
	st.stats = nil
}

// DropWorker invalidates every map output registered on a worker.
func (t *MapOutputTracker) DropWorker(worker int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.shuffles {
		for p, w := range st.workerByMap {
			if w == worker {
				st.done[p] = false
				st.workerByMap[p] = -1
				st.stats = nil
			}
		}
	}
}

// MissingParts lists map partitions without live outputs. An
// unregistered shuffle reports none: its reader will surface a fetch
// failure and recovery re-registers and re-materializes it.
func (t *MapOutputTracker) MissingParts(id int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.shuffles[id]
	if !ok {
		return nil
	}
	var out []int
	for p, ok := range st.done {
		if !ok {
			out = append(out, p)
		}
	}
	return out
}

// Complete reports whether every map partition has output.
func (t *MapOutputTracker) Complete(id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.shuffles[id]
	if !ok {
		return false
	}
	for _, d := range st.done {
		if !d {
			return false
		}
	}
	return true
}

// Locations snapshots mapPart → worker for fetching. An unregistered
// shuffle (torn down by a racing cancel/close while a straggling
// reader still references it) yields an empty snapshot: the reader's
// fetch fails as an ordinary FetchError that fails only that
// statement — or triggers its recovery path — instead of panicking
// the process.
func (t *MapOutputTracker) Locations(id int) map[int]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.shuffles[id]
	if !ok {
		return nil
	}
	out := make(map[int]int, len(st.workerByMap))
	for p, w := range st.workerByMap {
		if st.done[p] {
			out[p] = w
		}
	}
	return out
}

// NumBuckets returns the fine bucket count of the shuffle (0 when
// unregistered).
func (t *MapOutputTracker) NumBuckets(id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.shuffles[id]
	if !ok {
		return 0
	}
	return st.numBuckets
}

// PerMapBucketBytes returns each map partition's (approximate) bytes
// written to one reduce bucket, indexed by map partition — the input
// to skew-split planning, which assigns disjoint map subsets of a hot
// bucket to separate reduce tasks. Partitions without live output
// report 0. Returns nil for an unregistered shuffle.
func (t *MapOutputTracker) PerMapBucketBytes(id, bucket int) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.shuffles[id]
	if !ok {
		return nil
	}
	out := make([]int64, st.numMaps)
	for p, done := range st.done {
		if done {
			out[p] = st.reports[p].BucketBytes(bucket)
		}
	}
	return out
}

// Stats aggregates (and caches) the PDE statistics across all
// completed map reports of the shuffle.
// An unregistered shuffle aggregates to empty statistics, which the
// PDE decision layer treats as "no information" (static fallbacks).
func (t *MapOutputTracker) Stats(id int) *pde.StageStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.shuffles[id]
	if !ok {
		return pde.NewStageStats(0, 0)
	}
	if st.stats == nil {
		agg := pde.NewStageStats(st.numBuckets, st.numMaps)
		for p, done := range st.done {
			if done {
				agg.AddReport(st.reports[p])
			}
		}
		st.stats = agg
	}
	return st.stats
}

// Unregister removes a shuffle's metadata.
func (t *MapOutputTracker) Unregister(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.shuffles, id)
}
