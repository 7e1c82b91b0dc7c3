package rdd

import (
	"testing"

	"shark/internal/pde"
	"shark/internal/shuffle"
)

// materializeTestShuffle materializes a shuffle of n keyed pairs and
// returns its dep plus the observed stage stats.
func materializeTestShuffle(t *testing.T, ctx *Context, n, buckets int) (*ShuffleDep, *pde.StageStats) {
	t.Helper()
	data := make([]any, n)
	for i := range data {
		data[i] = shuffle.Pair{K: int64(i % 13), V: int64(i)}
	}
	src := ctx.Parallelize(data, 6)
	dep := ctx.NewShuffleDep(src, shuffle.HashPartitioner{N: buckets}, nil)
	stats, err := ctx.Scheduler().MaterializeShuffleCtx(t.Context(), dep)
	if err != nil {
		t.Fatal(err)
	}
	return dep, stats
}

func TestPerMapBucketBytes(t *testing.T) {
	ctx := newTestCtx(t, 4, Options{})
	dep, stats := materializeTestShuffle(t, ctx, 500, 8)
	for b := 0; b < 8; b++ {
		perMap := ctx.Tracker().PerMapBucketBytes(dep.ID, b)
		if len(perMap) != 6 {
			t.Fatalf("bucket %d: %d map entries, want 6", b, len(perMap))
		}
		var sum int64
		for _, v := range perMap {
			sum += v
		}
		if sum != stats.BucketBytes[b] {
			t.Errorf("bucket %d: per-map sum %d != bucket bytes %d", b, sum, stats.BucketBytes[b])
		}
	}
	if got := ctx.Tracker().PerMapBucketBytes(99999, 0); got != nil {
		t.Errorf("unknown shuffle must return nil, got %v", got)
	}
}
