package shuffle

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"shark/internal/cluster"
	"shark/internal/row"
)

func newEnv(t *testing.T, mode Mode) (*cluster.Cluster, *Service) {
	t.Helper()
	c := cluster.New(cluster.Config{Workers: 4, Slots: 2})
	t.Cleanup(c.Close)
	svc := NewService(c, mode, t.TempDir())
	return c, svc
}

func TestHashPartitionerBalance(t *testing.T) {
	p := HashPartitioner{N: 16}
	counts := make([]int, 16)
	for i := 0; i < 32000; i++ {
		b := p.PartitionFor(int64(i))
		if b < 0 || b >= 16 {
			t.Fatalf("bucket out of range: %d", b)
		}
		counts[b]++
	}
	for b, n := range counts {
		if n < 1000 || n > 3000 {
			t.Errorf("bucket %d badly skewed: %d", b, n)
		}
	}
}

func TestHashPartitionerDeterministic(t *testing.T) {
	p := HashPartitioner{N: 7}
	f := func(k int64) bool { return p.PartitionFor(k) == p.PartitionFor(k) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangePartitioner(t *testing.T) {
	p := RangePartitioner{Bounds: []any{int64(10), int64(20)}}
	if p.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d", p.NumPartitions())
	}
	for _, tc := range []struct {
		k    int64
		want int
	}{{5, 0}, {10, 0}, {11, 1}, {20, 1}, {21, 2}, {100, 2}} {
		if got := p.PartitionFor(tc.k); got != tc.want {
			t.Errorf("PartitionFor(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
}

func writeMapOutputs(t *testing.T, c *cluster.Cluster, svc *Service, shuffleID, nMaps, nBuckets, pairsPerMap int) map[int]int {
	t.Helper()
	locations := make(map[int]int)
	part := HashPartitioner{N: nBuckets}
	for m := 0; m < nMaps; m++ {
		wid := m % c.NumWorkers()
		w := svc.NewWriter(shuffleID, m, nBuckets, c.Worker(wid))
		for i := 0; i < pairsPerMap; i++ {
			k := int64(m*pairsPerMap + i)
			w.Write(part.PartitionFor(k), Pair{K: k, V: fmt.Sprintf("v%d", k)})
		}
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		locations[m] = wid
	}
	return locations
}

func TestWriteFetchRoundTrip(t *testing.T) {
	for _, mode := range []Mode{Memory, Disk} {
		name := "memory"
		if mode == Disk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			c, svc := newEnv(t, mode)
			id := svc.NewShuffleID()
			locs := writeMapOutputs(t, c, svc, id, 4, 3, 100)
			seen := make(map[int64]string)
			for b := 0; b < 3; b++ {
				pairs, err := svc.Fetch(id, b, locs)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pairs {
					seen[p.K.(int64)] = p.V.(string)
				}
			}
			if len(seen) != 400 {
				t.Fatalf("fetched %d distinct keys, want 400", len(seen))
			}
			if seen[42] != "v42" {
				t.Errorf("seen[42] = %q", seen[42])
			}
		})
	}
}

func TestFetchAfterWorkerLoss(t *testing.T) {
	c, svc := newEnv(t, Memory)
	id := svc.NewShuffleID()
	locs := writeMapOutputs(t, c, svc, id, 4, 2, 10)
	c.Kill(1) // held map partition 1
	_, err := svc.Fetch(id, 0, locs)
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("want FetchError, got %v", err)
	}
	if len(fe.MapParts) != 1 || fe.MapParts[0] != 1 {
		t.Errorf("missing parts = %v", fe.MapParts)
	}
}

func TestFetchPartialUnionEqualsFetch(t *testing.T) {
	c, svc := newEnv(t, Memory)
	id := svc.NewShuffleID()
	locs := writeMapOutputs(t, c, svc, id, 4, 3, 100)
	for b := 0; b < 3; b++ {
		whole, err := svc.Fetch(id, b, locs)
		if err != nil {
			t.Fatal(err)
		}
		union := make(map[int64]string)
		for _, maps := range [][]int{{0, 2}, {3, 1}} { // disjoint split, unsorted on purpose
			pairs, err := svc.FetchPartial(id, b, locs, maps)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				if _, dup := union[p.K.(int64)]; dup {
					t.Fatalf("bucket %d: key %v fetched by two slices", b, p.K)
				}
				union[p.K.(int64)] = p.V.(string)
			}
		}
		if len(union) != len(whole) {
			t.Errorf("bucket %d: slice union has %d pairs, whole fetch %d", b, len(union), len(whole))
		}
	}
}

func TestFetchPartialMissingPart(t *testing.T) {
	c, svc := newEnv(t, Memory)
	id := svc.NewShuffleID()
	locs := writeMapOutputs(t, c, svc, id, 4, 2, 10)
	c.Kill(2) // held map partition 2
	_, err := svc.FetchPartial(id, 0, locs, []int{1, 2})
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("want FetchError, got %v", err)
	}
	if len(fe.MapParts) != 1 || fe.MapParts[0] != 2 {
		t.Errorf("missing parts = %v", fe.MapParts)
	}
	// A partition absent from locations entirely is also missing.
	_, err = svc.FetchPartial(id, 0, map[int]int{0: 0}, []int{0, 3})
	if !errors.As(err, &fe) || len(fe.MapParts) != 1 || fe.MapParts[0] != 3 {
		t.Errorf("unlocated part: err = %v", err)
	}
}

func TestStatsCollected(t *testing.T) {
	c, svc := newEnv(t, Memory)
	id := svc.NewShuffleID()
	w := svc.NewWriter(id, 0, 2, c.Worker(0))
	w.Write(0, Pair{K: int64(1), V: "aaaa"})
	w.Write(0, Pair{K: int64(2), V: "bbbb"})
	w.Write(1, Pair{K: int64(3), V: "cc"})
	stats, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records[0] != 2 || stats.Records[1] != 1 {
		t.Errorf("records = %v", stats.Records)
	}
	if stats.Bytes[0] <= stats.Bytes[1] {
		t.Errorf("bucket 0 should be bigger: %v", stats.Bytes)
	}
}

func TestUnregisterCleans(t *testing.T) {
	c, svc := newEnv(t, Memory)
	id := svc.NewShuffleID()
	locs := writeMapOutputs(t, c, svc, id, 2, 2, 5)
	svc.Unregister(id)
	_, err := svc.Fetch(id, 0, locs)
	if err == nil {
		t.Error("fetch after unregister should fail")
	}
}

func TestDiskRowValues(t *testing.T) {
	// MR shuffles carry row.Row values; they must round-trip disk mode.
	c, svc := newEnv(t, Disk)
	id := svc.NewShuffleID()
	w := svc.NewWriter(id, 0, 1, c.Worker(0))
	want := row.Row{int64(7), "x", 2.5}
	w.Write(0, Pair{K: "key", V: want})
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	pairs, err := svc.Fetch(id, 0, map[int]int{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := pairs[0].V.(row.Row)
	if !ok {
		t.Fatalf("value type %T", pairs[0].V)
	}
	for i := range want {
		if !row.Equal(want[i], got[i]) {
			t.Errorf("field %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestEstimateSize(t *testing.T) {
	if EstimateSize(int64(1)) != 8 || EstimateSize("abcd") != 20 {
		t.Error("scalar size estimates wrong")
	}
	r := row.Row{int64(1), "ab"}
	if EstimateSize(r) <= 8 {
		t.Error("row estimate too small")
	}
	if EstimateSize(Pair{K: int64(1), V: int64(2)}) != 16 {
		t.Error("pair estimate wrong")
	}
}

// TestBlockKeyFormat: the appended key is byte for byte what
// fmt.Sprintf("shuf/%d/%d/%d") gives, on the extremes of each field.
func TestBlockKeyFormat(t *testing.T) {
	for _, tc := range [][3]int{
		{0, 0, 0}, {1, 2, 3}, {7, 0, 63}, {12345, 678, 9},
		{-1, -20, -300}, {1 << 40, 1 << 31, 1<<31 - 1},
		{math.MaxInt, math.MinInt, 10},
	} {
		want := fmt.Sprintf("shuf/%d/%d/%d", tc[0], tc[1], tc[2])
		if got := blockKey(tc[0], tc[1], tc[2]); got != want {
			t.Errorf("blockKey%v = %q, want %q", tc, got, want)
		}
	}
}
