package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// evictionLog records the evictions a store announces. The tests below
// are single-goroutine, and the callback runs inside Put.
type evictionLog struct{ evs []Eviction }

func watchEvictions(s *BlockStore) *evictionLog {
	l := &evictionLog{}
	s.SetOnEvict(func(ev Eviction) { l.evs = append(l.evs, ev) })
	return l
}

// memoryVictims counts the announced memory-tier victims that were
// spilled (or, with spilled false, dropped) and their bytes.
func (l *evictionLog) memoryVictims(spilled bool) (n int, bytes int64) {
	for _, ev := range l.evs {
		if !ev.FromDisk && ev.Spilled == spilled {
			n++
			bytes += ev.Size
		}
	}
	return n, bytes
}

// TestBlockStoreLRUOrder: eviction takes the least-recently-used
// evictable block, and Get refreshes recency.
func TestBlockStoreLRUOrder(t *testing.T) {
	s := NewBlockStore(100, 0, nil)
	log := watchEvictions(s)
	if !s.Put("a", 1, 40, Class{}) || !s.Put("b", 2, 40, Class{}) {
		t.Fatal("blocks within capacity rejected")
	}
	if _, tier := s.Get("a"); tier != MemoryTier { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	if !s.Put("c", 3, 40, Class{}) {
		t.Fatal("c rejected despite evictable room")
	}
	if s.Contains("b") {
		t.Error("b (LRU) should have been evicted")
	}
	if !s.Contains("a") || !s.Contains("c") {
		t.Errorf("wrong eviction victim: a=%v c=%v", s.Contains("a"), s.Contains("c"))
	}
	if n, bytes := log.memoryVictims(false); n != 1 || bytes != 40 {
		t.Errorf("evictions=%d bytesEvicted=%d, want 1/40", n, bytes)
	}
}

// TestBlockStorePinnedNeverEvicted: pinned blocks (shuffle outputs)
// survive any amount of evictable pressure; an evictable block that
// cannot fit beside them is rejected, keeping ApproxBytes ≤ capacity.
func TestBlockStorePinnedNeverEvicted(t *testing.T) {
	s := NewBlockStore(100, 0, nil)
	s.Put("pin", "shuffle", 60, Class{Pinned: true})
	if !s.Put("a", 1, 40, Class{}) {
		t.Fatal("a should fit beside the pinned block")
	}
	if !s.Put("b", 2, 40, Class{}) { // must evict a, not pin
		t.Fatal("b should displace a")
	}
	if !s.Contains("pin") {
		t.Fatal("pinned block evicted")
	}
	if s.Contains("a") {
		t.Error("a should have been the eviction victim")
	}
	if s.Put("big", 3, 50, Class{}) { // 60 pinned + 50 > 100 even alone
		t.Error("oversize evictable block admitted past capacity")
	}
	if !s.Contains("b") {
		t.Error("rejecting an unfittable block must not evict anything")
	}
	if got := s.ApproxBytes(); got > s.Capacity() {
		t.Errorf("ApproxBytes %d exceeds capacity %d", got, s.Capacity())
	}
}

// TestBlockStoreIfRoomNeverDisplaces: the opportunistic class admits
// into free room but never displaces residents.
func TestBlockStoreIfRoomNeverDisplaces(t *testing.T) {
	s := NewBlockStore(100, 0, nil)
	log := watchEvictions(s)
	if !s.Put("resident", 1, 60, Class{}) {
		t.Fatal("resident rejected")
	}
	if !s.Put("fits", 2, 40, Class{IfRoom: true}) {
		t.Error("block fitting in free room rejected")
	}
	if s.Put("nofit", 3, 10, Class{IfRoom: true}) {
		t.Error("admission without room must not evict")
	}
	if !s.Contains("resident") || !s.Contains("fits") {
		t.Errorf("residents displaced: resident=%v fits=%v", s.Contains("resident"), s.Contains("fits"))
	}
	if len(log.evs) != 0 {
		t.Errorf("evictions = %v, want none", log.evs)
	}
}

// TestBlockStoreRejectedPutKeepsExistingCopy: a rejected admission —
// evicting or free-room-only — must not destroy a live block already
// stored under the same key (readers still find it).
func TestBlockStoreRejectedPutKeepsExistingCopy(t *testing.T) {
	s := NewBlockStore(100, 0, nil)
	s.Put("pin", 0, 50, Class{Pinned: true}) // pinned footprint forces rejections below
	if !s.Put("k", 1, 30, Class{}) {
		t.Fatal("initial copy rejected")
	}
	if s.Put("k", 2, 60, Class{}) { // 50 pinned + 60 > 100: infeasible
		t.Error("infeasible replacement admitted")
	}
	if v, tier := s.Get("k"); tier != MemoryTier || v.(int) != 1 {
		t.Errorf("rejected put destroyed the existing copy (got %v, %v)", v, tier)
	}
	s.Put("other", 3, 20, Class{})              // store now full: 50+30+20
	if s.Put("k", 4, 45, Class{IfRoom: true}) { // 45 > 30 credit + 0 free
		t.Error("no-room replacement admitted")
	}
	if v, tier := s.Get("k"); tier != MemoryTier || v.(int) != 1 {
		t.Errorf("rejected free-room put destroyed the existing copy (got %v, %v)", v, tier)
	}
	if got := s.ApproxBytes(); got != 100 {
		t.Errorf("ApproxBytes = %d, want 100", got)
	}
}

// TestBlockStoreCapacityInvariant: after any successful cache put,
// ApproxBytes never exceeds capacity.
func TestBlockStoreCapacityInvariant(t *testing.T) {
	s := NewBlockStore(1000, 0, nil)
	for i := 0; i < 200; i++ {
		size := int64(50 + (i*37)%300)
		admitted := s.Put(fmt.Sprintf("k%d", i%40), i, size, Class{})
		if admitted && size > s.Capacity() {
			t.Fatalf("block of %d admitted past capacity", size)
		}
		if got := s.ApproxBytes(); got > s.Capacity() {
			t.Fatalf("after put %d: ApproxBytes %d > capacity %d", i, got, s.Capacity())
		}
	}
}

// TestBlockStoreDeleteAccounting: regression — Delete (and overwrite)
// must subtract the block's accounted size; previously `bytes` leaked
// upward on every Delete, so ApproxBytes drifted forever.
func TestBlockStoreDeleteAccounting(t *testing.T) {
	s := NewBlockStore(0, 0, nil)
	s.Put("k", 1, 100, Class{Pinned: true})
	s.Delete("k")
	if got := s.ApproxBytes(); got != 0 {
		t.Errorf("ApproxBytes after Delete = %d, want 0", got)
	}
	s.Put("k", 1, 100, Class{Pinned: true})
	s.Put("k", 2, 30, Class{Pinned: true}) // overwrite must replace the accounting too
	if got := s.ApproxBytes(); got != 30 {
		t.Errorf("ApproxBytes after overwrite = %d, want 30", got)
	}
	s.Put("e", 3, 25, Class{})
	s.Delete("e")
	if got := s.ApproxBytes(); got != 30 {
		t.Errorf("ApproxBytes after evictable Delete = %d, want 30", got)
	}
	s.Delete("missing") // no-op, no drift
	if got := s.ApproxBytes(); got != 30 {
		t.Errorf("ApproxBytes after missing Delete = %d, want 30", got)
	}
}

// TestBlockStoreEvictionCallback: the observer fires once per
// capacity-evicted block with its accounted size — and not for
// explicit Delete or Wipe, whose callers own the bookkeeping.
func TestBlockStoreEvictionCallback(t *testing.T) {
	s := NewBlockStore(100, 0, nil)
	var mu sync.Mutex
	evicted := map[string]int64{}
	s.SetOnEvict(func(ev Eviction) {
		mu.Lock()
		evicted[ev.Key] += ev.Size
		mu.Unlock()
	})
	s.Put("a", 1, 60, Class{})
	s.Put("b", 2, 60, Class{}) // evicts a
	s.Delete("b")
	s.Put("c", 3, 60, Class{})
	s.Wipe()
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 || evicted["a"] != 60 {
		t.Errorf("observer saw %v, want only a:60", evicted)
	}
}

// TestClusterEvictionMetricsAndObserver: per-store evictions aggregate
// into the cluster's dispatch metrics, and every cluster-wide
// subscriber — registration is additive — hears them with the worker
// ID.
func TestClusterEvictionMetricsAndObserver(t *testing.T) {
	c := newTest(t, Config{Workers: 1, Slots: 1, WorkerMemoryBytes: 256})
	var mu sync.Mutex
	type ev struct {
		worker int
		key    string
	}
	var seen, seenToo []ev
	c.OnEviction(func(e Eviction) {
		mu.Lock()
		seen = append(seen, ev{e.Worker, e.Key})
		mu.Unlock()
	})
	c.OnEviction(func(e Eviction) {
		mu.Lock()
		seenToo = append(seenToo, ev{e.Worker, e.Key})
		mu.Unlock()
	})
	r := <-c.Submit(&Task{Fn: func(w *Worker) (any, error) {
		w.Store().Put("cache/a", 1, 200, Class{})
		w.Store().Put("cache/b", 2, 200, Class{})
		return nil, nil
	}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := c.Metrics().CacheEvictions.Load(); got != 1 {
		t.Errorf("CacheEvictions = %d, want 1", got)
	}
	if got := c.Metrics().BytesEvicted.Load(); got != 200 {
		t.Errorf("BytesEvicted = %d, want 200", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != (ev{0, "cache/a"}) {
		t.Errorf("observer saw %v, want [{0 cache/a}]", seen)
	}
	if len(seenToo) != 1 || seenToo[0] != (ev{0, "cache/a"}) {
		t.Errorf("second subscriber saw %v, want the same event", seenToo)
	}
}

// TestBlockStoreRace hammers one bounded store with concurrent
// pinned and cache Put/Get/Delete/Wipe plus the read-only accessors; run
// under -race this is the eviction-path race test.
func TestBlockStoreRace(t *testing.T) {
	s := NewBlockStore(4096, 0, nil)
	s.SetOnEvict(func(Eviction) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%64)
				switch i % 6 {
				case 0:
					s.Put(key, i, int64(64+(g*i)%128), Class{})
				case 1:
					s.Get(key)
				case 2:
					s.Delete(key)
				case 3:
					s.Put("pin/"+key, i, 16, Class{Pinned: true})
				case 4:
					s.Contains(key)
					s.ApproxBytes()
					s.Len()
				case 5:
					if i%250 == 0 {
						s.Wipe()
					} else {
						s.Keys()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Wipe()
	if s.Len() != 0 || s.ApproxBytes() != 0 {
		t.Errorf("after final Wipe: len=%d bytes=%d", s.Len(), s.ApproxBytes())
	}
}

// TestBlockStoreModel drives a tiered store with a seeded random
// stream of Put (every class) / Get / Delete / Wipe and checks the
// residency contract after every step against a reference model built
// only from what the store itself reported: what Put admitted, minus
// what was deleted, moved or dropped as its announced evictions say.
// If an eviction went unannounced, were announced twice, or carried the
// wrong Spilled flag, the model and the store disagree at once.
func TestBlockStoreModel(t *testing.T) {
	const capacity, diskCapacity = 1000, 1500
	type resident struct {
		val    any
		size   int64
		class  Class
		onDisk bool
	}
	for _, shuffleCapacity := range []int64{0, 400} {
		rng := rand.New(rand.NewSource(17))
		s := newSpillStore(t, capacity, shuffleCapacity, diskCapacity)
		model := map[string]*resident{}
		log := watchEvictions(s)
		for step := 0; step < 3000; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(24))
			log.evs = log.evs[:0]
			switch op := rng.Intn(100); {
			case op < 60:
				class := Class{Pinned: rng.Intn(5) == 0, Level: StorageLevel(rng.Intn(3)), IfRoom: rng.Intn(3) == 0}
				var val any = block(int64(step))
				if rng.Intn(6) == 0 {
					val = fmt.Sprint("unspillable-", step)
				}
				size := int64(20 + rng.Intn(300))
				if s.Put(key, val, size, class) {
					model[key] = &resident{val: val, size: size, class: class, onDisk: !s.InMemory(key)}
				} else if class.Pinned {
					t.Fatalf("step %d: pinned put rejected", step)
				}
				// A rejected put leaves the model's old entry in place:
				// the checks below fail if the store destroyed that copy.
			case op < 85:
				v, tier := s.Get(key)
				m := model[key]
				want := Miss
				if m != nil {
					want = MemoryTier
					if m.onDisk {
						want = DiskTier
					}
				}
				if tier != want || (m != nil && !reflect.DeepEqual(v, m.val)) {
					t.Fatalf("step %d: Get(%s) = %v from tier %v, model has %+v", step, key, v, tier, m)
				}
				if tier == DiskTier && s.InMemory(key) { // promoted
					if m.class.Pinned || m.class.Level != MemoryAndDisk {
						t.Fatalf("step %d: disk read promoted a %+v block", step, m.class)
					}
					m.onDisk = false
				}
			case op < 99:
				s.Delete(key)
				delete(model, key)
			default:
				s.Wipe()
				clear(model)
			}
			for _, ev := range log.evs {
				m := model[ev.Key]
				switch {
				case m == nil:
					t.Fatalf("step %d: eviction announced for non-resident block: %+v", step, ev)
				case m.size != ev.Size || ev.FromDisk && ev.Spilled:
					t.Fatalf("step %d: eviction %+v does not match resident %+v", step, ev, m)
				case m.class.Pinned:
					// Only the disk budget may drop a pinned block, after
					// the shuffle budget moved it there (unannounced —
					// possibly within this very put).
					if !ev.FromDisk {
						t.Fatalf("step %d: pinned block evicted from memory: %+v", step, ev)
					}
					delete(model, ev.Key)
				case ev.FromDisk != m.onDisk:
					t.Fatalf("step %d: eviction %+v from the wrong tier (resident on disk: %v)", step, ev, m.onDisk)
				case ev.Spilled:
					if m.class.Level != MemoryAndDisk {
						t.Fatalf("step %d: %v block spilled", step, m.class.Level)
					}
					m.onDisk = true
				default:
					delete(model, ev.Key)
				}
			}
			var memBytes, diskBytes, evictable int64
			var memLen, diskLen int
			for k, m := range model {
				if m.class.Pinned {
					// The shuffle budget moves pinned blocks to disk
					// without an announcement (nothing is lost).
					m.onDisk = !s.InMemory(k)
					if m.onDisk && shuffleCapacity == 0 {
						t.Fatalf("step %d: pinned block %s left memory without a shuffle budget", step, k)
					}
				}
				if s.InMemory(k) == m.onDisk || s.Disk().Contains(k) != m.onDisk {
					t.Fatalf("step %d: %s (on disk: %v) in memory: %v, on disk: %v — not on exactly its one tier",
						step, k, m.onDisk, s.InMemory(k), s.Disk().Contains(k))
				}
				switch {
				case m.onDisk:
					diskBytes += m.size
					diskLen++
				case !m.class.Pinned:
					evictable += m.size
					fallthrough
				default:
					memBytes += m.size
					memLen++
				}
			}
			if s.ApproxBytes() != memBytes || s.Len() != memLen || s.EvictableBytes() != evictable {
				t.Fatalf("step %d: memory tier accounts %d bytes (%d evictable) in %d blocks, residents sum to %d (%d) in %d",
					step, s.ApproxBytes(), s.EvictableBytes(), s.Len(), memBytes, evictable, memLen)
			}
			if d := s.Disk(); d.ApproxBytes() != diskBytes || d.Len() != diskLen {
				t.Fatalf("step %d: disk tier accounts %d bytes in %d blocks, residents sum to %d in %d",
					step, d.ApproxBytes(), d.Len(), diskBytes, diskLen)
			}
			if len(s.Keys()) != len(model) {
				t.Fatalf("step %d: store lists %d keys, model holds %d", step, len(s.Keys()), len(model))
			}
			if evictable > capacity || diskBytes > diskCapacity {
				t.Fatalf("step %d: %d evictable bytes / %d disk bytes over the %d / %d budgets",
					step, evictable, diskBytes, capacity, diskCapacity)
			}
		}
	}
}
