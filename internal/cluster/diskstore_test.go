package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// testSpillCodec handles []any slices of int64 — enough to exercise
// the tier without importing the production codec (which lives in the
// shuffle package and would import-cycle back here).
type testSpillCodec struct{}

func (testSpillCodec) EncodeSpill(v any) ([]byte, error) {
	xs, ok := v.([]any)
	if !ok {
		return nil, errors.New("unspillable")
	}
	out := binary.AppendUvarint(nil, uint64(len(xs)))
	for _, x := range xs {
		n, ok := x.(int64)
		if !ok {
			return nil, errors.New("unspillable element")
		}
		out = binary.AppendVarint(out, n)
	}
	return out, nil
}

func (testSpillCodec) DecodeSpill(data []byte) (any, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, errors.New("bad header")
	}
	data = data[off:]
	out := make([]any, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used := binary.Varint(data)
		if used <= 0 {
			return nil, errors.New("truncated")
		}
		out = append(out, v)
		data = data[used:]
	}
	return out, nil
}

func init() { RegisterSpillCodec(testSpillCodec{}) }

// block builds a spillable test value of ~n accounted bytes.
func block(vals ...int64) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func newSpillStore(t *testing.T, capacity, shuffleCapacity, diskCapacity int64) *BlockStore {
	t.Helper()
	return NewBlockStore(capacity, shuffleCapacity, NewDiskStore(t.TempDir(), diskCapacity))
}

// TestSpillOnEviction: a spillable LRU victim lands on the disk tier
// instead of being dropped, stays visible to Contains, and comes back
// through Get — served by the disk tier — with the original value.
func TestSpillOnEviction(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	log := watchEvictions(s)
	if !s.Put("a", block(1, 2), 60, Class{Level: MemoryAndDisk}) {
		t.Fatal("a rejected")
	}
	if !s.Put("b", block(3), 60, Class{Level: MemoryAndDisk}) { // evicts a → disk
		t.Fatal("b rejected")
	}
	if s.InMemory("a") {
		t.Error("a still memory-resident after eviction")
	}
	if !s.Contains("a") {
		t.Error("spilled block invisible to Contains")
	}
	v, tier := s.Get("a")
	if tier != DiskTier {
		t.Fatalf("spilled block served by tier %v, want the disk tier", tier)
	}
	if got := v.([]any); len(got) != 2 || got[0].(int64) != 1 || got[1].(int64) != 2 {
		t.Errorf("spilled value corrupted: %v", got)
	}
	spills, _ := log.memoryVictims(true)
	if drops, _ := log.memoryVictims(false); spills != 1 || drops != 0 {
		t.Errorf("spills=%d evictions=%d, want 1/0", spills, drops)
	}
	if s.Disk().SpilledBlocks() != 1 || s.Disk().ApproxBytes() != 60 {
		t.Errorf("disk accounts %d blocks/%d bytes, want 1/60", s.Disk().SpilledBlocks(), s.Disk().ApproxBytes())
	}
}

// TestUnspillableVictimDrops: a victim the codec cannot encode is
// dropped like a plain eviction (counted as such), never corrupted.
func TestUnspillableVictimDrops(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	log := watchEvictions(s)
	if !s.Put("a", "not-a-slice", 60, Class{Level: MemoryAndDisk}) {
		t.Fatal("a rejected")
	}
	if !s.Put("b", block(1), 60, Class{Level: MemoryAndDisk}) {
		t.Fatal("b rejected")
	}
	if s.Contains("a") {
		t.Error("unspillable victim still present")
	}
	spills, _ := log.memoryVictims(true)
	if drops, _ := log.memoryVictims(false); drops != 1 || spills != 0 {
		t.Errorf("evictions=%d spills=%d, want 1/0", drops, spills)
	}
	if s.Disk().EncodeFailures() == 0 {
		t.Error("encode failure not counted")
	}
}

// TestDiskTierLRUEviction: the disk tier has its own budget and LRU;
// overflowing it drops the least-recently-read spilled block and
// announces it as a from-disk eviction (the block is gone for good).
func TestDiskTierLRUEviction(t *testing.T) {
	s := newSpillStore(t, 50, 0, 100)
	var mu sync.Mutex
	var gone []string
	s.SetOnEvict(func(ev Eviction) {
		if !ev.FromDisk {
			return
		}
		if ev.Spilled {
			t.Errorf("disk eviction of %s announced as spilled", ev.Key)
		}
		mu.Lock()
		gone = append(gone, ev.Key)
		mu.Unlock()
	})
	// Three spillable blocks through a 50-byte memory tier: each new
	// put evicts (spills) the previous one.
	s.Put("a", block(1), 50, Class{Level: MemoryAndDisk})
	s.Put("b", block(2), 50, Class{Level: MemoryAndDisk}) // a → disk
	s.Put("c", block(3), 50, Class{Level: MemoryAndDisk}) // b → disk
	if _, tier := s.Get("a"); tier != DiskTier {          // refresh a: b is now disk-LRU
		t.Fatal("a missing from disk")
	}
	s.Put("d", block(4), 50, Class{Level: MemoryAndDisk}) // c → disk, disk over budget → b dropped
	if s.Contains("b") {
		t.Error("disk-LRU victim b still present")
	}
	if !s.Contains("a") || !s.Contains("c") {
		t.Errorf("wrong disk eviction victim: a=%v c=%v", s.Contains("a"), s.Contains("c"))
	}
	if s.Disk().Evictions() != 1 {
		t.Errorf("disk evictions = %d, want 1", s.Disk().Evictions())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gone) != 1 || gone[0] != "b" {
		t.Errorf("from-disk evictions announced: %v, want [b]", gone)
	}
	if got := s.Disk().ApproxBytes(); got > 100 {
		t.Errorf("disk tier accounts %d bytes over its 100 budget", got)
	}
}

// TestOverwriteWhileSpilledPurgesDiskCopy: regression for the
// double-count bug — overwriting a key whose block lives on disk must
// remove the disk copy too, or the store double-accounts the block
// and a later disk read resurrects the stale value.
func TestOverwriteWhileSpilledPurgesDiskCopy(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	s.Put("k", block(1), 60, Class{Level: MemoryAndDisk})
	s.Put("fill", block(9), 60, Class{Level: MemoryAndDisk}) // k → disk
	if !s.Disk().Contains("k") {
		t.Fatal("k not spilled")
	}
	// Overwrite k in memory (a recompute re-cached it).
	if !s.Put("k", block(2), 30, Class{Level: MemoryAndDisk}) {
		t.Fatal("overwrite rejected")
	}
	if s.Disk().Contains("k") {
		t.Error("stale disk copy survived the overwrite (double-counted)")
	}
	if got := s.Disk().ApproxBytes(); got != 0 {
		t.Errorf("disk still accounts %d bytes after the overwrite purge", got)
	}
	if v, tier := s.Get("k"); tier != MemoryTier || v.([]any)[0].(int64) != 2 {
		t.Errorf("memory copy wrong after overwrite: %v %v", v, tier)
	}
	// Pinned overwrite purges too.
	s2 := newSpillStore(t, 100, 0, -1)
	s2.Put("p", block(3), 60, Class{Level: MemoryAndDisk})
	s2.Put("fill", block(8), 60, Class{Level: MemoryAndDisk}) // p → disk
	if !s2.Disk().Contains("p") {
		t.Fatal("p not spilled")
	}
	s2.Put("p", "pinned-now", 10, Class{Pinned: true})
	if s2.Disk().Contains("p") {
		t.Error("pinned overwrite left a stale disk copy")
	}
}

// TestDeletePurgesBothTiers: Delete removes the block from memory and
// disk, file included, and the accounting on both tiers returns to
// zero — the Session.Close / shuffle-unregister cleanup path.
func TestDeletePurgesBothTiers(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	dir := s.Disk().Dir()
	s.Put("a", block(1), 60, Class{Level: MemoryAndDisk})
	s.Put("b", block(2), 60, Class{Level: MemoryAndDisk}) // a → disk
	s.Delete("a")
	s.Delete("b")
	if s.Contains("a") || s.Contains("b") {
		t.Error("blocks survive Delete")
	}
	if s.ApproxBytes() != 0 || s.Disk().ApproxBytes() != 0 {
		t.Errorf("accounting leaked: mem=%d disk=%d", s.ApproxBytes(), s.Disk().ApproxBytes())
	}
	ents, err := os.ReadDir(dir)
	if err == nil && len(ents) != 0 {
		t.Errorf("%d spill files leaked after Delete", len(ents))
	}
}

// TestKeysSpansTiers: Keys lists spilled blocks too, so prefix sweeps
// (shuffle Unregister) reach them.
func TestKeysSpansTiers(t *testing.T) {
	s := newSpillStore(t, 60, 0, -1)
	s.Put("x", block(1), 50, Class{Level: MemoryAndDisk})
	s.Put("y", block(2), 50, Class{Level: MemoryAndDisk}) // x → disk
	keys := map[string]bool{}
	for _, k := range s.Keys() {
		keys[k] = true
	}
	if !keys["x"] || !keys["y"] || len(keys) != 2 {
		t.Errorf("Keys() = %v, want {x,y}", keys)
	}
}

// TestWipeClearsDiskFiles: worker death wipes the disk tier and its
// files along with memory.
func TestWipeClearsDiskFiles(t *testing.T) {
	s := newSpillStore(t, 60, 0, -1)
	dir := s.Disk().Dir()
	s.Put("x", block(1), 50, Class{Level: MemoryAndDisk})
	s.Put("y", block(2), 50, Class{Level: MemoryAndDisk})
	s.Wipe()
	if s.Len() != 0 || s.Disk().Len() != 0 || s.Disk().ApproxBytes() != 0 {
		t.Errorf("state survives Wipe: len=%d disk=%d", s.Len(), s.Disk().Len())
	}
	if ents, err := os.ReadDir(dir); err == nil && len(ents) != 0 {
		t.Errorf("%d spill files survive Wipe", len(ents))
	}
}

// TestShuffleBudgetSplit: with a separate shuffle budget, pinned puts
// neither evict cache blocks nor count against the cache budget, and
// pinned bytes over the budget spill the coldest bucket to disk.
func TestShuffleBudgetSplit(t *testing.T) {
	s := newSpillStore(t, 100, 120, -1)
	if !s.Put("cache/a", block(1), 80, Class{Level: MemoryAndDisk}) {
		t.Fatal("cache block rejected")
	}
	// Pinned puts: 3 × 50 = 150 > 120 budget → the oldest spills.
	s.Put("shuf/1", block(10), 50, Class{Pinned: true})
	s.Put("shuf/2", block(11), 50, Class{Pinned: true})
	if !s.InMemory("cache/a") {
		t.Fatal("pinned put under its own budget evicted a cache block")
	}
	s.Put("shuf/3", block(12), 50, Class{Pinned: true})
	if !s.InMemory("cache/a") {
		t.Error("pinned overflow evicted a cache block despite the split budget")
	}
	if s.InMemory("shuf/1") {
		t.Error("coldest pinned bucket not spilled")
	}
	if v, tier := s.Get("shuf/1"); tier != DiskTier || v.([]any)[0].(int64) != 10 {
		t.Errorf("spilled bucket unreadable: %v %v", v, tier)
	}
	if s.InMemory("shuf/1") {
		t.Error("reading a spilled pinned bucket promoted it")
	}
	if got := s.PinnedBytes(); got > 120 {
		t.Errorf("pinned bytes %d over the 120 budget", got)
	}
	// Cache admissions ignore the pinned footprint entirely: a second
	// 80-byte cache block is feasible (evicting the first), even with
	// 100 pinned bytes resident.
	if !s.Put("cache/b", block(2), 80, Class{Level: MemoryAndDisk}) {
		t.Error("cache admission blocked by pinned bytes under the split budget")
	}
	if got := s.EvictableBytes(); got > 100 {
		t.Errorf("evictable bytes %d over the 100 cache budget", got)
	}
}

// TestShuffleBudgetUnspillableStays: pinned blocks the codec cannot
// spill stay resident over budget — correctness over the bound.
func TestShuffleBudgetUnspillableStays(t *testing.T) {
	s := newSpillStore(t, 100, 60, -1)
	s.Put("shuf/1", "path-string", 50, Class{Pinned: true}) // unspillable by the test codec
	s.Put("shuf/2", "path-string", 50, Class{Pinned: true})
	if !s.InMemory("shuf/1") || !s.InMemory("shuf/2") {
		t.Error("unspillable pinned block dropped")
	}
	if got := s.PinnedBytes(); got != 100 {
		t.Errorf("pinned bytes = %d, want 100 (over budget but resident)", got)
	}
}

// TestDiskOnlyPut: a DISK_ONLY put stores straight to disk and replaces
// any memory copy; a value the disk tier cannot take, or a store with
// no disk tier at all, degrades to the memory path so the table still
// caches somewhere; and a put neither tier admits leaves the old copy
// alone.
func TestDiskOnlyPut(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	s.Put("k", block(6), 40, Class{})
	if !s.Put("k", block(7), 40, Class{Level: DiskOnly}) {
		t.Fatal("DISK_ONLY put failed")
	}
	if s.InMemory("k") {
		t.Error("DISK_ONLY block resident in memory")
	}
	if v, tier := s.Get("k"); tier != DiskTier || v.([]any)[0].(int64) != 7 {
		t.Errorf("disk read = %v %v", v, tier)
	}
	if s.InMemory("k") {
		t.Error("reading a DISK_ONLY block promoted it into memory")
	}
	// Unencodable value: the disk tier refuses, memory takes it.
	if !s.Put("m", "unencodable", 10, Class{Level: DiskOnly}) {
		t.Error("unspillable DISK_ONLY put not degraded to memory")
	}
	if v, tier := s.Get("m"); tier != MemoryTier || v.(string) != "unencodable" {
		t.Errorf("degraded DISK_ONLY block = %v %v, want it in memory", v, tier)
	}
	// Neither tier can take it (unencodable, and infeasible beside the
	// pinned footprint): rejected, and the live copy survives.
	s.Put("pin", 0, 60, Class{Pinned: true})
	if s.Put("m", "also-unencodable", 50, Class{Level: DiskOnly}) {
		t.Error("put no tier can hold reported success")
	}
	if v, tier := s.Get("m"); tier != MemoryTier || v.(string) != "unencodable" {
		t.Errorf("rejected DISK_ONLY put destroyed the live copy: %v %v", v, tier)
	}
	// No disk tier at all: DISK_ONLY still caches, in memory.
	bare := NewBlockStore(100, 0, nil)
	if !bare.Put("x", block(1), 10, Class{Level: DiskOnly}) || !bare.InMemory("x") {
		t.Error("DISK_ONLY without a disk tier did not cache in memory")
	}
}

// TestMemoryAndDiskPut: a MEMORY_AND_DISK block infeasible beside the
// pinned footprint is left on disk rather than rejected, a rejected
// free-room put leaves the old copy on the disk tier alone, and a disk
// read promotes the block back into free room only.
func TestMemoryAndDiskPut(t *testing.T) {
	s := newSpillStore(t, 100, 0, -1)
	s.Put("pin", 0, 70, Class{Pinned: true})
	if !s.Put("a", block(1), 50, Class{Level: MemoryAndDisk}) { // 70+50 > 100
		t.Fatal("infeasible MEMORY_AND_DISK put left no disk copy")
	}
	if s.InMemory("a") || !s.Disk().Contains("a") {
		t.Fatal("infeasible MEMORY_AND_DISK block not on the disk tier")
	}
	if s.Put("a", block(2), 50, Class{Level: MemoryAndDisk, IfRoom: true}) {
		t.Error("free-room put admitted without room")
	}
	if v, tier := s.Get("a"); tier != DiskTier || v.([]any)[0].(int64) != 1 {
		t.Errorf("rejected free-room put destroyed the disk copy: %v %v", v, tier)
	}
	if s.InMemory("a") {
		t.Error("promotion displaced residents (no free room)")
	}
	s.Delete("pin")
	s.Put("b", block(3), 60, Class{})
	if _, tier := s.Get("a"); tier != DiskTier || s.InMemory("a") || !s.InMemory("b") {
		t.Errorf("promotion without room: tier=%v a-in-memory=%v b-in-memory=%v", tier, s.InMemory("a"), s.InMemory("b"))
	}
	s.Delete("b")
	if _, tier := s.Get("a"); tier != DiskTier {
		t.Fatalf("a served by tier %v, want the disk tier", tier)
	}
	if !s.InMemory("a") || s.Disk().Contains("a") || s.Disk().ApproxBytes() != 0 {
		t.Error("disk hit with free room did not move the block to memory (one tier only)")
	}
	if _, tier := s.Get("a"); tier != MemoryTier {
		t.Errorf("promoted block served by tier %v", tier)
	}
}

// TestDiskStoreConcurrent hammers a tiered store with concurrent
// spills, reads, promotes, deletes and wipes; run under -race this is
// the disk-tier race suite.
func TestDiskStoreConcurrent(t *testing.T) {
	s := newSpillStore(t, 2048, 512, 4096)
	s.SetOnEvict(func(Eviction) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%d", (g*29+i)%48)
				switch i % 8 {
				case 0:
					s.Put(key, block(int64(i)), int64(96+(g*i)%128), Class{Level: MemoryAndDisk})
				case 1:
					s.Get(key)
				case 2:
					s.Get("d/" + key)
				case 3:
					s.Delete(key)
				case 4:
					s.Put("shuf/"+key, block(int64(g)), 64, Class{Pinned: true})
				case 5:
					s.Put("d/"+key, block(int64(i)), 80, Class{Level: DiskOnly})
				case 6:
					s.Contains(key)
					s.ApproxBytes()
					s.Disk().ApproxBytes()
					s.Keys()
				case 7:
					if i%200 == 0 {
						s.Wipe()
					} else {
						s.Put(key, block(int64(i)), 64, Class{Level: MemoryAndDisk, IfRoom: true})
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Wipe()
	if s.Len() != 0 || s.ApproxBytes() != 0 || s.Disk().Len() != 0 || s.Disk().ApproxBytes() != 0 {
		t.Errorf("after final Wipe: len=%d bytes=%d diskLen=%d diskBytes=%d",
			s.Len(), s.ApproxBytes(), s.Disk().Len(), s.Disk().ApproxBytes())
	}
}

// TestClusterSpillMetricsAndObserver: spills are visible in the
// dispatch metrics and the eviction event reports Spilled, so
// subscribers do not count it as a loss.
func TestClusterSpillMetricsAndObserver(t *testing.T) {
	c := newTest(t, Config{Workers: 1, Slots: 1, WorkerMemoryBytes: 256, WorkerDiskBytes: -1})
	var mu sync.Mutex
	type ev struct {
		key     string
		spilled bool
	}
	var seen []ev
	c.OnEviction(func(e Eviction) {
		mu.Lock()
		seen = append(seen, ev{e.Key, e.Spilled})
		mu.Unlock()
	})
	r := <-c.Submit(&Task{Fn: func(w *Worker) (any, error) {
		w.Store().Put("cache/a", block(1), 200, Class{Level: MemoryAndDisk})
		w.Store().Put("cache/b", block(2), 200, Class{Level: MemoryAndDisk})
		return nil, nil
	}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := c.Metrics().SpilledBlocks.Load(); got != 1 {
		t.Errorf("SpilledBlocks = %d, want 1", got)
	}
	if got := c.Metrics().CacheEvictions.Load(); got != 0 {
		t.Errorf("CacheEvictions = %d, want 0 (the victim spilled)", got)
	}
	ds := c.DiskTierStats()
	if ds.SpilledBlocks != 1 || ds.BytesSpilled != 200 {
		t.Errorf("DiskTierStats = %+v, want 1 block/200 bytes", ds)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != (ev{"cache/a", true}) {
		t.Errorf("observer saw %v, want [{cache/a true}]", seen)
	}
}

// TestClusterCloseRemovesSpillDirs: closing the cluster removes its
// temp spill root.
func TestClusterCloseRemovesSpillDirs(t *testing.T) {
	c := New(Config{Workers: 2, Slots: 1, WorkerMemoryBytes: 64, WorkerDiskBytes: -1})
	r := <-c.Submit(&Task{Fn: func(w *Worker) (any, error) {
		w.Store().Put("a", block(1), 60, Class{Level: MemoryAndDisk})
		w.Store().Put("b", block(2), 60, Class{Level: MemoryAndDisk})
		return nil, nil
	}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	root := c.spillRoot
	if root == "" {
		t.Fatal("no spill root created")
	}
	c.Close()
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Errorf("spill root %s survives Close (err=%v)", root, err)
	}
}
