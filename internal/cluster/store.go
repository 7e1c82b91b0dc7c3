package cluster

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
)

// StorageLevel selects which block-store tiers a cached partition may
// occupy — the paper's RDD storage levels (§3.2): a cached partition
// that no longer fits in RAM should fall to local disk and be read
// back far cheaper than recomputing it from lineage.
type StorageLevel int32

const (
	// MemoryOnly keeps cached partitions in worker memory only; LRU
	// victims are dropped and rebuilt by remote reads or lineage (the
	// default).
	MemoryOnly StorageLevel = iota
	// MemoryAndDisk serves from memory but drains LRU victims into the
	// worker's disk tier, promoting them back on read when free room
	// exists.
	MemoryAndDisk
	// DiskOnly materializes straight to the disk tier, leaving worker
	// memory to other tables — for large, rarely-read tables that
	// should never pressure the hot working set.
	DiskOnly
)

// String names the level in SQL/TBLPROPERTIES spelling.
func (l StorageLevel) String() string {
	switch l {
	case MemoryAndDisk:
		return "MEMORY_AND_DISK"
	case DiskOnly:
		return "DISK_ONLY"
	}
	return "MEMORY_ONLY"
}

// ParseStorageLevel resolves a level name (case-insensitive, with the
// common aliases), reporting whether it was recognized.
func ParseStorageLevel(s string) (StorageLevel, bool) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "MEMORY", "MEMORY_ONLY":
		return MemoryOnly, true
	case "MEMORY_AND_DISK":
		return MemoryAndDisk, true
	case "DISK", "DISK_ONLY":
		return DiskOnly, true
	}
	return MemoryOnly, false
}

// Class tells Put what kind of block it is storing. Everything the
// store later decides about the block — which tier holds it, whether
// pressure may drop or spill it, whether a disk read promotes it —
// follows from the class, so callers never pick a tier themselves.
type Class struct {
	// Pinned marks a shuffle map output: never silently dropped, since
	// losing one would corrupt a running job rather than degrade to
	// recomputation. Level and IfRoom are ignored. The zero Class is a
	// MEMORY_ONLY cache block that may displace LRU residents.
	Pinned bool
	// Level is a cache block's storage level.
	Level StorageLevel
	// IfRoom admits a cache block only into free room. Opportunistic
	// copies (remote-read replicas) use it: displacing residents for
	// data another worker already holds would turn a cheap fetch into
	// someone else's recompute.
	IfRoom bool
}

// Tier says which tier of a store served a Get.
type Tier int

const (
	// Miss: the store holds the block on no tier.
	Miss Tier = iota
	// MemoryTier: served from worker memory.
	MemoryTier
	// DiskTier: read back (decoded) from the local-disk spill tier.
	DiskTier
)

// Eviction is one block a store lost from a tier to capacity pressure.
// Explicit Delete and Wipe are not evictions: their callers already
// own the bookkeeping.
type Eviction struct {
	// Worker is the store's worker ID (stamped by the cluster).
	Worker int
	Key    string
	Size   int64
	// Spilled: the memory tier's victim survived on the disk tier and
	// is still locally readable. When false the block is gone.
	Spilled bool
	// FromDisk: it was the disk budget that dropped the block.
	FromDisk bool
}

// BlockStore is a worker-local store keyed by string block IDs, and
// the single owner of block residency: RDD cache partitions, cached
// results and shuffle map outputs all live here, so killing a worker
// loses exactly the state a real node loss would.
//
// The store is tiered (§3.2: storage levels). The in-memory tier may
// be capacity-bounded; under it an optional local-disk spill tier
// (DiskStore) with its own budget catches LRU victims, so a working
// set larger than memory degrades to disk reads instead of remote
// fetches or lineage recomputation. Blocks come in two classes:
//
//   - Cache blocks participate in an LRU order; admitting a new block
//     evicts the least-recently-used cache blocks until it fits, and
//     Get refreshes recency. MEMORY_AND_DISK victims drain into the
//     disk tier instead of being dropped. A block that cannot fit even
//     after evicting every cache block is rejected rather than stored.
//   - Pinned blocks (shuffle map outputs) are never silently dropped.
//     With a separate shuffle budget configured, pinned bytes are
//     charged to it instead of the cache budget (a shuffle-heavy job
//     cannot starve the cache), and pinned blocks over that budget
//     spill to disk. They are freed only by explicit Delete when their
//     shuffle is unregistered.
type BlockStore struct {
	mu     sync.Mutex
	blocks map[string]*blockEntry
	lru    *list.List // cache keys; front = most recently used
	// pinnedLRU orders pinned keys by recency so the shuffle budget
	// spills the coldest bucket first.
	pinnedLRU *list.List
	capacity  int64 // cache budget; 0 = unbounded
	// shuffleCapacity is the separate pinned budget. 0 = legacy shared
	// accounting: pinned bytes count against capacity and pinned puts
	// evict cache blocks to fit.
	shuffleCapacity int64
	// evictableBytes / pinnedBytes split the accounted footprint by
	// block class (bytes = evictableBytes + pinnedBytes).
	evictableBytes int64
	pinnedBytes    int64
	disk           *DiskStore // nil = no spill tier
	onEvict        func(Eviction)

	bytes atomic.Int64
}

type blockEntry struct {
	value any
	size  int64
	elem  *list.Element // in lru for cache blocks, pinnedLRU for pinned
	// pinned marks shuffle-output blocks (never LRU-evicted).
	pinned bool
	// spillable marks cache blocks the disk tier catches on eviction
	// (MEMORY_AND_DISK).
	spillable bool
}

// NewBlockStore creates a store with a cache budget (0 = unbounded),
// an optional separate pinned-shuffle budget (0 = shared with the
// cache budget), and an optional disk spill tier.
func NewBlockStore(capacityBytes, shuffleCapacityBytes int64, disk *DiskStore) *BlockStore {
	return &BlockStore{
		blocks:          make(map[string]*blockEntry),
		lru:             list.New(),
		pinnedLRU:       list.New(),
		capacity:        capacityBytes,
		shuffleCapacity: shuffleCapacityBytes,
		disk:            disk,
	}
}

// Capacity returns the cache byte budget (0 = unbounded).
func (s *BlockStore) Capacity() int64 { return s.capacity }

// Disk returns the spill tier, or nil.
func (s *BlockStore) Disk() *DiskStore { return s.disk }

// SetOnEvict installs the store's eviction callback, invoked (outside
// the store lock, after the evicting put returns the space) once per
// block either tier's budget pushed out. The cluster installs the one
// production callback and fans it out to its subscribers.
func (s *BlockStore) SetOnEvict(fn func(Eviction)) {
	s.mu.Lock()
	s.onEvict = fn
	s.mu.Unlock()
}

// splitBudgets reports whether pinned bytes are charged to their own
// budget. Caller holds s.mu.
func (s *BlockStore) splitBudgets() bool { return s.shuffleCapacity > 0 }

// Put stores a block with an approximate size for accounting and
// reports whether any tier admitted it; what admission means follows
// from the class.
//
// Pinned blocks always store. Under the legacy shared budget, cache
// blocks are evicted to make room (best-effort — pinned bytes alone
// may exceed capacity, correctness over the bound). Under a separate
// shuffle budget, pinned bytes never touch the cache budget; instead
// the coldest pinned blocks spill to the disk tier until the budget
// holds (blocks the codec cannot spill stay resident over budget).
//
// A cache block that does not fit even after evicting every other
// cache block — or, with IfRoom, without evicting any — is rejected
// before anything is touched, so the evictable footprint never exceeds
// the cache budget because of a cache put, the cache is not drained
// for nothing, and a live copy already under the key survives on
// either tier. An admission replaces any copy on the other tier, so a
// block is charged to exactly one. The levels degrade rather than
// fail: a MEMORY_AND_DISK block infeasible beside the pinned footprint
// is left on disk so the next read is not a recompute, and a DISK_ONLY
// block the disk tier is absent for or cannot take falls back to the
// memory path so the table still caches somewhere.
func (s *BlockStore) Put(key string, value any, sizeBytes int64, class Class) bool {
	s.mu.Lock()
	var admitted bool
	var evicted []Eviction
	switch {
	case class.Pinned:
		admitted, evicted = true, s.putPinnedLocked(key, value, sizeBytes)
	case class.Level == DiskOnly:
		admitted, evicted = s.putDiskLocked(key, value, sizeBytes, false)
		if !admitted {
			ok, more := s.putCacheLocked(key, value, sizeBytes, class)
			admitted, evicted = ok, append(evicted, more...)
		}
	default:
		admitted, evicted = s.putCacheLocked(key, value, sizeBytes, class)
		if !admitted && class.Level == MemoryAndDisk && !class.IfRoom {
			admitted, evicted = s.putDiskLocked(key, value, sizeBytes, true)
		}
	}
	fn := s.onEvict
	s.mu.Unlock()
	if fn != nil {
		for _, ev := range evicted {
			fn(ev)
		}
	}
	return admitted
}

// putPinnedLocked stores a pinned block. Caller holds s.mu.
func (s *BlockStore) putPinnedLocked(key string, value any, sizeBytes int64) []Eviction {
	s.removeLocked(key, true)
	var evicted []Eviction
	if !s.splitBudgets() {
		evicted = s.evictForLocked(sizeBytes)
	}
	e := &blockEntry{value: value, size: sizeBytes, pinned: true}
	e.elem = s.pinnedLRU.PushFront(key)
	s.blocks[key] = e
	s.bytes.Add(sizeBytes)
	s.pinnedBytes += sizeBytes
	if s.splitBudgets() {
		evicted = append(evicted, s.spillPinnedLocked()...)
	}
	return evicted
}

// spillPinnedLocked drains the coldest pinned blocks into the disk
// tier until pinnedBytes fits the shuffle budget, skipping blocks that
// fail to spill (no disk tier, unspillable value, or disk budget too
// small). Caller holds s.mu.
func (s *BlockStore) spillPinnedLocked() []Eviction {
	if s.disk == nil {
		return nil
	}
	var out []Eviction
	elem := s.pinnedLRU.Back()
	for elem != nil && s.pinnedBytes > s.shuffleCapacity {
		prev := elem.Prev()
		key := elem.Value.(string)
		e := s.blocks[key]
		ok, dropped := s.disk.spill(key, e.value, e.size, false)
		// Disk victims are gone whether or not the write that displaced
		// them succeeded — always propagate them so subscribers and
		// metrics hear about the loss.
		out = append(out, dropped...)
		if ok {
			delete(s.blocks, key)
			s.pinnedLRU.Remove(elem)
			s.bytes.Add(-e.size)
			s.pinnedBytes -= e.size
		}
		elem = prev
	}
	return out
}

// putCacheLocked admits a cache block into the memory tier, or rejects
// it without touching the store. Caller holds s.mu.
func (s *BlockStore) putCacheLocked(key string, value any, sizeBytes int64, class Class) (bool, []Eviction) {
	if s.capacity > 0 {
		// What the block must fit beside: the pinned footprint no put
		// may displace, plus — when admission may not evict — the
		// resident cache blocks, less a cache copy under this key (it
		// would be replaced).
		used := s.pinnedAgainstCacheLocked()
		if class.IfRoom {
			used += s.evictableBytes
			if e, ok := s.blocks[key]; ok && !e.pinned {
				used -= e.size
			}
		}
		if used+sizeBytes > s.capacity {
			return false, nil
		}
	}
	s.removeLocked(key, true)
	evicted := s.evictForLocked(sizeBytes)
	e := &blockEntry{value: value, size: sizeBytes, spillable: class.Level == MemoryAndDisk}
	e.elem = s.lru.PushFront(key)
	s.blocks[key] = e
	s.bytes.Add(sizeBytes)
	s.evictableBytes += sizeBytes
	return true, evicted
}

// pinnedAgainstCacheLocked returns the pinned bytes charged to the
// cache budget: all of them under the legacy shared accounting, none
// under a separate shuffle budget. Caller holds s.mu.
func (s *BlockStore) pinnedAgainstCacheLocked() int64 {
	if s.splitBudgets() {
		return 0
	}
	return s.pinnedBytes
}

// putDiskLocked writes a cache block straight to the disk tier,
// replacing any in-memory copy on success; on failure the store is
// unchanged. promote says whether a later read may move the block up
// into free memory room. Caller holds s.mu.
func (s *BlockStore) putDiskLocked(key string, value any, sizeBytes int64, promote bool) (bool, []Eviction) {
	if s.disk == nil {
		return false, nil
	}
	ok, dropped := s.disk.spill(key, value, sizeBytes, promote)
	if ok {
		s.removeLocked(key, false) // keep the disk copy just written
	}
	return ok, dropped
}

// evictForLocked evicts least-recently-used cache blocks until
// sizeBytes more would fit under the cache budget (or no cache block
// is left), spilling spillable victims to the disk tier and returning
// the evictions to announce. Caller holds s.mu.
func (s *BlockStore) evictForLocked(sizeBytes int64) []Eviction {
	if s.capacity <= 0 {
		return nil
	}
	var out []Eviction
	for s.evictableBytes+s.pinnedAgainstCacheLocked()+sizeBytes > s.capacity {
		back := s.lru.Back()
		if back == nil {
			break
		}
		key := back.Value.(string)
		e := s.blocks[key]
		delete(s.blocks, key)
		s.lru.Remove(back)
		s.bytes.Add(-e.size)
		s.evictableBytes -= e.size
		spilled := false
		if e.spillable && s.disk != nil {
			// The spill (encode + file write) runs under s.mu on
			// purpose: releasing the lock first would let an overwrite
			// or Delete for the same key race the write and resurrect a
			// stale disk copy — the double-count bug this store guards
			// against. The simulator trades some lock hold time for
			// that ordering guarantee.
			ok, dropped := s.disk.spill(key, e.value, e.size, true)
			spilled = ok
			out = append(out, dropped...)
		}
		out = append(out, Eviction{Key: key, Size: e.size, Spilled: spilled})
	}
	return out
}

// Get fetches a block, walking memory then disk, and reports which
// tier served it so hit metrics stay per-tier honest. A memory hit
// refreshes the block's recency. A disk hit refreshes its disk
// recency, and a MEMORY_AND_DISK block is promoted back into free
// memory room (never displacing residents; it re-spills on the next
// eviction). The walk holds the store lock throughout — the same
// ordering trade the spill write makes — so a block moving between
// tiers is never missed on both and a Delete racing the read cannot be
// undone by the promotion.
func (s *BlockStore) Get(key string) (any, Tier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.blocks[key]; ok {
		if e.pinned {
			s.pinnedLRU.MoveToFront(e.elem)
		} else {
			s.lru.MoveToFront(e.elem)
		}
		return e.value, MemoryTier
	}
	if s.disk == nil {
		return nil, Miss
	}
	v, e := s.disk.read(key)
	if e == nil {
		return nil, Miss
	}
	if e.promote {
		s.putCacheLocked(key, v, e.size, Class{Level: MemoryAndDisk, IfRoom: true})
	}
	return v, DiskTier
}

// Contains reports whether a block is present on any tier without
// touching its recency (bookkeeping probes must not look like use).
// A disk-resident block is still a valid location: the worker serves
// it locally and remote readers can fetch it.
func (s *BlockStore) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[key]
	return ok || s.disk != nil && s.disk.Contains(key)
}

// InMemory reports whether a block is resident in the memory tier.
func (s *BlockStore) InMemory(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blocks[key]
	return ok
}

// Delete removes a block from every tier, subtracting its accounted
// bytes and deleting any spill file.
func (s *BlockStore) Delete(key string) {
	s.mu.Lock()
	s.removeLocked(key, true)
	s.mu.Unlock()
}

// removeLocked removes a block and its accounting; purgeDisk extends
// the removal to the disk tier (every overwrite and Delete must, or a
// stale spilled copy would shadow the new value and double-count the
// footprint). Caller holds s.mu.
func (s *BlockStore) removeLocked(key string, purgeDisk bool) {
	if purgeDisk && s.disk != nil {
		s.disk.Delete(key)
	}
	e, ok := s.blocks[key]
	if !ok {
		return
	}
	delete(s.blocks, key)
	if e.pinned {
		s.pinnedLRU.Remove(e.elem)
		s.pinnedBytes -= e.size
	} else {
		s.lru.Remove(e.elem)
		s.evictableBytes -= e.size
	}
	s.bytes.Add(-e.size)
}

// Keys returns a snapshot of all block IDs across both tiers.
func (s *BlockStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.blocks))
	for k := range s.blocks {
		out = append(out, k)
	}
	if s.disk != nil {
		// Under s.mu a key is on exactly one tier: no duplicates.
		out = append(out, s.disk.Keys()...)
	}
	return out
}

// Len returns the number of memory-resident blocks.
func (s *BlockStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// ApproxBytes returns the accounted size of memory-resident blocks.
func (s *BlockStore) ApproxBytes() int64 { return s.bytes.Load() }

// EvictableBytes returns the accounted size of cache blocks in memory.
func (s *BlockStore) EvictableBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictableBytes
}

// PinnedBytes returns the accounted size of pinned (shuffle) blocks in
// memory.
func (s *BlockStore) PinnedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pinnedBytes
}

// Wipe clears both tiers (worker death — the node's local disk dies
// with it). Not an eviction: readers find nothing on a dead or
// restarted worker because nothing is there.
func (s *BlockStore) Wipe() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks = make(map[string]*blockEntry)
	s.lru.Init()
	s.pinnedLRU.Init()
	s.bytes.Store(0)
	s.evictableBytes = 0
	s.pinnedBytes = 0
	if s.disk != nil {
		s.disk.Wipe()
	}
}
