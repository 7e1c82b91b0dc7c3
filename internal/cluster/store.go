package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// BlockStore is a worker-local store keyed by string block IDs. RDD
// cache partitions and shuffle map outputs both live here, so killing
// a worker loses exactly the state a real node loss would.
//
// The store is tiered (§3.2: storage levels). The in-memory tier may
// be capacity-bounded; under it an optional local-disk spill tier
// (DiskStore) with its own budget catches LRU victims, so a working
// set larger than memory degrades to disk reads instead of remote
// fetches or lineage recomputation. Blocks come in two classes:
//
//   - Evictable blocks (RDD cache partitions, stored with
//     PutEvictable / PutEvictableSpillable) participate in an LRU
//     order; admitting a new block evicts the least-recently-used
//     evictable blocks until it fits, and Get refreshes recency.
//     Spillable victims drain into the disk tier instead of being
//     dropped. A block that cannot fit even after evicting everything
//     evictable is rejected rather than stored.
//   - Pinned blocks (shuffle map outputs, stored with Put) are never
//     silently dropped: losing one would corrupt a running job rather
//     than degrade to recomputation. With a separate shuffle budget
//     configured, pinned bytes are charged to it instead of the cache
//     budget (a shuffle-heavy job cannot starve the cache), and
//     pinned blocks over that budget spill to disk. They are freed
//     only by explicit Delete when their shuffle is unregistered
//     (epoch pruning).
type BlockStore struct {
	mu     sync.Mutex
	blocks map[string]*blockEntry
	lru    *list.List // evictable keys; front = most recently used
	// pinnedLRU orders pinned keys by recency so the shuffle budget
	// spills the coldest bucket first.
	pinnedLRU *list.List
	capacity  int64 // cache budget; 0 = unbounded
	// shuffleCapacity is the separate pinned budget. 0 = legacy shared
	// accounting: pinned bytes count against capacity and pinned puts
	// evict evictable blocks to fit.
	shuffleCapacity int64
	// evictableBytes / pinnedBytes split the accounted footprint by
	// block class (bytes = evictableBytes + pinnedBytes).
	evictableBytes int64
	pinnedBytes    int64
	disk           *DiskStore // nil = no spill tier
	onEvict        func(key string, sizeBytes int64, spilled bool)
	onDiskEvict    func(key string, sizeBytes int64)

	bytes        atomic.Int64
	epoch        atomic.Int64 // bumped on Wipe, lets holders detect loss
	evictions    atomic.Int64 // memory-tier drops without a disk copy
	bytesEvicted atomic.Int64
	spills       atomic.Int64 // memory-tier victims saved to disk
	bytesSpilled atomic.Int64
}

type blockEntry struct {
	value any
	size  int64
	elem  *list.Element // in lru for evictable blocks, pinnedLRU for pinned
	// pinned marks shuffle-output blocks (never LRU-evicted).
	pinned bool
	// spillable marks blocks the disk tier may catch on eviction
	// (MEMORY_AND_DISK cache partitions; shuffle buckets under a
	// shuffle budget).
	spillable bool
}

// NewBlockStore creates an empty, unbounded store.
func NewBlockStore() *BlockStore { return NewBoundedBlockStore(0) }

// NewBoundedBlockStore creates an empty store holding at most
// capacityBytes of accounted blocks (0 = unbounded), with no disk tier
// and legacy shared pinned accounting.
func NewBoundedBlockStore(capacityBytes int64) *BlockStore {
	return NewTieredBlockStore(capacityBytes, 0, nil)
}

// NewTieredBlockStore creates a store with a cache budget, an optional
// separate pinned-shuffle budget (0 = shared with the cache budget),
// and an optional disk spill tier.
func NewTieredBlockStore(capacityBytes, shuffleCapacityBytes int64, disk *DiskStore) *BlockStore {
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

// SetOnEvict installs the memory-tier eviction callback, invoked
// (outside the store lock, after the evicting put returns the space)
// once per capacity-evicted block; spilled reports whether the block
// survived on the disk tier. Explicit Delete and Wipe do not fire it:
// their callers already own the bookkeeping.
func (s *BlockStore) SetOnEvict(fn func(key string, sizeBytes int64, spilled bool)) {
	s.mu.Lock()
	s.onEvict = fn
	s.mu.Unlock()
}

// SetOnDiskEvict installs the disk-tier eviction callback, invoked
// (outside the store lock) once per block the disk budget dropped for
// good — after it fires, no local copy exists on any tier.
func (s *BlockStore) SetOnDiskEvict(fn func(key string, sizeBytes int64)) {
	s.mu.Lock()
	s.onDiskEvict = fn
	s.mu.Unlock()
}

// splitBudgets reports whether pinned bytes are charged to their own
// budget. Caller holds s.mu.
func (s *BlockStore) splitBudgets() bool { return s.shuffleCapacity > 0 }

// Put stores a pinned block with an approximate size for accounting.
// Pinned blocks always store. Under the legacy shared budget, when
// capacity is exceeded evictable blocks are evicted to make room
// (best-effort — pinned bytes alone may exceed capacity, correctness
// over the bound). Under a separate shuffle budget, pinned bytes never
// touch the cache budget; instead the coldest pinned blocks spill to
// the disk tier until the budget holds (blocks the codec cannot spill
// stay resident over budget — again correctness over the bound).
func (s *BlockStore) Put(key string, value any, sizeBytes int64) {
	s.mu.Lock()
	s.removeLocked(key, true)
	var evicted []evictedBlock
	if !s.splitBudgets() {
		evicted = s.evictForLocked(sizeBytes)
	}
	e := &blockEntry{value: value, size: sizeBytes, pinned: true, spillable: true}
	e.elem = s.pinnedLRU.PushFront(key)
	s.blocks[key] = e
	s.bytes.Add(sizeBytes)
	s.pinnedBytes += sizeBytes
	if s.splitBudgets() {
		evicted = append(evicted, s.spillPinnedLocked()...)
	}
	fn, dfn := s.onEvict, s.onDiskEvict
	s.mu.Unlock()
	s.notifyEvicted(fn, dfn, evicted)
}

// spillPinnedLocked drains the coldest pinned blocks into the disk
// tier until pinnedBytes fits the shuffle budget, skipping blocks that
// fail to spill (no disk tier, unspillable value, or disk budget too
// small). Caller holds s.mu.
func (s *BlockStore) spillPinnedLocked() []evictedBlock {
	if s.pinnedBytes <= s.shuffleCapacity {
		return nil
	}
	var out []evictedBlock
	elem := s.pinnedLRU.Back()
	for elem != nil && s.pinnedBytes > s.shuffleCapacity {
		prev := elem.Prev()
		key := elem.Value.(string)
		e := s.blocks[key]
		if s.disk != nil {
			ok, dropped := s.disk.Spill(key, e.value, e.size)
			// Disk victims are gone whether or not the write that
			// displaced them succeeded — always propagate them so the
			// tracker and metrics hear about the loss.
			out = append(out, dropped...)
			if ok {
				delete(s.blocks, key)
				s.pinnedLRU.Remove(elem)
				s.bytes.Add(-e.size)
				s.pinnedBytes -= e.size
				s.spills.Add(1)
				s.bytesSpilled.Add(e.size)
			}
		}
		elem = prev
	}
	return out
}

// PutEvictable stores a non-spillable block that LRU eviction may
// reclaim (the MEMORY_ONLY level). It reports whether the block was
// admitted: a block that does not fit even after evicting every other
// evictable block is rejected, so the evictable footprint never
// exceeds the cache budget because of an evictable put.
func (s *BlockStore) PutEvictable(key string, value any, sizeBytes int64) bool {
	return s.putEvictable(key, value, sizeBytes, false)
}

// PutEvictableSpillable is PutEvictable for a block whose eviction
// victims — including, later, this block itself — drain to the disk
// tier instead of being dropped (the MEMORY_AND_DISK level).
func (s *BlockStore) PutEvictableSpillable(key string, value any, sizeBytes int64) bool {
	return s.putEvictable(key, value, sizeBytes, true)
}

func (s *BlockStore) putEvictable(key string, value any, sizeBytes int64, spillable bool) bool {
	s.mu.Lock()
	if s.capacity > 0 && s.pinnedAgainstCacheLocked()+sizeBytes > s.capacity {
		// Infeasible even after evicting every evictable block: reject
		// up front — before removeLocked — so the cache is not drained
		// for nothing and any live copy already under this key
		// survives (in either tier).
		s.mu.Unlock()
		return false
	}
	s.removeLocked(key, true)
	evicted := s.evictForLocked(sizeBytes)
	s.admitLocked(key, value, sizeBytes, spillable)
	fn, dfn := s.onEvict, s.onDiskEvict
	s.mu.Unlock()
	s.notifyEvicted(fn, dfn, evicted)
	return true
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

// admitLocked inserts an evictable block. Caller holds s.mu, has
// established feasibility, and has removed any same-key entry.
func (s *BlockStore) admitLocked(key string, value any, sizeBytes int64, spillable bool) {
	e := &blockEntry{value: value, size: sizeBytes, spillable: spillable}
	e.elem = s.lru.PushFront(key)
	s.blocks[key] = e
	s.bytes.Add(sizeBytes)
	s.evictableBytes += sizeBytes
}

// PutEvictableIfRoom admits an evictable block only when it fits
// without evicting anything. Opportunistic replication (remote cache
// reads) and disk-tier promotion use this: displacing resident blocks
// for data the worker touched once would turn a cheap fetch into
// someone else's recompute.
func (s *BlockStore) PutEvictableIfRoom(key string, value any, sizeBytes int64) bool {
	return s.putEvictableIfRoom(key, value, sizeBytes, false)
}

// PutEvictableIfRoomSpillable is PutEvictableIfRoom with the
// MEMORY_AND_DISK spill flag. An admission replaces any spilled copy
// under the same key, so the bytes are charged to exactly one tier.
func (s *BlockStore) PutEvictableIfRoomSpillable(key string, value any, sizeBytes int64) bool {
	return s.putEvictableIfRoom(key, value, sizeBytes, true)
}

func (s *BlockStore) putEvictableIfRoom(key string, value any, sizeBytes int64, spillable bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Credit an evictable copy already under this key (it would be
	// replaced); reject before touching it so a failed admission never
	// destroys a live block the tracker still advertises.
	var credit int64
	if e, ok := s.blocks[key]; ok && !e.pinned {
		credit = e.size
	}
	if s.capacity > 0 && s.evictableBytes+s.pinnedAgainstCacheLocked()-credit+sizeBytes > s.capacity {
		return false
	}
	s.removeLocked(key, true)
	s.admitLocked(key, value, sizeBytes, spillable)
	return true
}

// PutDisk writes a block straight to the disk tier (the DISK_ONLY
// level), replacing any in-memory copy on success. It reports whether
// the block landed on disk; on failure the store is unchanged, so a
// caller can fall back to a memory put without having destroyed a
// live copy.
func (s *BlockStore) PutDisk(key string, value any, sizeBytes int64) bool {
	s.mu.Lock()
	if s.disk == nil {
		s.mu.Unlock()
		return false
	}
	ok, dropped := s.disk.Spill(key, value, sizeBytes)
	if ok {
		s.removeLocked(key, false) // keep the disk copy just written
	}
	fn, dfn := s.onEvict, s.onDiskEvict
	s.mu.Unlock()
	s.notifyEvicted(fn, dfn, dropped)
	return ok
}

// evictForLocked evicts least-recently-used evictable blocks until
// sizeBytes more would fit under the cache budget (or nothing
// evictable is left), spilling spillable victims to the disk tier and
// returning the evicted entries. Caller holds s.mu.
func (s *BlockStore) evictForLocked(sizeBytes int64) []evictedBlock {
	if s.capacity <= 0 {
		return nil
	}
	var out []evictedBlock
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
			ok, dropped := s.disk.Spill(key, e.value, e.size)
			spilled = ok
			out = append(out, dropped...)
		}
		if spilled {
			s.spills.Add(1)
			s.bytesSpilled.Add(e.size)
		} else {
			s.evictions.Add(1)
			s.bytesEvicted.Add(e.size)
		}
		out = append(out, evictedBlock{key: key, size: e.size, spilled: spilled})
	}
	return out
}

type evictedBlock struct {
	key  string
	size int64
	// spilled: the block survived on the disk tier.
	spilled bool
	// fromDisk: the disk tier itself dropped the block (it is gone).
	fromDisk bool
}

func (s *BlockStore) notifyEvicted(fn func(string, int64, bool), dfn func(string, int64), evicted []evictedBlock) {
	for _, e := range evicted {
		if e.fromDisk {
			if dfn != nil {
				dfn(e.key, e.size)
			}
			continue
		}
		if fn != nil {
			fn(e.key, e.size, e.spilled)
		}
	}
}

// Get fetches a block from the memory tier, refreshing its recency.
// Spilled blocks are not visible here — readers that want the disk
// tier use GetSpilled, keeping hit metrics per tier honest.
func (s *BlockStore) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.blocks[key]
	if !ok {
		return nil, false
	}
	if e.pinned {
		s.pinnedLRU.MoveToFront(e.elem)
	} else {
		s.lru.MoveToFront(e.elem)
	}
	return e.value, true
}

// GetSpilled fetches a block from the disk tier (decoded), refreshing
// its disk LRU recency.
func (s *BlockStore) GetSpilled(key string) (any, bool) {
	if s.disk == nil {
		return nil, false
	}
	return s.disk.Get(key)
}

// Contains reports whether a block is present on any tier without
// touching its recency (bookkeeping probes must not look like use).
// A disk-resident block is still a valid location: the worker serves
// it locally and remote readers can fetch it.
func (s *BlockStore) Contains(key string) bool {
	s.mu.Lock()
	_, ok := s.blocks[key]
	s.mu.Unlock()
	if ok {
		return true
	}
	return s.disk != nil && s.disk.Contains(key)
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
	out := make([]string, 0, len(s.blocks))
	for k := range s.blocks {
		out = append(out, k)
	}
	s.mu.Unlock()
	if s.disk != nil {
		seen := make(map[string]bool, len(out))
		for _, k := range out {
			seen[k] = true
		}
		for _, k := range s.disk.Keys() {
			if !seen[k] {
				out = append(out, k)
			}
		}
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

// EvictableBytes returns the accounted size of evictable (cache)
// blocks in memory.
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

// Evictions returns how many blocks capacity pressure has dropped
// without a disk copy.
func (s *BlockStore) Evictions() int64 { return s.evictions.Load() }

// BytesEvicted returns the accounted bytes reclaimed by those drops.
func (s *BlockStore) BytesEvicted() int64 { return s.bytesEvicted.Load() }

// Spills returns how many memory-tier victims the disk tier caught.
func (s *BlockStore) Spills() int64 { return s.spills.Load() }

// BytesSpilled returns the accounted bytes drained to the disk tier.
func (s *BlockStore) BytesSpilled() int64 { return s.bytesSpilled.Load() }

// Epoch returns the wipe generation (incremented each Wipe).
func (s *BlockStore) Epoch() int64 { return s.epoch.Load() }

// Wipe clears both tiers (worker death — the node's local disk dies
// with it). Not an eviction: the epoch bump is what invalidates
// outside bookkeeping.
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
	s.epoch.Add(1)
}
