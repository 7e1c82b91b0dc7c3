package cluster

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// SpillCodec serializes block values for the local-disk spill tier.
// Exactly one codec is registered process-wide (the shuffle package
// installs the production codec from its init); values the codec
// cannot encode are simply unspillable — the store drops them instead,
// which degrades to the eviction-only behavior, never to corruption.
type SpillCodec interface {
	// EncodeSpill serializes a block value, or returns an error for
	// value types that cannot cross a disk boundary.
	EncodeSpill(v any) ([]byte, error)
	// DecodeSpill inverts EncodeSpill.
	DecodeSpill(data []byte) (any, error)
}

// spillCodec holds the registered SpillCodec (atomic.Value: the
// registration from package init races benignly with store reads).
var spillCodec atomic.Value

// RegisterSpillCodec installs the process-wide spill codec (called from
// package init functions; last registration wins).
func RegisterSpillCodec(c SpillCodec) { spillCodec.Store(c) }

func loadSpillCodec() SpillCodec {
	c, _ := spillCodec.Load().(SpillCodec)
	return c
}

// DiskStore is a worker-local disk tier under a BlockStore: LRU
// victims of the in-memory tier drain into it instead of being dropped
// (the paper's MEMORY_AND_DISK storage level — reading a spilled
// partition back is far cheaper than recomputing it from lineage).
// It has its own byte budget and LRU: when the disk budget is
// exceeded, the least-recently-read spilled block is deleted for real,
// and only then does a miss mean recomputation.
//
// Sizes are accounted at the block's logical (in-memory) size, the
// same figure the memory tier charges, so "spill budget = 2× memory
// budget" means what an operator expects regardless of codec framing.
type DiskStore struct {
	dir      string
	capacity int64 // <0 = unbounded; > 0 = bounded (0 never built)

	mu     sync.Mutex
	blocks map[string]*diskEntry
	lru    *list.List // front = most recently used
	bytes  int64
	seq    int64

	spilled        atomic.Int64
	bytesSpilled   atomic.Int64
	hits           atomic.Int64
	evictions      atomic.Int64
	bytesEvicted   atomic.Int64
	encodeFailures atomic.Int64
}

type diskEntry struct {
	path string
	size int64
	elem *list.Element
	// promote: a read may move the block back up into free memory room
	// (a MEMORY_AND_DISK cache block — not a DISK_ONLY block or a
	// spilled shuffle bucket).
	promote bool
}

// NewDiskStore creates a spill tier rooted at dir, holding at most
// capacityBytes of accounted blocks (negative = unbounded).
func NewDiskStore(dir string, capacityBytes int64) *DiskStore {
	return &DiskStore{
		dir:      dir,
		capacity: capacityBytes,
		blocks:   make(map[string]*diskEntry),
		lru:      list.New(),
	}
}

// Dir returns the directory holding the spill files.
func (d *DiskStore) Dir() string { return d.dir }

// Capacity returns the byte bound (negative = unbounded).
func (d *DiskStore) Capacity() int64 { return d.capacity }

// spill encodes and writes a block to disk, evicting
// least-recently-used spilled blocks until it fits. It reports whether
// the block landed on disk (false: codec cannot encode the value, the
// block alone exceeds the disk budget, or the write failed) plus the
// blocks the admission pushed out of the tier — those are gone for
// good and the owning BlockStore announces them.
func (d *DiskStore) spill(key string, value any, sizeBytes int64, promote bool) (bool, []Eviction) {
	codec := loadSpillCodec()
	if codec == nil {
		d.encodeFailures.Add(1)
		return false, nil
	}
	data, err := codec.EncodeSpill(value)
	if err != nil {
		d.encodeFailures.Add(1)
		return false, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.capacity > 0 && sizeBytes > d.capacity {
		// Infeasible even on an empty tier: reject before draining it.
		return false, nil
	}
	// Overwrite semantics: a same-key entry is replaced, never
	// double-accounted (the spilled-then-overwritten regression).
	d.removeLocked(key)
	var dropped []Eviction
	for d.capacity > 0 && d.bytes+sizeBytes > d.capacity {
		back := d.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(string)
		e := d.blocks[victim]
		d.removeLocked(victim)
		d.evictions.Add(1)
		d.bytesEvicted.Add(e.size)
		dropped = append(dropped, Eviction{Key: victim, Size: e.size, FromDisk: true})
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return false, dropped
	}
	d.seq++
	path := filepath.Join(d.dir, fmt.Sprintf("b%d", d.seq))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return false, dropped
	}
	e := &diskEntry{path: path, size: sizeBytes, promote: promote}
	e.elem = d.lru.PushFront(key)
	d.blocks[key] = e
	d.bytes += sizeBytes
	d.spilled.Add(1)
	d.bytesSpilled.Add(sizeBytes)
	return true, dropped
}

// read decodes a spilled block, refreshing its LRU recency, and
// returns it with its entry (size and promote are immutable); a nil
// entry is a miss. A block whose file can no longer be read or decoded
// is dropped and reported as a miss — the reader falls back to remote
// copies or lineage.
func (d *DiskStore) read(key string) (any, *diskEntry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.blocks[key]
	if !ok {
		return nil, nil
	}
	data, err := os.ReadFile(e.path)
	if err != nil {
		d.removeLocked(key)
		return nil, nil
	}
	codec := loadSpillCodec()
	if codec == nil {
		d.removeLocked(key)
		return nil, nil
	}
	v, err := codec.DecodeSpill(data)
	if err != nil {
		d.removeLocked(key)
		return nil, nil
	}
	d.lru.MoveToFront(e.elem)
	d.hits.Add(1)
	return v, e
}

// Contains reports presence without touching recency.
func (d *DiskStore) Contains(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.blocks[key]
	return ok
}

// Delete removes a spilled block and its file.
func (d *DiskStore) Delete(key string) {
	d.mu.Lock()
	d.removeLocked(key)
	d.mu.Unlock()
}

// removeLocked removes a block, its accounting and its file. Caller
// holds d.mu.
func (d *DiskStore) removeLocked(key string) {
	e, ok := d.blocks[key]
	if !ok {
		return
	}
	delete(d.blocks, key)
	d.lru.Remove(e.elem)
	d.bytes -= e.size
	os.Remove(e.path)
}

// Keys returns a snapshot of spilled block IDs.
func (d *DiskStore) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.blocks))
	for k := range d.blocks {
		out = append(out, k)
	}
	return out
}

// Len returns the number of spilled blocks.
func (d *DiskStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blocks)
}

// ApproxBytes returns the accounted size of spilled blocks.
func (d *DiskStore) ApproxBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Wipe clears the tier and its files (worker death: local disk dies
// with the node).
func (d *DiskStore) Wipe() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.blocks {
		os.Remove(e.path)
	}
	d.blocks = make(map[string]*diskEntry)
	d.lru.Init()
	d.bytes = 0
}

// SpilledBlocks returns how many blocks have landed on disk.
func (d *DiskStore) SpilledBlocks() int64 { return d.spilled.Load() }

// BytesSpilled returns the accounted bytes written to the tier.
func (d *DiskStore) BytesSpilled() int64 { return d.bytesSpilled.Load() }

// Hits returns how many reads the tier has served.
func (d *DiskStore) Hits() int64 { return d.hits.Load() }

// Evictions returns how many spilled blocks the disk budget dropped.
func (d *DiskStore) Evictions() int64 { return d.evictions.Load() }

// BytesEvicted returns the accounted bytes dropped by disk evictions.
func (d *DiskStore) BytesEvicted() int64 { return d.bytesEvicted.Load() }

// EncodeFailures returns how many blocks proved unspillable.
func (d *DiskStore) EncodeFailures() int64 { return d.encodeFailures.Load() }

// DiskTierStats aggregates the per-worker disk spill tiers.
type DiskTierStats struct {
	// SpilledBlocks / BytesSpilled count blocks drained to disk
	// (cache partitions and shuffle buckets alike).
	SpilledBlocks int64
	BytesSpilled  int64
	// DiskHits counts reads served from the tier (local and remote).
	DiskHits int64
	// DiskEvictions / BytesDiskEvicted count blocks the disk budget
	// dropped for good.
	DiskEvictions    int64
	BytesDiskEvicted int64
	// EncodeFailures counts blocks whose values the spill codec could
	// not serialize (dropped instead of spilled).
	EncodeFailures int64
}

// DiskTierStats sums the disk-tier counters across all workers
// (zero-valued when no disk tier is configured).
func (c *Cluster) DiskTierStats() DiskTierStats {
	var out DiskTierStats
	for _, w := range c.workers {
		d := w.store.Disk()
		if d == nil {
			continue
		}
		out.SpilledBlocks += d.SpilledBlocks()
		out.BytesSpilled += d.BytesSpilled()
		out.DiskHits += d.Hits()
		out.DiskEvictions += d.Evictions()
		out.BytesDiskEvicted += d.BytesEvicted()
		out.EncodeFailures += d.EncodeFailures()
	}
	return out
}
