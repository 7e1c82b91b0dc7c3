// Package shuffle implements the data-exchange layer between stages.
//
// Following the paper (§5 "Memory-based Shuffle"), map output buckets
// are materialized in the producing worker's in-memory block store by
// default, with an optional disk mode (real temp files) used by the
// Hadoop baseline and the shuffle ablation benchmark. Outputs are
// owned by the worker that produced them: killing the worker loses
// them, which is what forces the DAG scheduler to re-run map tasks —
// the heart of the mid-query fault-tolerance experiments.
package shuffle

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"shark/internal/cluster"
	"shark/internal/row"
)

// Pair is the element type flowing through shuffles.
type Pair struct {
	K, V any
}

// Partitioner maps keys to reduce buckets.
type Partitioner interface {
	NumPartitions() int
	PartitionFor(key any) int
}

// HashPartitioner buckets by value hash.
type HashPartitioner struct{ N int }

// NumPartitions returns the bucket count.
func (p HashPartitioner) NumPartitions() int { return p.N }

// PartitionFor returns the bucket for a key.
func (p HashPartitioner) PartitionFor(key any) int {
	return int(row.Hash(key) % uint64(p.N))
}

// RangePartitioner buckets by sorted key ranges; bucket i receives
// keys in (bounds[i-1], bounds[i]].
type RangePartitioner struct {
	Bounds []any // len N-1, ascending
}

// NumPartitions returns the bucket count.
func (p RangePartitioner) NumPartitions() int { return len(p.Bounds) + 1 }

// PartitionFor returns the bucket for a key.
func (p RangePartitioner) PartitionFor(key any) int {
	return sort.Search(len(p.Bounds), func(i int) bool {
		return row.Compare(p.Bounds[i], key) >= 0
	})
}

// Mode selects where map outputs live.
type Mode int

const (
	// Memory materializes buckets in worker block stores (Shark).
	Memory Mode = iota
	// Disk writes buckets to local temp files (Hadoop baseline).
	Disk
)

// Service coordinates shuffle storage. One per engine instance.
type Service struct {
	mode    Mode
	dir     string // for Disk mode
	nextID  atomic.Int64
	cluster *cluster.Cluster

	metrics ServiceMetrics

	mu sync.Mutex
	// diskFiles tracks files per (shuffle,map,worker) for cleanup.
	diskFiles map[string][]string
}

// ServiceMetrics counts reduce-side shuffle traffic (scraped by the
// cluster metrics registry).
type ServiceMetrics struct {
	// FetchCalls counts bucket fetches (Fetch + FetchPartial);
	// FetchedPairs counts the records they returned.
	FetchCalls   atomic.Int64
	FetchedPairs atomic.Int64
	// SpilledReads counts bucket reads served from a producer's disk
	// spill tier rather than its in-memory block store.
	SpilledReads atomic.Int64
}

// Metrics returns the service's counters.
func (s *Service) Metrics() *ServiceMetrics { return &s.metrics }

// NewService creates a shuffle service. dir is required for Disk mode.
func NewService(c *cluster.Cluster, mode Mode, dir string) *Service {
	return &Service{mode: mode, dir: dir, cluster: c, diskFiles: make(map[string][]string)}
}

// NewShuffleID allocates a fresh shuffle ID.
func (s *Service) NewShuffleID() int { return int(s.nextID.Add(1)) }

// blockKey names one map task's bucket in the block stores:
// shuf/<shuffle>/<map partition>/<bucket>. Every bucket written,
// fetched and unregistered builds one, so it is appended, not formatted.
func blockKey(shuffleID, mapPart, bucket int) string {
	b := make([]byte, 0, 32)
	b = strconv.AppendInt(append(b, "shuf/"...), int64(shuffleID), 10)
	b = strconv.AppendInt(append(b, '/'), int64(mapPart), 10)
	b = strconv.AppendInt(append(b, '/'), int64(bucket), 10)
	return string(b)
}

// BucketStats summarizes one map task's output, fed to PDE.
type BucketStats struct {
	// Bytes and Records are indexed by reduce bucket.
	Bytes   []int64
	Records []int64
}

// Writer accumulates one map task's partitioned output.
type Writer struct {
	svc       *Service
	shuffleID int
	mapPart   int
	worker    *cluster.Worker
	buckets   [][]Pair
	stats     BucketStats
}

// NewWriter starts writing map output for (shuffleID, mapPart) on w.
func (s *Service) NewWriter(shuffleID, mapPart, numBuckets int, w *cluster.Worker) *Writer {
	return &Writer{
		svc:       s,
		shuffleID: shuffleID,
		mapPart:   mapPart,
		worker:    w,
		buckets:   make([][]Pair, numBuckets),
		stats:     BucketStats{Bytes: make([]int64, numBuckets), Records: make([]int64, numBuckets)},
	}
}

// Write adds a pair to a bucket.
func (w *Writer) Write(bucket int, p Pair) {
	w.buckets[bucket] = append(w.buckets[bucket], p)
	w.stats.Records[bucket] += records(p.V)
	w.stats.Bytes[bucket] += EstimateSize(p.K) + EstimateSize(p.V)
}

// records is how many records a shuffle value stands for: one, or the
// count a value batching many reports (a block of partial aggregates
// holds one record per group), the way EstimateSize asks for SizeBytes.
func records(v any) int64 {
	if r, ok := v.(interface{ Records() int64 }); ok {
		return r.Records()
	}
	return 1
}

// Commit persists all buckets to the worker's store (or disk) and
// returns the per-bucket stats.
func (w *Writer) Commit() (BucketStats, error) {
	for b, pairs := range w.buckets {
		key := blockKey(w.shuffleID, w.mapPart, b)
		if w.svc.mode == Memory {
			w.worker.Store().Put(key, pairs, w.stats.Bytes[b], cluster.Class{Pinned: true})
			continue
		}
		path, err := w.svc.writeDiskBucket(key, pairs)
		if err != nil {
			return BucketStats{}, err
		}
		w.worker.Store().Put(key, path, int64(len(path)), cluster.Class{Pinned: true})
	}
	return w.stats, nil
}

// writeDiskBucket writes a disk-mode bucket file in the spill codec's
// []Pair layout: a shuffle bucket on disk is the memory bucket spilled.
func (s *Service) writeDiskBucket(key string, pairs []Pair) (string, error) {
	data, err := sparkSpillCodec{}.EncodeSpill(pairs)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(s.dir, "bucket-*")
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	s.mu.Lock()
	s.diskFiles[key] = append(s.diskFiles[key], f.Name())
	s.mu.Unlock()
	return f.Name(), nil
}

// FetchError reports missing map outputs; the scheduler reacts by
// regenerating the named map partitions.
type FetchError struct {
	ShuffleID int
	MapParts  []int
}

// Error implements error.
func (e *FetchError) Error() string {
	return fmt.Sprintf("shuffle %d: lost map outputs for partitions %v", e.ShuffleID, e.MapParts)
}

// Fetch gathers bucket `bucket` from every map partition. locations
// maps map-partition → worker ID that holds its output.
func (s *Service) Fetch(shuffleID, bucket int, locations map[int]int) ([]Pair, error) {
	// deterministic order for reproducibility
	parts := make([]int, 0, len(locations))
	for p := range locations {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return s.fetchParts(shuffleID, bucket, locations, parts)
}

// FetchPartial gathers bucket `bucket` from only the listed map
// partitions — the skew-split read path, where several reduce tasks
// share one hot bucket by fetching disjoint subsets of its map
// outputs. A requested partition absent from locations is reported as
// missing so the scheduler's fetch-failure recovery regenerates it.
func (s *Service) FetchPartial(shuffleID, bucket int, locations map[int]int, maps []int) ([]Pair, error) {
	parts := append([]int(nil), maps...)
	sort.Ints(parts)
	return s.fetchParts(shuffleID, bucket, locations, parts)
}

func (s *Service) fetchParts(shuffleID, bucket int, locations map[int]int, parts []int) ([]Pair, error) {
	s.metrics.FetchCalls.Add(1)
	var out []Pair
	var missing []int
	for _, mapPart := range parts {
		wid, located := locations[mapPart]
		if !located {
			missing = append(missing, mapPart)
			continue
		}
		w := s.cluster.Worker(wid)
		key := blockKey(shuffleID, mapPart, bucket)
		// A bucket the shuffle budget pushed to the producer's disk tier
		// is still that worker's output: the store reads it back.
		v, tier := w.Store().Get(key)
		if tier == cluster.Miss || !w.Alive() {
			missing = append(missing, mapPart)
			continue
		}
		if tier == cluster.DiskTier {
			s.metrics.SpilledReads.Add(1)
		}
		if s.mode == Memory {
			out = append(out, v.([]Pair)...)
			continue
		}
		pairs, err := readDiskBucket(v.(string))
		if err != nil {
			missing = append(missing, mapPart)
			continue
		}
		out = append(out, pairs...)
	}
	if len(missing) > 0 {
		return nil, &FetchError{ShuffleID: shuffleID, MapParts: missing}
	}
	var n int64
	for _, p := range out {
		n += records(p.V)
	}
	s.metrics.FetchedPairs.Add(n)
	return out, nil
}

// readDiskBucket reads a bucket file back. A file that is not a
// well-formed []Pair block — truncated, or valid rows in the wrong
// shape — is an error, which the fetch reports as a lost map output.
func readDiskBucket(path string) ([]Pair, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v, err := sparkSpillCodec{}.DecodeSpill(data)
	if err != nil {
		return nil, err
	}
	pairs, ok := v.([]Pair)
	if !ok {
		return nil, fmt.Errorf("shuffle: bucket file %s holds %T, not pairs", path, v)
	}
	return pairs, nil
}

// The spill codec writes a value as one binary row: scalars, row.Row
// values, and any engine value implementing DiskMarshaler (e.g. the SQL
// engine's partial-aggregate blocks).

// DiskMarshaler lets engine-level values cross a disk shuffle. The tag
// selects the decoder registered with RegisterDiskDecoder.
type DiskMarshaler interface {
	MarshalShuffle() (tag string, fields row.Row)
}

var diskDecoders sync.Map // tag string → func(row.Row) any

// RegisterDiskDecoder installs the decode function for a tag (called
// from package init functions; last registration wins).
func RegisterDiskDecoder(tag string, fn func(row.Row) any) {
	diskDecoders.Store(tag, fn)
}

func valueToRow(v any) row.Row {
	switch x := v.(type) {
	case row.Row:
		return append(row.Row{"r"}, x...)
	case DiskMarshaler:
		tag, fields := x.MarshalShuffle()
		return append(row.Row{"c", tag}, fields...)
	default:
		return row.Row{"s", x}
	}
}

func rowToValue(r row.Row) any {
	switch r[0].(string) {
	case "r":
		return row.Row(r[1:])
	case "c":
		tag := r[1].(string)
		fn, ok := diskDecoders.Load(tag)
		if !ok {
			panic(fmt.Sprintf("shuffle: no disk decoder registered for %q", tag))
		}
		return fn.(func(row.Row) any)(r[2:])
	default:
		return r[1]
	}
}

// Unregister drops all trace of a shuffle (cleanup between queries).
// Store Keys/Delete span both tiers, so buckets the shuffle budget
// spilled to a worker's disk are deleted — files included — along
// with the in-memory ones: shuffle cleanup must not leak spill-dir
// space on a long-lived cluster.
func (s *Service) Unregister(shuffleID int) {
	prefix := fmt.Sprintf("shuf/%d/", shuffleID)
	for i := 0; i < s.cluster.NumWorkers(); i++ {
		st := s.cluster.Worker(i).Store()
		for _, k := range st.Keys() {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				st.Delete(k)
			}
		}
	}
	s.mu.Lock()
	for k, files := range s.diskFiles {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			for _, f := range files {
				os.Remove(f)
			}
			delete(s.diskFiles, k)
		}
	}
	s.mu.Unlock()
}

// EstimateSize roughly estimates the in-memory size of a value in
// bytes; PDE only needs order-of-magnitude accuracy (the paper even
// log-encodes sizes with 10% error).
func EstimateSize(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 1
	case int64, float64:
		return 8
	case bool:
		return 1
	case string:
		return int64(len(x)) + 16
	case row.Row:
		var n int64 = 24
		for _, f := range x {
			n += EstimateSize(f)
		}
		return n
	case []any:
		var n int64 = 24
		for _, f := range x {
			n += EstimateSize(f)
		}
		return n
	case Pair:
		return EstimateSize(x.K) + EstimateSize(x.V)
	case interface{ SizeBytes() int64 }:
		// Engine values that track their own footprint (e.g. columnar
		// partitions) — without this, a cached columnar table would
		// account as a few bytes and never feel memory pressure.
		return x.SizeBytes()
	default:
		return 32
	}
}
