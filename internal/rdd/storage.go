package rdd

import "shark/internal/cluster"

// StorageLevel selects which block-store tiers a cached RDD's
// partitions may occupy — the paper's RDD storage levels (§3.2). The
// type lives with the tiers it names, in the worker block store.
type StorageLevel = cluster.StorageLevel

// The storage levels, re-exported.
const (
	MemoryOnly    = cluster.MemoryOnly
	MemoryAndDisk = cluster.MemoryAndDisk
	DiskOnly      = cluster.DiskOnly
)

// ParseStorageLevel resolves a level name (case-insensitive, with the
// common aliases), reporting whether it was recognized.
var ParseStorageLevel = cluster.ParseStorageLevel
