// Package columnar implements Shark's in-memory columnar store
// (paper §3.2–3.3, §3.5): per-column typed storage with cheap,
// CPU-efficient compression (dictionary encoding, run-length encoding,
// bit packing), chosen independently per partition at load time, plus
// the per-partition column statistics (min/max and small distinct
// sets) that drive map pruning.
//
// Each column is a single Go object holding primitive slices — the
// analog of Shark's "one JVM object per column" design that removes
// per-field object overhead and GC pressure.
//
// # Spill layout
//
// A sealed partition crosses a disk boundary (spill tier, DISK_ONLY,
// disk shuffles) as the scalar row Partition.MarshalShuffle returns,
// and UnmarshalPartition rebuilds the same encodings, with no re-seal:
//
//	C int64 (columns); C × (name string, type int64); N int64 (rows,
//	≤ 2^32-1); then per column: min, max (NULL or a value of the
//	column's type), NULL count int64, d int64 (-1: distinct values not
//	tracked), d distinct values, and a blob string:
//
// A blob is little-endian: an encoding byte; a NULL-bitmap byte, 1 if
// ⌈N/64⌉ u64 words follow (bit i set: row i is NULL), else 0; then
//
//	1 raw int      N i64
//	2 RLE int      u32 r; r i64 run values; r u32 run ends rising to N
//	3 bit-packed   i64 base; u8 width w (1–64); ⌈N·w/64⌉ u64 words,
//	               row i's value less base in bits [i·w, i·w+w)
//	4 dict int     u32 d (1–256); d i64 entries; u8 w; packed codes < d
//	5 raw float    N f64
//	6 RLE float    as 2, with f64 values
//	7 raw string   N+1 u32 offsets rising from 0; offsets[N] bytes
//	8 dict string  u32 d; d+1 u32 offsets; bytes; u8 w; packed codes < d
//	9 bool bitmap  ⌈N/64⌉ u64 words
//	10 values      N cells as one binary row (row.EncodeBinary)
//
// BIGINT, DATE (epoch days) and a NULL-typed column take the int
// encodings. A NULL row holds a placeholder value or code 0. Every
// count is checked against the bytes or fields left before anything is
// allocated for it, every code, offset and run end against what it
// indexes, and a blob must be used up exactly.
//
// A row range of a Vec travels as a blob of the same layout
// (BlobCodec.Vec, AppendVec, ReadVec): aggregate and join blocks
// spill and cross a disk shuffle as such blobs, and a wire Rows frame
// carries one per column and body window. Its tag follows from the
// vector: 1 for ints, 5 for floats, 8 for a dictionary's codes when a
// row is not NULL (the entries the range uses, numbered in order of
// first use, w the fewest bits that hold d-1), 7 for other strings,
// and 10 for boxed cells (bools among them: a boxed cell costs sixteen
// bytes once read, so a bit a row would let a blob of a few bytes claim
// an allocation a hundred times its size). The NULL bitmap is present
// exactly when a row of the range is NULL. The reader refuses a blob
// the writer would have written otherwise, so what it reads writes back
// to the same bytes.
package columnar

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"shark/internal/row"
)

// Column is a sealed, immutable column of values.
type Column interface {
	// Type returns the logical value type.
	Type() row.Type
	// Len returns the number of rows.
	Len() int
	// Get returns the boxed value at index i (nil for NULL).
	Get(i int) any
	// SizeBytes approximates the in-memory footprint.
	SizeBytes() int64
	// Encoding names the compression scheme, e.g. "rle", "dict".
	Encoding() string
}

// nullable wraps the common null-bitmap behaviour.
type nullable struct {
	nulls Bitmap // nil when there are no NULLs
}

func (n *nullable) isNull(i int) bool { return n.nulls.Has(i) }

func (n *nullable) nullMap() *Bitmap { return &n.nulls }

func (n *nullable) nullsSize() int64 { return int64(len(n.nulls)) * 8 }

// ---------------------------------------------------------------------------
// Int64 columns

// intKind is the logical type of an int64-backed column: TInt or
// TDate. Every layer above keys typed decode off Type(), so the schema
// type travels with the column instead of collapsing to TInt.
type intKind struct{ typ row.Type }

func (k intKind) Type() row.Type { return k.typ }

// rawInt64 stores values verbatim.
type rawInt64 struct {
	nullable
	intKind
	v []int64
}

func (c *rawInt64) Len() int { return len(c.v) }
func (c *rawInt64) Get(i int) any {
	if c.isNull(i) {
		return nil
	}
	return c.v[i]
}
func (c *rawInt64) SizeBytes() int64 { return int64(len(c.v))*8 + c.nullsSize() }
func (c *rawInt64) Encoding() string { return "raw" }

// rleInt64 is run-length encoded: value i lives in the run r where
// ends[r-1] <= i < ends[r].
type rleInt64 struct {
	nullable
	intKind
	vals []int64
	ends []uint32 // cumulative run end indices
	n    int
}

func (c *rleInt64) Len() int { return c.n }
func (c *rleInt64) Get(i int) any {
	if c.isNull(i) {
		return nil
	}
	r := sort.Search(len(c.ends), func(j int) bool { return c.ends[j] > uint32(i) })
	return c.vals[r]
}
func (c *rleInt64) SizeBytes() int64 {
	return int64(len(c.vals))*8 + int64(len(c.ends))*4 + c.nullsSize()
}
func (c *rleInt64) Encoding() string { return "rle" }

// packedInt64 bit-packs (v - base) into width-bit lanes.
type packedInt64 struct {
	nullable
	intKind
	words []uint64
	base  int64
	width uint // bits per value, 1..63
	n     int
}

func (c *packedInt64) Len() int { return c.n }
func (c *packedInt64) Get(i int) any {
	if c.isNull(i) {
		return nil
	}
	return c.base + int64(unpack(c.words, uint(i), c.width))
}
func (c *packedInt64) SizeBytes() int64 { return int64(len(c.words))*8 + c.nullsSize() }
func (c *packedInt64) Encoding() string { return "bitpack" }

// dictInt64 stores a dictionary plus packed indices; used when the
// number of distinct values is small relative to the row count.
type dictInt64 struct {
	nullable
	intKind
	dict  []int64
	boxed []any // dict, boxed once at seal: reads of a dictionary cell never allocate
	words []uint64
	width uint
	n     int
}

func (c *dictInt64) Len() int { return c.n }
func (c *dictInt64) Get(i int) any {
	if c.isNull(i) {
		return nil
	}
	return c.boxed[unpack(c.words, uint(i), c.width)]
}
func (c *dictInt64) SizeBytes() int64 {
	return int64(len(c.dict))*8 + int64(len(c.words))*8 + c.nullsSize()
}
func (c *dictInt64) Encoding() string { return "dict" }

// ---------------------------------------------------------------------------
// Float64 columns

type rawFloat64 struct {
	nullable
	v []float64
}

func (c *rawFloat64) Type() row.Type { return row.TFloat }
func (c *rawFloat64) Len() int       { return len(c.v) }
func (c *rawFloat64) Get(i int) any {
	if c.isNull(i) {
		return nil
	}
	return c.v[i]
}
func (c *rawFloat64) SizeBytes() int64 { return int64(len(c.v))*8 + c.nullsSize() }
func (c *rawFloat64) Encoding() string { return "raw" }

type rleFloat64 struct {
	nullable
	vals []float64
	ends []uint32
	n    int
}

func (c *rleFloat64) Type() row.Type { return row.TFloat }
func (c *rleFloat64) Len() int       { return c.n }
func (c *rleFloat64) Get(i int) any {
	if c.isNull(i) {
		return nil
	}
	r := sort.Search(len(c.ends), func(j int) bool { return c.ends[j] > uint32(i) })
	return c.vals[r]
}
func (c *rleFloat64) SizeBytes() int64 {
	return int64(len(c.vals))*8 + int64(len(c.ends))*4 + c.nullsSize()
}
func (c *rleFloat64) Encoding() string { return "rle" }

// ---------------------------------------------------------------------------
// String columns

// rawString concatenates all values into one string with an offsets
// array — two Go objects total regardless of row count. Holding the
// bytes as a string lets a batch read values as sub-strings of data,
// without copying; Get, whose caller may keep the value, copies.
type rawString struct {
	nullable
	offsets []uint32 // len n+1
	data    string
}

func (c *rawString) Type() row.Type { return row.TString }
func (c *rawString) Len() int       { return len(c.offsets) - 1 }
func (c *rawString) Get(i int) any {
	if c.isNull(i) {
		return nil
	}
	return strings.Clone(c.at(i))
}

// at returns value i as a sub-string of the column's data.
func (c *rawString) at(i int) string { return c.data[c.offsets[i]:c.offsets[i+1]] }
func (c *rawString) SizeBytes() int64 {
	return int64(len(c.offsets))*4 + int64(len(c.data)) + c.nullsSize()
}
func (c *rawString) Encoding() string { return "raw" }

// dictString stores each distinct string once plus packed indices.
type dictString struct {
	nullable
	dict  []string
	boxed []any // dict, boxed once at seal; all a read vector's dictionary holds
	words []uint64
	width uint
	n     int
}

func (c *dictString) Type() row.Type { return row.TString }
func (c *dictString) Len() int       { return c.n }
func (c *dictString) Get(i int) any {
	if c.isNull(i) {
		return nil
	}
	return c.boxed[unpack(c.words, uint(i), c.width)]
}
func (c *dictString) SizeBytes() int64 {
	var d int64
	for _, s := range c.dict {
		d += int64(len(s)) + 16
	}
	return d + int64(len(c.words))*8 + c.nullsSize()
}
func (c *dictString) Encoding() string { return "dict" }

// ---------------------------------------------------------------------------
// Bool column (always a bitmap)

type boolColumn struct {
	nullable
	bitsv Bitmap
	n     int
}

func (c *boolColumn) Type() row.Type { return row.TBool }
func (c *boolColumn) Len() int       { return c.n }
func (c *boolColumn) Get(i int) any {
	if c.isNull(i) {
		return nil
	}
	return c.bitsv.Has(i)
}
func (c *boolColumn) SizeBytes() int64 { return int64(len(c.bitsv))*8 + c.nullsSize() }
func (c *boolColumn) Encoding() string { return "bitmap" }

// ---------------------------------------------------------------------------
// Bit packing helpers

func widthFor(maxVal uint64) uint {
	w := uint(bits.Len64(maxVal))
	if w == 0 {
		w = 1
	}
	return w
}

// pack bit-packs values[i]-base into width-bit lanes.
func pack[T uint8 | int64](values []T, base T, width uint) []uint64 {
	words := make([]uint64, (uint(len(values))*width+63)/64)
	mask := uint64(1)<<width - 1
	for i, x := range values {
		// Mask defensively: NULL positions carry placeholder values
		// that may lie outside the range; stray high bits would
		// corrupt neighbouring lanes.
		v := uint64(x-base) & mask
		bitPos := uint(i) * width
		word, off := bitPos/64, bitPos%64
		words[word] |= v << off
		if off+width > 64 {
			words[word+1] |= v >> (64 - off)
		}
	}
	return words
}

func unpack(words []uint64, i, width uint) uint64 {
	bitPos := i * width
	word, off := bitPos/64, bitPos%64
	v := words[word] >> off
	if off+width > 64 {
		v |= words[word+1] << (64 - off)
	}
	return v & ((1 << width) - 1)
}

// ---------------------------------------------------------------------------

var errType = func(t row.Type, v any) error {
	return fmt.Errorf("columnar: value %v (%T) does not match column type %v", v, v, t)
}
