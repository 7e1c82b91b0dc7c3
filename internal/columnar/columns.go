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

func (n *nullable) nullBits() Bitmap { return n.nulls }

func (n *nullable) nullsSize() int64 { return int64(len(n.nulls)) * 8 }

func newNulls(isNull []bool) Bitmap {
	any := false
	for _, b := range isNull {
		if b {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	return newBitmap(isNull)
}

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
	boxed []any // dict, boxed once at seal
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

func pack(values []uint64, width uint) []uint64 {
	words := make([]uint64, (uint(len(values))*width+63)/64)
	mask := uint64(1)<<width - 1
	for i, v := range values {
		// Mask defensively: NULL positions carry placeholder codes
		// that may exceed the width; stray high bits would corrupt
		// neighbouring lanes.
		v &= mask
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
