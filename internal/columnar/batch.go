package columnar

import (
	"sort"
	"strings"

	"shark/internal/row"
)

// BatchSize is the most rows a Batch covers: small enough that a few
// vectors of it stay in the L1/L2 cache and that per-task scratch is
// kilobytes, large enough to amortize per-batch dispatch. It is a
// multiple of 64 so that a batch's share of a column's null (or bool)
// bitmap is a sub-slice of the column's own words, never a copy.
const BatchSize = 1024

// Bitmap is a bit set over row positions.
type Bitmap []uint64

// Has reports whether bit i is set; a nil Bitmap has no bits set.
func (b Bitmap) Has(i int) bool {
	return b != nil && b[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func newBitmap(set []bool) Bitmap {
	words := make(Bitmap, (len(set)+63)/64)
	for i, b := range set {
		if b {
			words.Set(i)
		}
	}
	return words
}

// window returns the words covering rows [lo, hi); lo is a multiple of
// 64, so position i of the window is row lo+i.
func (b Bitmap) window(lo, hi int) Bitmap {
	if b == nil {
		return nil
	}
	return b[lo>>6 : (hi+63)>>6]
}

// Dict is implemented by dictionary-encoded columns: their cells are
// codes into a small per-partition dictionary, so work that depends
// only on the cell's value can be done once per entry instead of once
// per row.
type Dict interface {
	Column
	// DictLen is the number of dictionary entries (at most 256).
	DictLen() int
	// DictValue returns entry code, boxed (never nil: NULL is in the
	// null bitmap, not in the dictionary).
	DictValue(code int) any
}

func (c *dictInt64) DictLen() int           { return len(c.dict) }
func (c *dictInt64) DictValue(code int) any { return c.boxed[code] }

func (c *dictString) DictLen() int           { return len(c.dict) }
func (c *dictString) DictValue(code int) any { return c.boxed[code] }

// Codes fit a byte because a column is dictionary-encoded only with at
// most this many distinct non-NULL values, and both sealers give the
// dictionary exactly one entry per such value (a NULL row's placeholder
// takes code 0, not an entry of its own).
const _ = uint8(dictionaryThreshold - 1)

// ---------------------------------------------------------------------------
// Typed bulk decode: rows [lo, hi) of a column into a primitive slice.
// Raw encodings return a sub-slice of their own storage; the others
// fill buf, which must hold hi-lo values.

func (c *rawInt64) ints(lo, hi int, _ []int64) []int64 { return c.v[lo:hi] }

func (c *rleInt64) ints(lo, hi int, buf []int64) []int64 {
	return expandRuns(c.vals, c.ends, lo, hi, buf)
}

func (c *packedInt64) ints(lo, hi int, buf []int64) []int64 {
	out := buf[:hi-lo]
	for i := range out {
		out[i] = c.base + int64(unpack(c.words, uint(lo+i), c.width))
	}
	return out
}

func (c *dictInt64) ints(lo, hi int, buf []int64) []int64 {
	out := buf[:hi-lo]
	for i := range out {
		out[i] = c.dict[unpack(c.words, uint(lo+i), c.width)]
	}
	return out
}

func (c *rawFloat64) floats(lo, hi int, _ []float64) []float64 { return c.v[lo:hi] }

func (c *rleFloat64) floats(lo, hi int, buf []float64) []float64 {
	return expandRuns(c.vals, c.ends, lo, hi, buf)
}

// expandRuns walks an RLE column by run: one binary search finds the
// run holding row lo, then each run is written out as a fill.
func expandRuns[T int64 | float64](vals []T, ends []uint32, lo, hi int, buf []T) []T {
	out := buf[:hi-lo]
	r := sort.Search(len(ends), func(j int) bool { return ends[j] > uint32(lo) })
	for i := lo; i < hi; r++ {
		end := min(int(ends[r]), hi)
		v := vals[r]
		for ; i < end; i++ {
			out[i-lo] = v
		}
	}
	return out
}

func (c *rawString) strings(lo, hi int, buf []string) []string {
	out := buf[:hi-lo]
	for i := range out {
		out[i] = c.at(lo + i)
	}
	return out
}

func (c *dictString) strings(lo, hi int, buf []string) []string {
	out := buf[:hi-lo]
	for i := range out {
		out[i] = c.dict[unpack(c.words, uint(lo+i), c.width)]
	}
	return out
}

func unpackCodes(words []uint64, width uint, lo, hi int, buf []uint8) []uint8 {
	out := buf[:hi-lo]
	for i := range out {
		out[i] = uint8(unpack(words, uint(lo+i), width))
	}
	return out
}

// ---------------------------------------------------------------------------

// Batch is a window of at most BatchSize consecutive rows of one
// partition, read as typed vectors: the unit a scan works in. Columns
// are decoded on first use and only for the current window; the
// returned slices are indexed by position within the window and are
// valid until the next call to Next. A Batch owns its decode buffers
// and reuses them from window to window, so reading a partition
// allocates per column touched, not per row. Not safe for concurrent
// use: one Batch per task.
type Batch struct {
	p      *Partition
	lo, hi int
	cols   []batchCol
}

// batchCol is one column's decoder state: what the column is, and its
// vectors for the current window.
type batchCol struct {
	col      Column
	typ      row.Type
	dict     Dict   // non-nil for a dictionary-encoded column
	allNulls Bitmap // the whole column's NULL bitmap

	nulls Bitmap // allNulls' words for the window
	// One value vector per column, by type; a dictionary column may
	// hold its codes as well. have* say which are decoded for the
	// window; the *Buf slices are the owned memory behind them (nil
	// until first needed; raw encodings alias their storage instead).
	ints      []int64
	floats    []float64
	strs      []string
	codes     []uint8
	haveVals  bool
	haveCodes bool
	intBuf    []int64
	floatBuf  []float64
	strBuf    []string
	codeBuf   []uint8
}

// NewBatch returns a Batch positioned before the partition's first
// row; call Next to load each window.
func NewBatch(p *Partition) *Batch {
	b := &Batch{p: p, cols: make([]batchCol, len(p.Cols))}
	for i, col := range p.Cols {
		bc := &b.cols[i]
		bc.col, bc.typ = col, col.Type()
		bc.dict, _ = col.(Dict)
		bc.allNulls = col.(interface{ nullBits() Bitmap }).nullBits()
	}
	return b
}

// Next advances to the following window and reports whether it holds
// any rows.
func (b *Batch) Next() bool {
	if b.hi >= b.p.N {
		return false
	}
	b.lo = b.hi
	b.hi = min(b.lo+BatchSize, b.p.N)
	for i := range b.cols {
		bc := &b.cols[i]
		bc.nulls = bc.allNulls.window(b.lo, b.hi)
		bc.haveVals, bc.haveCodes = false, false
	}
	return true
}

// Len is the number of rows in the current window.
func (b *Batch) Len() int { return b.hi - b.lo }

// identity is the selection of every row of a full window.
var identity = func() []int32 {
	sel := make([]int32, BatchSize)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}()

// All returns the selection vector naming every row of the window.
// The slice is shared and must not be written.
func (b *Batch) All() []int32 { return identity[:b.Len()] }

// Dict returns column c as a dictionary column, or nil when this
// partition did not dictionary-encode it.
func (b *Batch) Dict(c int) Dict { return b.cols[c].dict }

// Type returns column c's logical type.
func (b *Batch) Type(c int) row.Type { return b.cols[c].typ }

// Nulls returns column c's NULL positions in the window (nil when the
// column has none anywhere).
func (b *Batch) Nulls(c int) Bitmap { return b.cols[c].nulls }

// Ints returns a TInt or TDate column's values (whatever its
// encoding). NULL positions hold a placeholder.
func (b *Batch) Ints(c int) []int64 {
	bc := &b.cols[c]
	if !bc.haveVals {
		col := bc.col.(interface {
			ints(lo, hi int, buf []int64) []int64
		})
		if _, raw := col.(*rawInt64); !raw && bc.intBuf == nil {
			bc.intBuf = make([]int64, min(BatchSize, b.p.N))
		}
		bc.ints, bc.haveVals = col.ints(b.lo, b.hi, bc.intBuf), true
	}
	return bc.ints
}

// Floats returns a TFloat column's values.
func (b *Batch) Floats(c int) []float64 {
	bc := &b.cols[c]
	if !bc.haveVals {
		col := bc.col.(interface {
			floats(lo, hi int, buf []float64) []float64
		})
		if _, raw := col.(*rawFloat64); !raw && bc.floatBuf == nil {
			bc.floatBuf = make([]float64, min(BatchSize, b.p.N))
		}
		bc.floats, bc.haveVals = col.floats(b.lo, b.hi, bc.floatBuf), true
	}
	return bc.floats
}

// Strings returns a TString column's values. The strings share the
// column's memory (sub-strings of a raw column's data, a dictionary's
// entries): reading them is free, and a caller that keeps one past the
// scan copies it (strings.Clone) so as not to keep the column alive.
func (b *Batch) Strings(c int) []string {
	bc := &b.cols[c]
	if !bc.haveVals {
		col := bc.col.(interface {
			strings(lo, hi int, buf []string) []string
		})
		if bc.strBuf == nil {
			bc.strBuf = make([]string, min(BatchSize, b.p.N))
		}
		bc.strs, bc.haveVals = col.strings(b.lo, b.hi, bc.strBuf), true
	}
	return bc.strs
}

// Bools returns a TBool column's values as a bitmap over the window.
func (b *Batch) Bools(c int) Bitmap {
	return b.cols[c].col.(*boolColumn).bitsv.window(b.lo, b.hi)
}

// Codes returns a dictionary column's codes (see Dict). NULL positions
// hold a placeholder code.
func (b *Batch) Codes(c int) []uint8 {
	bc := &b.cols[c]
	if !bc.haveCodes {
		if bc.codeBuf == nil {
			bc.codeBuf = make([]uint8, min(BatchSize, b.p.N))
		}
		switch col := bc.col.(type) {
		case *dictInt64:
			bc.codes = unpackCodes(col.words, col.width, b.lo, b.hi, bc.codeBuf)
		case *dictString:
			bc.codes = unpackCodes(col.words, col.width, b.lo, b.hi, bc.codeBuf)
		default:
			panic("columnar: Codes on a " + bc.col.Encoding() + " column")
		}
		bc.haveCodes = true
	}
	return bc.codes
}

// Value returns column c's value at window position i as a boxed row
// value (nil for NULL), for callers that assemble a scratch row to
// hand to row-at-a-time code. Unlike Box it does not copy a string out
// of the column: the value is for use within the batch.
func (b *Batch) Value(c, i int) any {
	bc := &b.cols[c]
	switch {
	case bc.nulls.Has(i):
		return nil
	case bc.dict != nil:
		return bc.dict.DictValue(int(b.Codes(c)[i]))
	}
	switch bc.typ {
	case row.TInt, row.TDate:
		return b.Ints(c)[i]
	case row.TFloat:
		return b.Floats(c)[i]
	case row.TString:
		return b.Strings(c)[i]
	}
	return b.Bools(c).Has(i)
}

// Box writes column c's values at the selected window positions into
// dst[0], dst[stride], dst[2*stride], … as boxed row values (nil for
// NULL): where typed vectors turn back into `any`, a column at a time.
// Dictionary cells reuse the values boxed at seal time, so they cost
// nothing; other cells cost what Go's interface conversion does. A
// boxed cell outlives the batch, in a row someone keeps, so a raw
// string cell is copied out of the column rather than left a
// sub-string holding the whole column's bytes reachable — read
// directly, since the copy makes decoding the window's vector
// pointless for a sparse selection.
func (b *Batch) Box(c int, sel []int32, dst []any, stride int) {
	bc := &b.cols[c]
	var cell func(i int) any
	switch {
	case bc.dict != nil:
		codes := b.Codes(c)
		cell = func(i int) any { return bc.dict.DictValue(int(codes[i])) }
	case bc.typ == row.TFloat:
		vals := b.Floats(c)
		cell = func(i int) any { return vals[i] }
	case bc.typ == row.TString:
		raw := bc.col.(*rawString)
		cell = func(i int) any { return strings.Clone(raw.at(b.lo + i)) }
	case bc.typ == row.TBool:
		vals := b.Bools(c)
		cell = func(i int) any { return vals.Has(i) }
	default:
		vals := b.Ints(c)
		cell = func(i int) any { return vals[i] }
	}
	for j, i := range sel {
		if bc.nulls.Has(int(i)) {
			dst[j*stride] = nil
		} else {
			dst[j*stride] = cell(int(i))
		}
	}
}

// Rows materializes the selected window rows, projected to cols. The
// rows are carved from one slab sized to the selection — a result that
// keeps 1 % of a window retains 1 % of a window's cells.
func (b *Batch) Rows(cols []int, sel []int32) []row.Row {
	if len(sel) == 0 {
		return []row.Row{}
	}
	n := len(cols)
	slab := make([]any, len(sel)*n)
	for j, c := range cols {
		b.Box(c, sel, slab[j:], n)
	}
	return CarveRows(slab, n, len(sel))
}

// CarveRows cuts a slab of count*width cells into count rows. Each row
// is capped at its own length, so appending to one cannot write into
// its neighbour.
func CarveRows(slab []any, width, count int) []row.Row {
	rows := make([]row.Row, count)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	return rows
}

// ---------------------------------------------------------------------------
// Vectors computed from a batch

// VecKind says which of a Vec's slices holds its values.
type VecKind uint8

const (
	VecAny   VecKind = iota // boxed row values
	VecInt                  // int64: BIGINT and DATE
	VecFloat                // float64
	VecStr                  // string
)

// Vec is an expression's result for one Batch window. Like the batch's
// own column vectors it is indexed by window position, and only the
// positions of the selection it was computed for are meaningful. A
// literal is a one-element vector with Mask 0: kernels index values as
// v[i&Mask], which reads a full vector (Mask -1) at i and a literal at
// 0. Strings may share the partition's bytes; whatever keeps one past
// the batch copies it.
type Vec struct {
	Kind   VecKind
	Mask   int32
	Ints   []int64
	Floats []float64
	Strs   []string
	Anys   []any  // VecAny: nil is NULL
	Nulls  Bitmap // typed kinds: NULL positions (nil = none)
}

// At boxes the value at window position i (nil for NULL).
func (v *Vec) At(i int32) any {
	if v.Kind == VecAny {
		return v.Anys[i]
	}
	if v.Nulls.Has(int(i)) {
		return nil
	}
	switch v.Kind {
	case VecInt:
		return v.Ints[i&v.Mask]
	case VecFloat:
		return v.Floats[i&v.Mask]
	}
	return v.Strs[i&v.Mask]
}

// VecFn is a function's kernel over a batch: args are its argument
// vectors and sel the window positions to compute. The result is
// indexed by window position like the arguments. A VecFn owns the
// buffers behind the vector it returns and reuses them from batch to
// batch, so it serves one task.
type VecFn func(sel []int32, args []Vec) Vec
