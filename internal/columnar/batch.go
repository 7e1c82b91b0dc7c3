package columnar

import (
	"math/bits"
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

// Has reports whether bit i is set; bits past the end (all of a nil
// Bitmap's) are not.
func (b Bitmap) Has(i int) bool {
	return i>>6 < len(b) && b[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Gather returns the bits at ids as a bitmap over 0..len(ids) (nil
// when none is set).
func (b Bitmap) Gather(ids []int32) Bitmap {
	var out Bitmap
	for j, id := range ids {
		if b.Has(int(id)) {
			if out == nil {
				out = make(Bitmap, (len(ids)+63)/64)
			}
			out.Set(j)
		}
	}
	return out
}

// cover returns b grown with zero words to cover rows [0, n).
func (b Bitmap) cover(n int) Bitmap {
	for len(b) < (n+63)/64 {
		b = append(b, 0)
	}
	return b
}

// window returns the words covering rows [lo, hi); lo is a multiple of
// 64, so position i of the window is row lo+i.
func (b Bitmap) window(lo, hi int) Bitmap {
	if lo>>6 >= len(b) {
		return nil
	}
	return b[lo>>6 : min((hi+63)>>6, len(b))]
}

// count is the number of bits set among rows [lo, hi), for lo a
// multiple of 64 and no bit set at or past hi.
func (b Bitmap) count(lo, hi int) int64 {
	n := 0
	for _, w := range b.window(lo, hi) {
		n += bits.OnesCount64(w)
	}
	return int64(n)
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

func (c *dictString) DictLen() int           { return len(c.boxed) }
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

type (
	intsReader interface {
		ints(lo, hi int, buf []int64) []int64
	}
	floatsReader interface {
		floats(lo, hi int, buf []float64) []float64
	}
)

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

// Batch is a window of at most BatchSize consecutive rows read as typed
// vectors, plus a selection: the unit a scan works in and the element
// every operator above a scan hands on. Its rows are a sealed
// partition's — columns are decoded on first use and only for the
// current window — or vectors' (VecBatch: a join's output, an
// aggregate's groups). The returned slices are indexed by position
// within the window and are valid until the next call to Next. A Batch
// owns its decode buffers and reuses them from window to window, so
// reading a partition allocates per column touched, not per row. Not
// safe for concurrent use: one Batch per task. Whoever is handed a
// batch only reads it, and only until it asks its producer for the
// next.
type Batch struct {
	p      *Partition // nil for a batch of vectors
	n      int        // rows: the windows cover [0, n)
	lo, hi int
	cols   []*batchCol
	// Sel is the batch's selection: the ascending window positions of
	// the rows it holds. Next sets it to every row of the window.
	Sel []int32
}

// batchCol is one column's decoder state: what the column is, and its
// vectors for the current window.
type batchCol struct {
	col      Column // nil for a column of vectors
	typ      row.Type
	dict     Dict   // non-nil for a dictionary-encoded column
	allNulls Bitmap // the whole column's NULL bitmap
	vec      *Vec   // a column of vectors: all of its rows
	owned    bool   // its strings share no partition's bytes
	frozen   bool   // a VecBatch's: nothing overwrites its vectors

	nulls Bitmap // allNulls' words for the window
	// One value vector per column, by type; a dictionary column may
	// hold its codes as well. have* say which are decoded for the
	// window; the *Buf slices are the owned memory behind them (nil
	// until first needed; raw encodings alias their storage instead).
	ints      []int64
	floats    []float64
	strs      []string
	anys      []any // a boxed column of vectors
	codes     []uint8
	haveVals  bool
	haveCodes bool
	intBuf    []int64
	floatBuf  []float64
	strBuf    []string
	codeBuf   []uint8
}

// NewBatch returns a Batch positioned before the partition's first
// row; call Next to load each window. A column's decoder state is made
// when the column is first read, so a task pays only for the columns it
// reads.
func NewBatch(p *Partition) *Batch {
	return &Batch{p: p, n: p.N, cols: make([]*batchCol, len(p.Cols))}
}

// col returns column c's state, making a partition column's on first
// use.
func (b *Batch) col(c int) *batchCol {
	if b.cols[c] == nil {
		col := b.p.Cols[c]
		bc := &batchCol{col: col, typ: col.Type(), allNulls: *col.(encoded).nullMap()}
		bc.dict, _ = col.(Dict)
		bc.load(b.lo, b.hi)
		b.cols[c] = bc
	}
	return b.cols[c]
}

// VecBatch returns a Batch over n rows held in vectors (Mask -1, a slot
// per row), positioned before its first window like NewBatch. The batch
// reads the vectors where they are, and nothing may write to them after:
// a result keeps them as they are (Keep). A boxed vector's column has
// type TNull: no typed reader applies to it.
func VecBatch(n int, vecs []Vec) *Batch {
	b := &Batch{}
	b.reset(n, vecs)
	return b
}

// reset points a VecBatch at vectors of its width, positioned before
// their first window.
func (b *Batch) reset(n int, vecs []Vec) {
	b.n, b.lo, b.hi = n, 0, 0
	for len(b.cols) < len(vecs) {
		b.cols = append(b.cols, new(batchCol))
	}
	b.cols = b.cols[:len(vecs)]
	for c := range vecs {
		b.cols[c].setVec(&vecs[c]).frozen = true
	}
}

func (bc *batchCol) setVec(v *Vec) *batchCol {
	*bc = batchCol{vec: v, owned: v.Owned, allNulls: v.Nulls, dict: v.Dict}
	switch v.Kind {
	case VecInt:
		bc.typ = row.TInt
	case VecFloat:
		bc.typ = row.TFloat
	case VecStr:
		bc.typ = row.TString
	default:
		bc.allNulls = nil // nil is NULL
	}
	return bc
}

// load points the column at its rows [lo, hi): a partition's column
// is decoded when first read, a column of vectors sliced now.
func (bc *batchCol) load(lo, hi int) {
	bc.nulls = bc.allNulls.window(lo, hi)
	bc.haveVals, bc.haveCodes = bc.col == nil, false
	switch v := bc.vec; {
	case bc.col != nil:
	case v.Dict != nil:
		bc.codes, bc.haveVals, bc.haveCodes = v.Codes[lo:hi], false, true
	case v.Kind == VecInt:
		bc.ints = v.Ints[lo:hi]
	case v.Kind == VecFloat:
		bc.floats = v.Floats[lo:hi]
	case v.Kind == VecStr:
		bc.strs = v.Strs[lo:hi]
	default:
		bc.anys = v.Anys[lo:hi]
	}
}

// boxed reports whether the column is a boxed column of vectors.
func (bc *batchCol) boxed() bool { return bc.vec != nil && bc.vec.Kind == VecAny }

// Next advances to the following window, selecting all of it, and
// reports whether it holds any rows.
func (b *Batch) Next() bool {
	if b.hi >= b.n {
		return false
	}
	b.lo = b.hi
	b.hi = min(b.lo+BatchSize, b.n)
	for _, bc := range b.cols {
		if bc != nil {
			bc.load(b.lo, b.hi)
		}
	}
	b.Sel = b.All()
	return true
}

// Project returns a batch over b's window, selecting sel, whose column
// j is b's column cols[j] when that is ≥ 0 and vecs[j], a vector over
// the window (Mask -1), otherwise. It shares b's columns and decode
// buffers, and reads vecs where they are, so it is valid while b stays
// at this window and vecs are unchanged, and it has no window after
// this one.
func (b *Batch) Project(cols []int, vecs []Vec, sel []int32) *Batch {
	out := &Batch{n: b.hi, lo: b.lo, hi: b.hi, cols: make([]*batchCol, len(cols)), Sel: sel}
	for j, c := range cols {
		if c >= 0 {
			out.cols[j] = b.col(c)
			continue
		}
		out.cols[j] = new(batchCol).setVec(&vecs[j])
		out.cols[j].load(0, b.Len())
	}
	return out
}

// Stats returns the statistics of the current window of a partition's
// batch, one per column (Partition.Windows): nil for a batch of
// vectors, a projection, and a partition read back from disk.
func (b *Batch) Stats() []ColumnStats {
	if b.p == nil || b.p.Windows == nil {
		return nil
	}
	return b.p.Windows[b.lo/BatchSize]
}

// Len is the number of rows in the current window.
func (b *Batch) Len() int { return b.hi - b.lo }

// Width is the number of columns.
func (b *Batch) Width() int { return len(b.cols) }

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
func (b *Batch) Dict(c int) Dict { return b.col(c).dict }

// Type returns column c's logical type (TNull for a boxed column of
// vectors).
func (b *Batch) Type(c int) row.Type { return b.col(c).typ }

// Nulls returns column c's NULL positions in the window (nil when the
// column has none anywhere; always nil for a boxed column, whose NULLs
// are nil values).
func (b *Batch) Nulls(c int) Bitmap { return b.col(c).nulls }

// Ints returns a TInt or TDate column's values (whatever its
// encoding). NULL positions hold a placeholder.
func (b *Batch) Ints(c int) []int64 {
	bc := b.col(c)
	if !bc.haveVals {
		col := bc.col.(intsReader)
		if _, raw := col.(*rawInt64); !raw && bc.intBuf == nil {
			bc.intBuf = make([]int64, min(BatchSize, b.n))
		}
		bc.ints, bc.haveVals = col.ints(b.lo, b.hi, bc.intBuf), true
	}
	return bc.ints
}

// Floats returns a TFloat column's values.
func (b *Batch) Floats(c int) []float64 {
	bc := b.col(c)
	if !bc.haveVals {
		col := bc.col.(floatsReader)
		if _, raw := col.(*rawFloat64); !raw && bc.floatBuf == nil {
			bc.floatBuf = make([]float64, min(BatchSize, b.n))
		}
		bc.floats, bc.haveVals = col.floats(b.lo, b.hi, bc.floatBuf), true
	}
	return bc.floats
}

// Strings returns a TString column's values. A partition's strings
// share the column's memory (sub-strings of a raw column's data, a
// dictionary's entries): reading them is free, and a caller that keeps
// one past the scan copies it (strings.Clone) so as not to keep the
// column alive.
func (b *Batch) Strings(c int) []string {
	bc := b.col(c)
	if !bc.haveVals {
		if bc.strBuf == nil {
			bc.strBuf = make([]string, min(BatchSize, b.n))
		}
		if bc.col == nil { // a dictionary vector's codes
			bc.strs = bc.strBuf[:len(bc.codes)]
			for i := range bc.strs {
				bc.strs[i] = bc.vec.Str(int32(b.lo + i))
			}
		} else {
			bc.strs = bc.col.(interface {
				strings(lo, hi int, buf []string) []string
			}).strings(b.lo, b.hi, bc.strBuf)
		}
		bc.haveVals = true
	}
	return bc.strs
}

// Bools returns a TBool column's values as a bitmap over the window.
func (b *Batch) Bools(c int) Bitmap {
	return b.col(c).col.(*boolColumn).bitsv.window(b.lo, b.hi)
}

// Codes returns a dictionary column's codes (see Dict). NULL positions
// hold a placeholder code.
func (b *Batch) Codes(c int) []uint8 {
	bc := b.col(c)
	if !bc.haveCodes { // a dictionary vector's are loaded with its window
		if bc.codeBuf == nil {
			bc.codeBuf = make([]uint8, min(BatchSize, b.n))
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

// Vec returns column c's window as a vector: typed where the column
// is, a bool or NULL-typed column's values boxed.
func (b *Batch) Vec(c int) Vec {
	bc := b.col(c)
	v := Vec{Mask: -1, Nulls: bc.nulls, Owned: bc.owned}
	switch {
	case bc.boxed():
		v.Kind, v.Anys = VecAny, bc.anys
	case bc.typ == row.TInt || bc.typ == row.TDate:
		v.Kind, v.Ints = VecInt, b.Ints(c)
	case bc.typ == row.TFloat:
		v.Kind, v.Floats = VecFloat, b.Floats(c)
	case bc.typ == row.TString:
		v.Kind, v.Strs = VecStr, b.Strings(c)
	default:
		v.Kind, v.Nulls, v.Anys = VecAny, nil, make([]any, b.Len())
		for i := range v.Anys {
			if bc.typ == row.TBool && !bc.nulls.Has(i) {
				v.Anys[i] = b.Bools(c).Has(i)
			}
		}
	}
	return v
}

// window is Vec, but a dictionary string column's as its codes.
func (b *Batch) window(c int) Vec {
	if bc := b.col(c); bc.dict != nil && bc.typ == row.TString {
		return Vec{Kind: VecStr, Mask: -1, Owned: bc.owned, Nulls: bc.nulls, Codes: b.Codes(c), Dict: bc.dict}
	}
	return b.Vec(c)
}

// Keep returns column c's rows at sel as a vector a result can keep:
// slot j is row sel[j]. A partition's column is read straight from its
// encoding into vectors the selection's size (decodeKept), a
// dictionary string column kept as its codes (the dictionary is the
// partition's, and immutable). A VecBatch's column over its whole
// window is adopted as it is, since nothing overwrites it, unless its
// strings share a partition's bytes (a join's probe side). Anything
// else is gathered, a string still sharing a partition's bytes copied
// out.
func (b *Batch) Keep(c int, sel []int32) Vec {
	if v, ok := b.decodeKept(c, sel); ok {
		return v
	}
	v := b.window(c)
	if b.col(c).frozen && len(sel) == b.Len() && (v.Owned || v.Kind == VecInt || v.Kind == VecFloat) {
		return v
	}
	return v.Gather(sel, true)
}

// decodeKept decodes rows sel of partition column c's window straight
// into vectors of their own: no decode buffer, and no copy out of one;
// a raw string column's strings are copied out of the partition's
// bytes. false for a column it does not decode: a bool column (boxed),
// a column of vectors.
func (b *Batch) decodeKept(c int, sel []int32) (Vec, bool) {
	bc := b.col(c)
	var v Vec
	switch col := bc.col.(type) {
	case *rawString:
		v.Kind, v.Strs = VecStr, make([]string, len(sel))
		for j, i := range sel {
			v.Strs[j] = strings.Clone(col.at(b.lo + int(i)))
		}
	case *dictString:
		codes := func(lo, hi int, buf []uint8) []uint8 { return unpackCodes(col.words, col.width, lo, hi, buf) }
		v.Kind, v.Dict, v.Codes = VecStr, col, keepRuns(sel, b.lo, codes)
	case intsReader:
		v.Kind, v.Ints = VecInt, keepRuns(sel, b.lo, col.ints)
	case floatsReader:
		v.Kind, v.Floats = VecFloat, keepRuns(sel, b.lo, col.floats)
	default:
		return v, false
	}
	v.Mask, v.Owned, v.Nulls = -1, true, bc.nulls.Gather(sel)
	return v, true
}

// keepRuns reads rows sel (window positions from row lo) into a slice
// of their own, a run of consecutive rows at a time: read decodes into
// the slice, or returns the rows where a raw encoding holds them, to
// be copied.
func keepRuns[T int64 | float64 | uint8](sel []int32, lo int, read func(lo, hi int, buf []T) []T) []T {
	out := make([]T, len(sel))
	for j := 0; j < len(sel); {
		k := j + 1
		for k < len(sel) && sel[k] == sel[k-1]+1 {
			k++
		}
		from := lo + int(sel[j])
		copy(out[j:k], read(from, from+k-j, out[j:k]))
		j = k
	}
	return out
}

// Box writes column c's values at the selected window positions into
// dst[0], dst[stride], dst[2*stride], … as boxed row values (nil for
// NULL): where typed vectors turn back into `any`, a column at a time.
// Dictionary cells reuse the values boxed at seal time, so they cost
// nothing; other cells cost what Go's interface conversion does. A
// boxed cell outlives the batch, in a row someone keeps, so a string
// that shares a partition's bytes is copied out rather than left a
// sub-string holding the whole column's bytes reachable.
func (b *Batch) Box(c int, sel []int32, dst []any, stride int) {
	v := b.window(c)
	for j, i := range sel {
		dst[j*stride] = own(v.At(i), v.Owned || v.Dict != nil)
	}
}

// Windows appends the window vectors of the first n columns to dst, as
// Box reads them: for BoxRow, once a window.
func (b *Batch) Windows(n int, dst []Vec) []Vec {
	for c := range n {
		dst = append(dst, b.window(c))
	}
	return dst
}

// BoxRow fills dst with position i of each window vector (Windows),
// boxed as Box boxes it: the one-row form, for a scratch row refilled
// at each selected position.
func BoxRow(wins []Vec, i int32, dst row.Row) {
	for j := range wins {
		v := &wins[j]
		dst[j] = own(v.At(i), v.Owned || v.Dict != nil)
	}
}

// own returns a boxed cell fit to outlive its batch: a string that
// shares a partition's bytes (not owned) is copied out.
func own(x any, owned bool) any {
	if s, ok := x.(string); ok && !owned {
		return strings.Clone(s)
	}
	return x
}

// Rows materializes the selected window rows, projected to cols. The
// rows are carved from one slab sized to the selection — a result that
// keeps 1 % of a window retains 1 % of a window's cells — each capped
// at its own length, so appending to one cannot write into its
// neighbour.
func (b *Batch) Rows(cols []int, sel []int32) []row.Row {
	return b.appendRows(make([]row.Row, 0, len(sel)), cols, sel)
}

func (b *Batch) appendRows(rows []row.Row, cols []int, sel []int32) []row.Row {
	if len(sel) == 0 {
		return rows
	}
	n := len(cols)
	slab := make([]any, len(sel)*n)
	for j, c := range cols {
		b.Box(c, sel, slab[j:], n)
	}
	for i := range sel {
		rows = append(rows, slab[i*n:(i+1)*n:(i+1)*n])
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
// 0. Strings may share the partition's bytes, unless Owned says they
// do not; whatever keeps one past the batch copies it then. A vector
// over more rows than a window (a group table's, a join block's) is
// the column of a VecBatch.
type Vec struct {
	Kind   VecKind
	Owned  bool // its strings share no partition's bytes
	Mask   int32
	Ints   []int64
	Floats []float64
	Strs   []string
	Anys   []any  // VecAny: nil is NULL
	Nulls  Bitmap // typed kinds: NULL positions (nil = none)
	// A VecStr a result keeps of a dictionary column is its codes: slot
	// i is entry Codes[i] of Dict, and Strs is unused.
	Codes []uint8
	Dict  Dict
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
	if v.Dict != nil {
		return v.Dict.DictValue(int(v.Codes[i&v.Mask]))
	}
	return v.Strs[i&v.Mask]
}

// Gather returns v's slots ids, in that order, as a vector of its own.
// Its strings are v's unless own is set and v does not own them: then
// they are copied.
func (v *Vec) Gather(ids []int32, own bool) Vec {
	out := Vec{Kind: v.Kind, Mask: -1, Owned: v.Owned || own, Dict: v.Dict, Ints: Gather(v.Ints, ids),
		Floats: Gather(v.Floats, ids), Strs: Gather(v.Strs, ids), Anys: Gather(v.Anys, ids), Codes: Gather(v.Codes, ids),
		Nulls: v.Nulls.Gather(ids)}
	for i := range out.Strs {
		if own && !v.Owned {
			out.Strs[i] = strings.Clone(out.Strs[i])
		}
	}
	for i, x := range out.Anys {
		if s, ok := x.(string); ok && own && !v.Owned {
			out.Anys[i] = strings.Clone(s)
		}
	}
	return out
}

// Gather returns xs at ids, in that order (nil for nil).
func Gather[T any](xs []T, ids []int32) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(ids))
	for j, id := range ids {
		out[j] = xs[id]
	}
	return out
}

// Null reports whether the value at window position i is NULL.
func (v *Vec) Null(i int32) bool {
	if v.Kind == VecAny {
		return v.Anys[i] == nil
	}
	return v.Nulls.Has(int(i))
}

// Str returns a VecStr's string at window position i.
func (v *Vec) Str(i int32) string {
	if v.Dict != nil {
		return v.Dict.DictValue(int(v.Codes[i&v.Mask])).(string)
	}
	return v.Strs[i&v.Mask]
}

// VecFn is a function's kernel over a batch: args are its argument
// vectors and sel the window positions to compute. The result is
// indexed by window position like the arguments. A VecFn owns the
// buffers behind the vector it returns and reuses them from batch to
// batch, so it serves one task.
type VecFn func(sel []int32, args []Vec) Vec
