package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"shark/internal/columnar"
	"shark/internal/plan"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// block is rows as columns, the form in which an operator's rows
// cross the shuffle: a slot per row in a vector per column (cols),
// and for a hash aggregate's partial state, in each aggregate's
// accumulators. A partial aggregate's rows are its groups, its columns
// the GROUP BY keys: a group table (vecagg.go) is a block that grows;
// a map task cuts its table into a block per shuffle bucket, and a
// reduce task folds the blocks it fetches into a fresh table, only
// reading them, so a retried or speculative reduce re-reads them
// safely. A join side's block (add) holds its rows: the join key's
// vector, then one per column of the side; a join's build side is the
// blocks it reads (join.go).
//
// A column, and an aggregate's values, are a columnar.Vec over slots
// (Mask -1), typed by the plan's type for the column, boxed for any
// other type or once a value of another type arrives (an adapter's). A
// set bit of Nulls is a NULL, or an aggregate that has seen no value
// yet. A block's strings are its own.
type block struct {
	n    int // rows
	cols []columnar.Vec
	accs []accum
}

// accum is one aggregate's accumulators: COUNT and AVG count values,
// SUM and AVG add them into val, MIN and MAX keep one there, and
// COUNT(DISTINCT) keeps a set.
type accum struct {
	count    []int64
	val      columnar.Vec
	distinct []map[any]struct{}
}

// slotsFor returns an empty column for values of type t.
func slotsFor(t row.Type) columnar.Vec {
	v := columnar.Vec{Mask: -1}
	switch t {
	case row.TInt, row.TDate:
		v.Kind = columnar.VecInt
	case row.TFloat:
		v.Kind = columnar.VecFloat
	case row.TString:
		v.Kind = columnar.VecStr
	}
	return v
}

// slots returns a pointer to v's values when v holds T, else nil.
func slots[T int64 | float64 | string](v *columnar.Vec) *[]T {
	var p any
	switch v.Kind {
	case columnar.VecInt:
		p = &v.Ints
	case columnar.VecFloat:
		p = &v.Floats
	case columnar.VecStr:
		p = &v.Strs
	}
	xs, _ := p.(*[]T)
	return xs
}

// at reads back slot i of a column holding T values.
func at[T int64 | float64 | string](v *columnar.Vec, i int32) T {
	if xs := slots[T](v); xs != nil {
		return (*xs)[i]
	}
	return v.Anys[i].(T)
}

// grow appends slot n, NULL, to v.
func grow(v *columnar.Vec, n int) {
	if n&63 == 0 {
		v.Nulls = push(v.Nulls)
	}
	v.Nulls.Set(n)
	switch v.Kind {
	case columnar.VecInt:
		v.Ints = push(v.Ints)
	case columnar.VecFloat:
		v.Floats = push(v.Floats)
	case columnar.VecStr:
		v.Strs = push(v.Strs)
	default:
		v.Anys = push(v.Anys)
	}
}

// push appends a zero slot, doubling a full slice: append's 1.25×
// growth of a large slice allocates several times its final size.
func push[T any](s []T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 4))
	}
	var zero T
	return append(s, zero)
}

// box turns v, of n slots, into a boxed column.
func box(v *columnar.Vec, n int) {
	if v.Kind != columnar.VecAny {
		anys := make([]any, n)
		for i := range anys {
			anys[i] = v.At(int32(i))
		}
		*v = columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: anys, Nulls: v.Nulls}
	}
}

// valid clears slot i's null bit.
func valid(v *columnar.Vec, i int32) { v.Nulls[i>>6] &^= 1 << (uint(i) & 63) }

// grow appends slot n, empty, to the vectors s uses.
func (a *accum) grow(s plan.AggSpec, n int) {
	if s.Kind == plan.AggCount || s.Kind == plan.AggAvg {
		a.count = push(a.count)
	}
	if s.Kind == plan.AggCountDistinct {
		a.distinct = push(a.distinct)
	} else if s.Kind != plan.AggCount {
		grow(&a.val, n)
	}
}

// Records implements the shuffle's record count: a row is a record.
func (b *block) Records() int64 { return int64(b.n) }

// SizeBytes is the block's footprint: PDE's bucket sizes are exact.
func (b *block) SizeBytes() int64 {
	var n int64
	for k := range b.cols {
		n += vecBytes(&b.cols[k])
	}
	for _, a := range b.accs {
		n += 8*int64(len(a.count)) + vecBytes(&a.val)
		for _, set := range a.distinct {
			n += 48 + 16*int64(len(set))
		}
	}
	return n
}

func vecBytes(v *columnar.Vec) int64 {
	n := 8 * int64(len(v.Nulls)+len(v.Ints)+len(v.Floats))
	for _, s := range v.Strs {
		n += 16 + int64(len(s))
	}
	for _, x := range v.Anys {
		n += shuffle.EstimateSize(x)
	}
	return n
}

// gather makes out rows ids of b, in that order, as a block of their
// own; out's cols and accs are b's lengths.
func (b *block) gather(out *block, ids []int32) {
	out.n = len(ids)
	for k := range b.cols {
		out.cols[k] = b.cols[k].Gather(ids, false)
	}
	for k, a := range b.accs {
		out.accs[k] = accum{columnar.Gather(a.count, ids), a.val.Gather(ids, false), columnar.Gather(a.distinct, ids)}
	}
}

// used reports whether v has slots.
func used(v *columnar.Vec) bool {
	return v.Ints != nil || v.Floats != nil || v.Strs != nil || v.Anys != nil
}

// add appends the rows at positions pos of a join input — its key's
// vector, then its columns' — copying strings that are not their
// vectors' own.
func (b *block) add(key *columnar.Vec, cols []columnar.Vec, pos []int32) {
	if b.cols == nil {
		b.cols = make([]columnar.Vec, 1+len(cols))
	}
	appendVec(&b.cols[0], key, pos, b.n)
	for c := range cols {
		appendVec(&b.cols[1+c], &cols[c], pos, b.n)
	}
	b.n += len(pos)
}

// appendVec appends src's values at pos to dst, which holds n slots: a
// typed vector while every value is of its kind, boxed from the first
// that is not; a dictionary's codes while every value comes from one
// dictionary, its strings from the first that does not. Its NULL
// bitmap, when it has one, covers every slot.
func appendVec(dst, src *columnar.Vec, pos []int32, n int) {
	switch {
	case n == 0:
		*dst = columnar.Vec{Kind: src.Kind, Mask: -1, Owned: true, Dict: src.Dict}
	case dst.Kind != src.Kind:
		box(dst, n)
	case dst.Dict != nil && dst.Dict != src.Dict:
		dst.Strs = make([]string, n, n+len(pos))
		for i := range dst.Strs {
			dst.Strs[i] = dst.Str(int32(i))
		}
		dst.Codes, dst.Dict = nil, nil
	}
	for j, i := range pos {
		if src.Null(i) {
			for len(dst.Nulls) <= (n+j)>>6 {
				dst.Nulls = append(dst.Nulls, 0)
			}
			dst.Nulls.Set(n + j)
		}
		switch dst.Kind {
		case columnar.VecInt:
			dst.Ints = append(dst.Ints, src.Ints[i&src.Mask])
		case columnar.VecFloat:
			dst.Floats = append(dst.Floats, src.Floats[i&src.Mask])
		case columnar.VecStr:
			if dst.Dict != nil {
				dst.Codes = append(dst.Codes, src.Codes[i&src.Mask])
			} else {
				dst.Strs = append(dst.Strs, ownStr(src.Str(i), src.Owned))
			}
		default:
			x := src.At(i)
			if s, ok := x.(string); ok {
				x = ownStr(s, src.Owned)
			}
			dst.Anys = append(dst.Anys, x)
		}
	}
	if dst.Nulls != nil {
		for len(dst.Nulls) < (n+len(pos)+63)/64 {
			dst.Nulls = append(dst.Nulls, 0)
		}
	}
}

// ownStr returns s in memory of its own.
func ownStr(s string, owned bool) string {
	if owned {
		return s
	}
	return strings.Clone(s)
}

// ---------------------------------------------------------------------------
// Spill and disk-shuffle form

const blockTag = "exec.block"

func init() {
	shuffle.RegisterDiskDecoder(blockTag, func(fields row.Row) any {
		b, err := unmarshalBlock(fields)
		if err != nil {
			panic(err) // the spill codec and the disk shuffle fail the read
		}
		return b
	})
}

// blob is one of a block's blobs: whether the block has it, and the
// function moving it through a codec.
type blob struct {
	has  bool
	move func(x *columnar.BlobCodec)
}

// blobs lists the block's blobs: one per key column, then three per
// aggregate, one per accumulator vector.
func (b *block) blobs() []blob {
	var out []blob
	for k := range b.cols {
		out = append(out, blob{true, func(x *columnar.BlobCodec) { vecBlob(x, &b.cols[k], b.n) }})
	}
	for k := range b.accs {
		a := &b.accs[k]
		out = append(out,
			blob{a.count != nil, func(x *columnar.BlobCodec) { columnar.Fixed(x, &a.count, b.n) }},
			blob{used(&a.val), func(x *columnar.BlobCodec) { vecBlob(x, &a.val, b.n) }},
			blob{a.distinct != nil, func(x *columnar.BlobCodec) { sets(x, &a.distinct, b.n) }})
	}
	return out
}

// MarshalShuffle implements shuffle.DiskMarshaler: the group count, the
// number of key columns, then the blobs, "" for one the block has not.
func (b *block) MarshalShuffle() (string, row.Row) {
	fields := row.Row{int64(b.n), int64(len(b.cols))}
	for _, blob := range b.blobs() {
		x := columnar.NewBlobWriter(b.n)
		if blob.has {
			blob.move(x)
		}
		fields = append(fields, x.Blob())
	}
	return blockTag, fields
}

// unmarshalBlock inverts MarshalShuffle. Every count is checked
// against the bytes left before it sizes an allocation, and a block
// that would marshal back to other bytes is an error.
func unmarshalBlock(fields row.Row) (*block, error) {
	bad := fmt.Errorf("exec: malformed partial-aggregate block (%d fields)", len(fields))
	if len(fields) < 2 {
		return nil, bad
	}
	n, ok := fields[0].(int64)
	nk, ok2 := fields[1].(int64)
	blobs := fields[2:]
	// A block holds at least one group; without GROUP BY, exactly one.
	if !ok || !ok2 || n < 1 || n > math.MaxInt32 || nk < 0 || nk > int64(len(blobs)) || nk == 0 && n != 1 || (int64(len(blobs))-nk)%3 != 0 {
		return nil, bad
	}
	b := &block{n: int(n), cols: make([]columnar.Vec, nk), accs: make([]accum, (len(blobs)-int(nk))/3)}
	for i, blob := range b.blobs() {
		s, ok := blobs[i].(string)
		if !ok || s == "" && i < len(b.cols) {
			return nil, bad
		}
		x := columnar.NewBlobReader(b.n, s)
		if s != "" {
			blob.move(x)
		}
		if !x.Done() {
			return nil, bad
		}
	}
	return b, nil
}

// vecBlob moves v's n slots through x: the kind, the NULL bitmap, then
// the values (a boxed column's as one binary row, NULL exactly where
// the bitmap says).
func vecBlob(x *columnar.BlobCodec, v *columnar.Vec, n int) {
	kind := byte(v.Kind)
	x.U8(&kind)
	if !x.Check(kind <= byte(columnar.VecStr)) {
		return
	}
	if x.Reading() { // a block being written may be folded meanwhile: only read it
		v.Kind, v.Mask, v.Owned = columnar.VecKind(kind), -1, true
	}
	x.Bitmap(&v.Nulls)
	switch v.Kind {
	case columnar.VecInt:
		columnar.Fixed(x, &v.Ints, n)
	case columnar.VecFloat:
		columnar.Fixed(x, &v.Floats, n)
	case columnar.VecStr:
		x.Strings(&v.Strs, n)
	default:
		x.Values(&v.Anys, n)
		for i, a := range v.Anys {
			x.Check((a == nil) == v.Nulls.Has(i))
		}
	}
}

// sets moves n COUNT(DISTINCT) sets: their sizes, then their members as
// one binary row, each set's in orderValues order, so that a set
// marshals the same however its map iterates.
func sets(x *columnar.BlobCodec, v *[]map[any]struct{}, n int) {
	sizes := make([]int64, len(*v))
	var members []any
	for i, set := range *v {
		sizes[i] = int64(len(set))
		at := len(members)
		for m := range set {
			members = append(members, m)
		}
		slices.SortFunc(members[at:], orderValues)
	}
	columnar.Fixed(x, &sizes, n)
	var total int64
	for _, k := range sizes {
		total += k
		x.Check(k >= 0 && total <= math.MaxInt32)
	}
	if !x.Check(true) {
		return
	}
	x.Values(&members, int(total))
	if !x.Reading() || !x.Check(int64(len(members)) == total) {
		return
	}
	*v = make([]map[any]struct{}, n)
	for i, k := range sizes {
		if k == 0 {
			continue
		}
		mine := members[:k]
		members = members[k:]
		set := make(map[any]struct{}, k)
		for j, m := range mine {
			x.Check(m != nil && (j == 0 || orderValues(mine[j-1], m) <= 0))
			set[m] = struct{}{}
		}
		x.Check(int64(len(set)) == k) // no member twice
		(*v)[i] = set
	}
}

// orderValues is a total order on row values: by type, then by value,
// floats by their bits.
func orderValues(a, b any) int {
	if ta, tb := row.TypeOf(a), row.TypeOf(b); ta != tb {
		return cmp.Compare(ta, tb)
	}
	if x, ok := a.(float64); ok {
		return cmp.Compare(math.Float64bits(x), math.Float64bits(b.(float64)))
	}
	return row.Compare(a, b)
}
