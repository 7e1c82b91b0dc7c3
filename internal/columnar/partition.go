package columnar

import (
	"fmt"
	"strings"

	"shark/internal/row"
)

// maxDistinctTracked bounds the exact distinct-set tracking used both
// for dictionary-encoding decisions and for enum-column pruning stats.
const maxDistinctTracked = 256

// dictionaryThreshold: dictionary-encode when the number of distinct
// values is at most this many (paper: "if its number of distinct
// values is below a threshold").
const dictionaryThreshold = 256

// minAvgRunForRLE: run-length encode when the average run is at least
// this long.
const minAvgRunForRLE = 4

// ColumnStats are the per-partition statistics collected while loading
// (paper §3.5): the range of each column, and the distinct values when
// there are few (enum columns). The master keeps these for pruning.
type ColumnStats struct {
	Min, Max  any   // nil when the column is all-NULL or non-comparable
	NullCount int64 // number of NULLs
	// Distinct holds the exact distinct non-null values when their
	// count never exceeded maxDistinctTracked, else nil.
	Distinct []any
}

// MayContain reports whether a value in [lo, hi] (inclusive; nil means
// unbounded) could exist in the column. Used by map pruning.
func (s *ColumnStats) MayContain(lo, hi any) bool {
	if s.Min == nil || s.Max == nil {
		// no stats: cannot prune
		return true
	}
	if lo != nil && row.Compare(s.Max, lo) < 0 {
		return false
	}
	if hi != nil && row.Compare(s.Min, hi) > 0 {
		return false
	}
	return true
}

// MayEqual reports whether the column could contain exactly v.
func (s *ColumnStats) MayEqual(v any) bool {
	if v == nil {
		return s.NullCount > 0
	}
	if !s.MayContain(v, v) {
		return false
	}
	if s.Distinct != nil {
		for _, d := range s.Distinct {
			if row.Equal(d, v) {
				return true
			}
		}
		return false
	}
	return true
}

// Partition is one sealed, immutable columnar block of a cached table.
type Partition struct {
	Schema row.Schema
	Cols   []Column
	Stats  []ColumnStats
	N      int
}

// SizeBytes approximates the partition's memory footprint.
func (p *Partition) SizeBytes() int64 {
	var n int64
	for _, c := range p.Cols {
		n += c.SizeBytes()
	}
	return n
}

// Row materializes row i (boxed). For tests and point reads; scans
// decode ranges through a Batch.
func (p *Partition) Row(i int) row.Row {
	out := make(row.Row, len(p.Cols))
	for c, col := range p.Cols {
		out[c] = col.Get(i)
	}
	return out
}

// Builder accumulates rows and seals them into a Partition, choosing a
// compression scheme per column from locally collected metadata — no
// cross-partition coordination, exactly as in §3.3.
type Builder struct {
	schema row.Schema
	cols   []*colBuilder
	n      int
}

// NewBuilder creates a Builder for the schema.
func NewBuilder(schema row.Schema) *Builder {
	b := &Builder{schema: schema.Clone()}
	for _, f := range schema {
		b.cols = append(b.cols, newColBuilder(f.Type))
	}
	return b
}

// Append adds one row.
func (b *Builder) Append(r row.Row) error {
	if len(r) != len(b.cols) {
		return fmt.Errorf("columnar: row has %d fields, schema %d", len(r), len(b.cols))
	}
	for i, v := range r {
		if err := b.cols[i].append(v); err != nil {
			return err
		}
	}
	b.n++
	return nil
}

// Len returns the number of buffered rows.
func (b *Builder) Len() int { return b.n }

// Seal freezes the builder into an immutable Partition.
func (b *Builder) Seal() *Partition {
	p := &Partition{Schema: b.schema, N: b.n}
	for _, cb := range b.cols {
		col, stats := cb.seal(b.n)
		p.Cols = append(p.Cols, col)
		p.Stats = append(p.Stats, stats)
	}
	return p
}

// colBuilder buffers one column's values plus the metadata needed to
// pick an encoding.
type colBuilder struct {
	typ    row.Type
	isNull []bool

	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	anyNull bool

	distinct map[any]struct{} // nil once cardinality exceeded the cap
	runs     int              // number of value runs (for RLE decision)
	lastSet  bool
	last     any

	min, max  any
	nullCount int64
}

func newColBuilder(t row.Type) *colBuilder {
	return &colBuilder{typ: t, distinct: make(map[any]struct{})}
}

func (cb *colBuilder) append(v any) error {
	isNull := v == nil
	cb.isNull = append(cb.isNull, isNull)
	if isNull {
		cb.anyNull = true
		cb.nullCount++
		// store a zero placeholder to keep positions aligned
		v = zeroFor(cb.typ)
	} else {
		if !matches(cb.typ, v) {
			return errType(cb.typ, v)
		}
		if cb.min == nil || row.Compare(v, cb.min) < 0 {
			cb.min = v
		}
		if cb.max == nil || row.Compare(v, cb.max) > 0 {
			cb.max = v
		}
		if cb.distinct != nil {
			cb.distinct[v] = struct{}{}
			if len(cb.distinct) > maxDistinctTracked {
				cb.distinct = nil
			}
		}
	}
	if !cb.lastSet || !row.Equal(cb.last, v) {
		cb.runs++
		cb.last, cb.lastSet = v, true
	}
	switch cb.typ {
	case row.TInt, row.TDate:
		cb.ints = append(cb.ints, v.(int64))
	case row.TFloat:
		cb.floats = append(cb.floats, v.(float64))
	case row.TString:
		cb.strs = append(cb.strs, v.(string))
	case row.TBool:
		cb.bools = append(cb.bools, v.(bool))
	default:
		return fmt.Errorf("columnar: unsupported column type %v", cb.typ)
	}
	return nil
}

func zeroFor(t row.Type) any {
	switch t {
	case row.TInt, row.TDate:
		return int64(0)
	case row.TFloat:
		return float64(0)
	case row.TString:
		return ""
	case row.TBool:
		return false
	}
	return int64(0)
}

func matches(t row.Type, v any) bool {
	switch t {
	case row.TInt, row.TDate:
		_, ok := v.(int64)
		return ok
	case row.TFloat:
		_, ok := v.(float64)
		return ok
	case row.TString:
		_, ok := v.(string)
		return ok
	case row.TBool:
		_, ok := v.(bool)
		return ok
	}
	return false
}

func (cb *colBuilder) stats() ColumnStats {
	s := ColumnStats{Min: cb.min, Max: cb.max, NullCount: cb.nullCount}
	if cb.distinct != nil {
		s.Distinct = make([]any, 0, len(cb.distinct))
		for v := range cb.distinct {
			s.Distinct = append(s.Distinct, v)
		}
	}
	return s
}

func (cb *colBuilder) seal(n int) (Column, ColumnStats) {
	stats := cb.stats()
	nulls := nullable{nulls: newNulls(cb.isNull)}
	avgRunOK := cb.runs > 0 && n/cb.runs >= minAvgRunForRLE

	switch cb.typ {
	case row.TInt, row.TDate:
		return cb.sealInt(n, nulls, avgRunOK), stats
	case row.TFloat:
		if avgRunOK {
			vals, ends := rleEncodeFloat(cb.floats)
			return &rleFloat64{nullable: nulls, vals: vals, ends: ends, n: n}, stats
		}
		return &rawFloat64{nullable: nulls, v: cb.floats}, stats
	case row.TString:
		if cb.distinct != nil && len(cb.distinct) > 0 && len(cb.distinct) <= dictionaryThreshold && n >= 2*len(cb.distinct) {
			return sealDictString(cb.strs, nulls, n), stats
		}
		return sealRawString(cb.strs, nulls), stats
	case row.TBool:
		return &boolColumn{nullable: nulls, bitsv: newBitmap(cb.bools), n: n}, stats
	}
	panic("columnar: unreachable")
}

func (cb *colBuilder) sealInt(n int, nulls nullable, avgRunOK bool) Column {
	kind := intKind{cb.typ}
	if avgRunOK {
		vals, ends := rleEncodeInt(cb.ints)
		return &rleInt64{nullable: nulls, intKind: kind, vals: vals, ends: ends, n: n}
	}
	if cb.distinct != nil && len(cb.distinct) > 0 && len(cb.distinct) <= dictionaryThreshold && n >= 4*len(cb.distinct) {
		dict := make([]int64, 0, len(cb.distinct))
		for v := range cb.distinct {
			dict = append(dict, v.(int64))
		}
		sortInt64s(dict)
		idx := make(map[int64]uint64, len(dict))
		for i, v := range dict {
			idx[v] = uint64(i)
		}
		width := widthFor(uint64(len(dict) - 1))
		codes := make([]uint64, n)
		for i, v := range cb.ints {
			codes[i] = idx[v]
		}
		return &dictInt64{nullable: nulls, intKind: kind, dict: dict, boxed: boxAll(dict), words: pack(codes, width), width: width, n: n}
	}
	// bit packing when the value range is narrow
	if mn, ok := cb.min.(int64); ok {
		mx := cb.max.(int64)
		rng := uint64(mx) - uint64(mn)
		if rng < 1<<32 {
			width := widthFor(rng)
			if int(width)*n < 64*n/2 { // only if it actually halves the footprint
				codes := make([]uint64, n)
				for i, v := range cb.ints {
					codes[i] = uint64(v) - uint64(mn)
				}
				return &packedInt64{nullable: nulls, intKind: kind, words: pack(codes, width), base: mn, width: width, n: n}
			}
		}
	}
	return &rawInt64{nullable: nulls, intKind: kind, v: cb.ints}
}

func boxAll[T any](vals []T) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func rleEncodeInt(v []int64) ([]int64, []uint32) {
	var vals []int64
	var ends []uint32
	for i := 0; i < len(v); i++ {
		if len(vals) == 0 || vals[len(vals)-1] != v[i] {
			vals = append(vals, v[i])
			ends = append(ends, uint32(i+1))
		} else {
			ends[len(ends)-1] = uint32(i + 1)
		}
	}
	return vals, ends
}

func rleEncodeFloat(v []float64) ([]float64, []uint32) {
	var vals []float64
	var ends []uint32
	for i := 0; i < len(v); i++ {
		if len(vals) == 0 || vals[len(vals)-1] != v[i] {
			vals = append(vals, v[i])
			ends = append(ends, uint32(i+1))
		} else {
			ends[len(ends)-1] = uint32(i + 1)
		}
	}
	return vals, ends
}

// sealDictString builds the dictionary from the non-NULL cells only, in
// first-seen order. A NULL row's "" placeholder gets code 0 (as in
// sealInt) instead of an entry of its own, so the dictionary never has
// more entries than the column has distinct values — which is what
// keeps every code inside a byte.
func sealDictString(strs []string, nulls nullable, n int) Column {
	seen := make(map[string]uint64)
	var dict []string
	codes := make([]uint64, n)
	for i, s := range strs {
		if nulls.isNull(i) {
			continue
		}
		code, ok := seen[s]
		if !ok {
			code = uint64(len(dict))
			seen[s] = code
			dict = append(dict, s)
		}
		codes[i] = code
	}
	width := widthFor(uint64(len(dict) - 1))
	return &dictString{nullable: nulls, dict: dict, boxed: boxAll(dict), words: pack(codes, width), width: width, n: n}
}

func sealRawString(strs []string, nulls nullable) Column {
	offsets := make([]uint32, len(strs)+1)
	var total int
	for _, s := range strs {
		total += len(s)
	}
	var data strings.Builder
	data.Grow(total)
	for i, s := range strs {
		data.WriteString(s)
		offsets[i+1] = uint32(data.Len())
	}
	return &rawString{nullable: nulls, offsets: offsets, data: data.String()}
}
