package columnar

import (
	"fmt"
	"maps"
	"math"
	"slices"
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

// ColumnStats are the statistics collected while loading (paper §3.5):
// the range of each column, and the distinct values when there are few
// (enum columns). The master keeps a partition's for pruning, and the
// partition its windows' (Partition.Windows) for its scans.
type ColumnStats struct {
	Min, Max  any   // nil: all NULL or non-comparable; NaN: a row is NaN
	NullCount int64 // number of NULLs
	// Distinct holds the exact distinct non-null values when their
	// count never exceeded maxDistinctTracked, else nil (and for a
	// window).
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
	// Windows[w][c] are column c's Min, Max and NullCount over the rows
	// of window w, [w*BatchSize, (w+1)*BatchSize); Stats is their fold.
	// Nil for a partition read back from disk.
	Windows [][]ColumnStats
	N       int
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
//
// Rows arrive boxed through Append, or a field at a time through the
// typed appenders — one AppendInt, AppendFloat, AppendString,
// AppendBool or AppendNull per column, then EndRow — which makes a
// Builder the row.TextSink a text split parses straight into. Either
// way each value lands in its column's typed slice, and what the
// encoding choice reads (NULLs, runs, range, distinct values in
// first-seen order) is tracked typed as it arrives.
type Builder struct {
	schema row.Schema
	cols   []colBuilder
	n      int
}

// NewBuilder creates a Builder for the schema.
func NewBuilder(schema row.Schema) *Builder {
	b := &Builder{schema: schema.Clone(), cols: make([]colBuilder, len(schema))}
	for i, f := range schema {
		b.cols[i].typ = f.Type
		if f.Type == row.TString {
			b.cols[i].offsets = []uint32{0}
		}
	}
	return b
}

// Grow reserves room for n more rows (a DFS block knows its count).
func (b *Builder) Grow(n int) {
	for i := range b.cols {
		cb := &b.cols[i]
		cb.want = cb.n + n
		switch cb.typ {
		case row.TFloat:
			cb.floats = slices.Grow(cb.floats, n)
		case row.TInt, row.TDate:
			cb.ints = slices.Grow(cb.ints, n)
		}
	}
}

// Append adds one row: a type switch onto the typed appenders.
func (b *Builder) Append(r row.Row) error {
	if len(r) != len(b.cols) {
		return fmt.Errorf("columnar: row has %d fields, schema %d", len(r), len(b.cols))
	}
	for i, v := range r {
		cb := &b.cols[i]
		switch x := v.(type) {
		case nil:
			cb.appendNull()
			continue
		case int64:
			if cb.typ == row.TInt || cb.typ == row.TDate {
				cb.appendInt(x)
				continue
			}
		case float64:
			if cb.typ == row.TFloat {
				cb.appendFloat(x)
				continue
			}
		case string:
			if cb.typ == row.TString {
				appendString(cb, x)
				continue
			}
		case bool:
			if cb.typ == row.TBool {
				cb.appendBool(x)
				continue
			}
		}
		return errType(cb.typ, v)
	}
	b.n++
	return nil
}

// AppendNull, AppendInt (BIGINT and DATE), AppendFloat, AppendString
// and AppendBool add column col's value for the current row; the
// caller matches the appender to the column's type. AppendString
// copies s.

func (b *Builder) AppendNull(col int)             { b.cols[col].appendNull() }
func (b *Builder) AppendInt(col int, v int64)     { b.cols[col].appendInt(v) }
func (b *Builder) AppendFloat(col int, v float64) { b.cols[col].appendFloat(v) }
func (b *Builder) AppendBool(col int, v bool)     { b.cols[col].appendBool(v) }
func (b *Builder) AppendString(col int, s []byte) { appendString(&b.cols[col], s) }

// EndRow completes a row of typed appends.
func (b *Builder) EndRow() { b.n++ }

// Len returns the number of buffered rows.
func (b *Builder) Len() int { return b.n }

// Seal freezes the builder into an immutable Partition.
func (b *Builder) Seal() *Partition {
	nc, nw := len(b.cols), (b.n+BatchSize-1)/BatchSize
	p := &Partition{Schema: b.schema, N: b.n, Cols: make([]Column, nc), Stats: make([]ColumnStats, nc), Windows: make([][]ColumnStats, nw)}
	wins := make([]ColumnStats, nw*nc)
	for w := range p.Windows {
		p.Windows[w] = wins[w*nc : (w+1)*nc : (w+1)*nc]
	}
	for i := range b.cols {
		if cb := &b.cols[i]; cb.n != b.n {
			panic(fmt.Sprintf("columnar: column %d has %d values for %d rows", i, cb.n, b.n))
		}
		p.Cols[i], p.Stats[i] = b.cols[i].seal(p.Windows, i)
	}
	return p
}

// colBuilder buffers one column's values, typed, plus what picking its
// encoding needs. A NULL stores its type's zero as a placeholder, so
// positions stay aligned. Every type that is not a float, string or
// bool is int64-backed: DATE as epoch days, and a NULL-typed column
// (SELECT NULL) holds nothing but NULLs.
type colBuilder struct {
	typ       row.Type
	n         int    // values appended
	want      int    // rows expected (Grow)
	nulls     Bitmap // covers the rows up to the last NULL; nil before the first
	nullCount int64
	runs      int     // runs of equal adjacent values, placeholders included (ints, floats)
	lastRun   float64 // floats: the value that opened the current run

	ints    []int64
	floats  []float64
	bools   Bitmap
	data    []byte   // strings, back to back:
	offsets []uint32 // value i is data[offsets[i]:offsets[i+1]]

	intCodes   codeTable[int64]
	floatCodes codeTable[float64]
	strCodes   codeTable[string]
	sawBool    [2]bool // false, true
}

// codeTable numbers a column's distinct non-NULL values in first-seen
// order and records each row's number (0 for a NULL row) — the
// dictionary, should the column get one — until a value would be
// number maxDistinctTracked+1: then it is full, and records no more.
type codeTable[T comparable] struct {
	index map[T]uint8
	vals  []T
	codes []uint8
	full  bool
}

// add records v for the next row. Of values that compare equal, vals
// keeps the last, as a map keeps the key last assigned (0 then -0
// keeps -0).
func (t *codeTable[T]) add(v T) {
	if t.full {
		return
	}
	c, ok := t.index[v]
	switch {
	case ok:
		t.vals[c] = v
	case len(t.vals) == maxDistinctTracked:
		t.full, t.index = true, nil
		return
	default:
		if t.index == nil {
			t.index = make(map[T]uint8)
		}
		c = uint8(len(t.vals))
		t.index[v] = c
		t.vals = append(t.vals, v)
	}
	t.codes = append(t.codes, c)
}

func (t *codeTable[T]) skip() {
	if !t.full {
		t.codes = append(t.codes, 0)
	}
}

// distinct is the values, boxed, or nil once the table is full.
func (t *codeTable[T]) distinct() []any {
	if t.full {
		return nil
	}
	return boxAll(t.vals)
}

func (cb *colBuilder) appendNull() {
	cb.nulls = cb.nulls.cover(cb.n + 1)
	cb.nulls.Set(cb.n)
	cb.nullCount++
	switch cb.typ {
	case row.TFloat:
		cb.floatCodes.skip()
		cb.pushFloat(0)
	case row.TString:
		if cb.strCodes.skip(); cb.strCodes.full {
			cb.offsets = append(cb.offsets, uint32(len(cb.data)))
		}
		cb.n++
	case row.TBool:
		cb.pushBool(false)
	default:
		cb.intCodes.skip()
		cb.pushInt(0)
	}
}

func (cb *colBuilder) appendInt(v int64) {
	cb.intCodes.add(v)
	cb.pushInt(v)
}

func (cb *colBuilder) pushInt(v int64) {
	if cb.n == 0 || cb.ints[cb.n-1] != v {
		cb.runs++
	}
	cb.ints = append(cb.ints, v)
	cb.n++
}

func (cb *colBuilder) appendFloat(v float64) {
	cb.floatCodes.add(v)
	cb.pushFloat(v)
}

// pushFloat counts runs the way row.Compare sees floats: a NaN equals
// everything, so it never opens a run of its own.
func (cb *colBuilder) pushFloat(v float64) {
	if cb.n == 0 || v < cb.lastRun || v > cb.lastRun {
		cb.runs++
		cb.lastRun = v
	}
	cb.floats = append(cb.floats, v)
	cb.n++
}

func (cb *colBuilder) appendBool(v bool) {
	cb.sawBool[b2i(v)] = true
	cb.pushBool(v)
}

func (cb *colBuilder) pushBool(v bool) {
	cb.bools = cb.bools.cover(cb.n + 1)
	if v {
		cb.bools.Set(cb.n)
	}
	cb.n++
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// appendString keeps a string column's rows as codes while it has few
// distinct values, and as bytes once it has outgrown a dictionary.
func appendString[T string | []byte](cb *colBuilder, s T) {
	if t := &cb.strCodes; !t.full {
		if c, ok := t.index[string(s)]; ok {
			t.codes = append(t.codes, c) // a hit converts nothing
		} else if t.add(string(s)); t.full {
			cb.spell()
		}
		if !t.full {
			cb.n++
			return
		}
	}
	cb.data = append(cb.data, s...)
	cb.offsets = append(cb.offsets, uint32(len(cb.data)))
	cb.n++
}

// spell writes out the rows held as codes as bytes, reserving for the
// rows still expected at the length they average so far.
func (cb *colBuilder) spell() {
	t := &cb.strCodes
	cb.offsets = slices.Grow(cb.offsets, max(cb.want, cb.n))
	for i, c := range t.codes {
		if !cb.nulls.Has(i) {
			cb.data = append(cb.data, t.vals[c]...)
		}
		cb.offsets = append(cb.offsets, uint32(len(cb.data)))
	}
	if cb.n > 0 && cb.want > cb.n {
		cb.data = slices.Grow(cb.data, len(cb.data)*(cb.want-cb.n)/cb.n)
	}
	t.vals, t.codes = nil, nil
}

// seal builds the column and its statistics: wins[w][c] for each
// window w, and their fold for the partition, in one pass over the
// values (over the codes, for a string dictionary's).
func (cb *colBuilder) seal(wins [][]ColumnStats, c int) (Column, ColumnStats) {
	n := cb.n
	stats := ColumnStats{NullCount: cb.nullCount}
	var nulls nullable
	if cb.nullCount > 0 {
		cb.nulls = cb.nulls.cover(n)
		nulls.nulls = cb.nulls
	}
	avgRunOK := cb.runs > 0 && n/cb.runs >= minAvgRunForRLE
	switch cb.typ {
	case row.TFloat:
		stats.Min, stats.Max = bounds(cb, func(i int) float64 { return cb.floats[i] }, box, wins, c)
		stats.Distinct = cb.floatCodes.distinct()
		if avgRunOK {
			vals, ends := rleEncode(cb.floats)
			return &rleFloat64{nullable: nulls, vals: vals, ends: ends, n: n}, stats
		}
		return &rawFloat64{nullable: nulls, v: cb.floats}, stats
	case row.TString:
		return cb.sealString(nulls, &stats, wins, c), stats
	case row.TBool:
		bools := cb.bools.cover(n)
		at := func(i int) int64 { return int64(b2i(bools.Has(i))) }
		stats.Min, stats.Max = bounds(cb, at, func(v int64) any { return v == 1 }, wins, c)
		stats.Distinct = []any{}
		for v, saw := range cb.sawBool {
			if saw {
				stats.Distinct = append(stats.Distinct, v == 1)
			}
		}
		return &boolColumn{nullable: nulls, bitsv: bools, n: n}, stats
	}
	stats.Min, stats.Max = bounds(cb, func(i int) int64 { return cb.ints[i] }, box, wins, c)
	return cb.sealInt(nulls, avgRunOK, &stats), stats
}

// bounds sets each window's Min, Max (boxed by box) and NullCount,
// wins[w][c], from the values at(i) of cb's rows that are not NULL,
// and returns their fold: the partition's least and greatest value,
// boxed as its window's (nil, nil for none). Both are taken in row
// order with < and >, as row.Compare orders; a NaN, which row.Compare
// finds equal to everything, makes its window's bounds and the fold
// NaN, so that no range prunes it.
func bounds[T int64 | float64 | string](cb *colBuilder, at func(i int) T, box func(T) any, wins [][]ColumnStats, c int) (lo, hi any) {
	var tlo, thi T
	nulls, floats := cb.nulls, cb.typ == row.TFloat
	for w := range wins {
		from, to := w*BatchSize, min((w+1)*BatchSize, cb.n)
		s := &wins[w][c]
		s.NullCount = nulls.count(from, to)
		var wlo, whi T
		wseen := false
		for i := from; i < to; i++ {
			if nulls.Has(i) {
				continue
			}
			v := at(i)
			if floats && v != v { // NaN
				wlo, whi, wseen = v, v, true
				break
			}
			if !wseen || v < wlo {
				wlo = v
			}
			if !wseen || v > whi {
				whi = v
			}
			wseen = true
		}
		if !wseen {
			continue
		}
		s.Min, s.Max = box(wlo), box(whi)
		if lo == nil || wlo < tlo || wlo != wlo {
			tlo, lo = wlo, s.Min
		}
		if hi == nil || whi > thi || whi != whi {
			thi, hi = whi, s.Max
		}
	}
	return lo, hi
}

func box[T any](v T) any { return v }

func (cb *colBuilder) sealInt(nulls nullable, avgRunOK bool, stats *ColumnStats) Column {
	n, kind, t := cb.n, intKind{cb.typ}, &cb.intCodes
	stats.Distinct = t.distinct()
	if avgRunOK {
		vals, ends := rleEncode(cb.ints)
		return &rleInt64{nullable: nulls, intKind: kind, vals: vals, ends: ends, n: n}
	}
	if d := len(t.vals); !t.full && d > 0 && n >= 4*d {
		// The dictionary is sorted; recode the first-seen codes to it.
		dict := slices.Clone(t.vals)
		slices.Sort(dict)
		rank := make([]uint8, d)
		for i, v := range dict {
			rank[t.index[v]] = uint8(i)
		}
		for i, c := range t.codes {
			t.codes[i] = rank[c]
		}
		width := widthFor(uint64(d - 1))
		stats.Distinct = boxAll(dict)
		return &dictInt64{nullable: nulls, intKind: kind, dict: dict, boxed: stats.Distinct, words: pack(t.codes, 0, width), width: width, n: n}
	}
	// bit packing when the value range is narrow
	if stats.Min != nil {
		mn := stats.Min.(int64)
		if rng := uint64(stats.Max.(int64)) - uint64(mn); rng < 1<<32 {
			width := widthFor(rng)
			if int(width)*n < 64*n/2 { // only if it actually halves the footprint
				return &packedInt64{nullable: nulls, intKind: kind, words: pack(cb.ints, mn, width), base: mn, width: width, n: n}
			}
		}
	}
	return &rawInt64{nullable: nulls, intKind: kind, v: cb.ints}
}

// sealString dictionary-encodes a column with few distinct values
// relative to its rows, the dictionary in first-seen order and built
// from the non-NULL cells only (a NULL row takes code 0, not an entry
// of its own: the dictionary never outgrows the column's distinct
// values, which keeps every code inside a byte).
func (cb *colBuilder) sealString(nulls nullable, stats *ColumnStats, wins [][]ColumnStats, c int) Column {
	if t := &cb.strCodes; !t.full {
		stats.Distinct = t.distinct()
		if d := len(t.vals); d > 0 && cb.n >= 2*d {
			stats.Min, stats.Max = dictBounds(t, cb.nulls, stats.Distinct, wins, c)
			width := widthFor(uint64(d - 1))
			return &dictString{nullable: nulls, dict: t.vals, boxed: stats.Distinct, words: pack(t.codes, 0, width), width: width, n: cb.n}
		}
		cb.spell()
	}
	col := &rawString{nullable: nulls, offsets: cb.offsets, data: string(cb.data)}
	// A window's bounds share the column's bytes; the partition's
	// outlive them in memory: copy them out.
	if lo, hi := bounds(cb, col.at, box, wins, c); lo != nil {
		stats.Min, stats.Max = strings.Clone(lo.(string)), strings.Clone(hi.(string))
	}
	return col
}

// dictBounds is bounds over a string dictionary's codes, by the
// entries' order, boxed as the dictionary's entries are. A window stops
// reading once it has met the least and the greatest entry, which for
// an enum column is within its first rows. Every entry is some row's.
func dictBounds(t *codeTable[string], nulls Bitmap, boxed []any, wins [][]ColumnStats, c int) (any, any) {
	var rank, byValue [maxDistinctTracked]uint8
	for r, v := range slices.Sorted(maps.Keys(t.index)) {
		byValue[r], rank[t.index[v]] = t.index[v], uint8(r)
	}
	top := len(t.vals) - 1
	for w := range wins {
		from, to := w*BatchSize, min((w+1)*BatchSize, len(t.codes))
		s := &wins[w][c]
		s.NullCount = nulls.count(from, to)
		lo, hi := top, -1
		for i := from; i < to && (lo > 0 || hi < top); i++ {
			if !nulls.Has(i) {
				r := int(rank[t.codes[i]])
				lo, hi = min(lo, r), max(hi, r)
			}
		}
		if hi >= 0 {
			s.Min, s.Max = boxed[byValue[lo]], boxed[byValue[hi]]
		}
	}
	return boxed[byValue[0]], boxed[byValue[top]]
}

func boxAll[T any](vals []T) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func rleEncode[T int64 | float64](v []T) ([]T, []uint32) {
	var vals []T
	var ends []uint32
	for i := 0; i < len(v); i++ {
		if last := len(vals) - 1; last < 0 || vals[last] != v[i] || v[i] == 0 && !sameBits(vals[last], v[i]) {
			vals = append(vals, v[i])
			ends = append(ends, uint32(i+1))
		} else {
			ends[len(ends)-1] = uint32(i + 1)
		}
	}
	return vals, ends
}

// sameBits reports whether a and b are one value bit for bit: a run
// of zeros breaks where a -0 follows a 0, or the other way round, so
// each reads back with its own sign.
func sameBits[T int64 | float64](a, b T) bool {
	if x, ok := any(a).(float64); ok {
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	}
	return a == b
}
