package wire

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"sync"

	"shark/internal/columnar"
	"shark/internal/row"
)

// Rows carries one window of a result, column-major (the package
// comment gives the body byte for byte). Done marks the cursor
// exhausted (and discarded server-side). A sender fills Body, and the
// frame is the body's rows [Lo, Lo+N), encoded from its typed vectors
// as they are; or Rows, which the encoder transposes into vectors a
// column at a time, so both take the one typed path. ParseMessage
// leaves both nil and fills Cols — the window as typed column slices,
// decoded once, which the driver indexes without ever building a row.
type Rows struct {
	Body  *columnar.Body
	Lo, N int
	Rows  []row.Row
	Done  bool
	Cols  Columns
}

// MaxFrameRows bounds the rows of one Rows frame. A column of NULLs
// costs a bit a row and a frame of no columns costs nothing a row, so
// the payload length alone does not bound the count a frame may claim.
const MaxFrameRows = 1 << 16

// Column kinds of a Rows frame, in the order the encoder tries them:
// each carries everything the one before it can.
const (
	KindInt    byte = 1
	KindFloat  byte = 2
	KindBool   byte = 3
	KindDict   byte = 4
	KindString byte = 5
	KindAny    byte = 6
)

// Columns is a decoded Rows window.
type Columns struct {
	n    int
	cols []Column
}

// Len is the number of rows in the window.
func (cs Columns) Len() int { return cs.n }

// Width is the number of columns.
func (cs Columns) Width() int { return len(cs.cols) }

// Col returns column c.
func (cs Columns) Col(c int) *Column { return &cs.cols[c] }

// Row boxes row i — for callers that want rows; the driver does not.
func (cs Columns) Row(i int) row.Row {
	r := make(row.Row, len(cs.cols))
	for c := range cs.cols {
		r[c] = cs.cols[c].Value(i)
	}
	return r
}

// Column is one decoded column. Nothing in it aliases the frame it was
// decoded from.
type Column struct {
	Kind  byte
	nulls string   // bitmap: bit i%8 of byte i/8 set = row i is NULL
	nums  []uint64 // KindInt: values; KindFloat: IEEE bits; KindString: where cell i ends in text
	text  string   // KindString: the cells back to back; KindBool, KindDict: one byte or code per row
	vals  []any    // KindDict: the entries, boxed once per frame; KindAny: one value per row
}

// Null reports whether row i is NULL.
func (c *Column) Null(i int) bool { return c.nulls[i>>3]&(1<<(i&7)) != 0 }

// Int is row i of a KindInt column, unboxed.
func (c *Column) Int(i int) int64 { return int64(c.nums[i]) }

// Value boxes row i: nil, int64, float64, bool or string.
func (c *Column) Value(i int) any {
	if c.Null(i) {
		return nil
	}
	switch c.Kind {
	case KindInt:
		return int64(c.nums[i])
	case KindFloat:
		return math.Float64frombits(c.nums[i])
	case KindBool:
		return c.text[i] != 0
	case KindString:
		lo := uint64(0)
		if i > 0 {
			lo = c.nums[i-1]
		}
		return c.text[lo:c.nums[i]]
	case KindDict:
		return c.vals[c.text[i]]
	}
	return c.vals[i]
}

// --- encode ---

// seg is rows [lo, hi) of one vector: a frame's column is a run of
// them, one per body window the frame spans.
type seg struct {
	v      *columnar.Vec
	lo, hi int
}

// encoder is one frame's scratch, on the encoder's stack: a dictionary
// table (5 KB a string column resets) and room for a column's segments.
type encoder struct {
	dict dictTable
	segs [4]seg
}

func (m Rows) appendBody(buf []byte) []byte {
	rows, n, width := m.Rows, m.N, 0
	ws, lo := []columnar.Window(nil), m.Lo
	if m.Body != nil {
		for ws = m.Body.Windows; len(ws) > 0 && lo >= ws[0].N; ws = ws[1:] {
			lo -= ws[0].N
		}
		if n > 0 {
			width = len(ws[0].Vecs)
		}
	} else {
		if rows == nil {
			// A decoded window re-encodes from its columns (tests and
			// fuzzing do; nothing on the serving path re-sends a frame).
			rows = make([]row.Row, m.Cols.Len())
			for i := range rows {
				rows[i] = m.Cols.Row(i)
			}
		}
		for _, r := range rows {
			width = max(width, len(r))
		}
		n = len(rows)
	}
	buf = appendUvarint(appendUvarint(appendBool(buf, m.Done), uint64(n)), uint64(width))
	var e encoder
	var t *scratch
	defer func() {
		if t == &shared.scratch {
			t.release()
		}
	}()
	for c := range width {
		segs, typed := e.segs[:0], ws != nil
		for i, left, from := 0, n, lo; typed && left > 0; i, from = i+1, 0 {
			to := min(ws[i].N, from+left)
			segs = append(segs, seg{&ws[i].Vecs[c], from, to})
			left -= to - from
			typed = segs[0].v.Kind != columnar.VecAny && segs[0].v.Kind == segs[len(segs)-1].v.Kind
		}
		if !typed {
			// Rows, and a body's bools or cells that disagree, are
			// transposed into a vector first.
			if t == nil { // the shared scratch, unless another encoder holds it
				if t = &shared.scratch; !shared.TryLock() {
					t = new(scratch)
				}
			}
			t.anys = t.anys[:0]
			for _, r := range rows {
				var x any
				if c < len(r) {
					x = r[c]
				}
				t.anys = append(t.anys, x)
			}
			for i, left, from := 0, n, lo; ws != nil && left > 0; i, from = i+1, 0 {
				to := min(ws[i].N, from+left)
				for j := from; j < to; j++ {
					t.anys = append(t.anys, ws[i].Vecs[c].At(int32(j)))
				}
				left -= to - from
			}
			segs = append(segs[:0], seg{t.narrow(), 0, n})
		}
		buf = e.column(buf, segs, n)
	}
	return buf
}

// kinds lists, by vector kind, the column kinds the encoder tries in
// order: a string column is a dictionary when the frame's distinct
// values fit one (at most 255, and fewer than half as many as rows), a
// boxed column bools when every cell is one.
var kinds = [...][]byte{
	columnar.VecAny:   {KindBool, KindAny},
	columnar.VecInt:   {KindInt},
	columnar.VecFloat: {KindFloat},
	columnar.VecStr:   {KindDict, KindString},
}

// column encodes one column of n rows, held by segs of one kind, as
// the first of its kinds that carries every cell.
func (e *encoder) column(buf []byte, segs []seg, n int) []byte {
	start := len(buf)
	for _, kind := range kinds[segs[0].v.Kind] {
		buf = append(buf[:start], kind)
		nulls := len(buf)
		for range (n + 7) / 8 {
			buf = append(buf, 0)
		}
		if kind == KindDict {
			e.dict = dictTable{limit: min(255, (n-1)/2)}
		}
		var ok bool
		if buf, ok = e.cells(buf, nulls, segs, kind); ok {
			return buf
		}
	}
	panic("wire: no column kind carries the cells") // the last kind of each carries any
}

// cells appends one payload entry of kind per row — a NULL's zero,
// its bit set at buf[nulls:] — then what follows them: a dictionary's
// entries, a string column's bytes. It stops with false at a cell the
// kind cannot carry: a non-bool cell, a string the dictionary has no
// room for, or a dictionary left empty (an all-NULL column).
func (e *encoder) cells(buf []byte, nulls int, segs []seg, kind byte) ([]byte, bool) {
	j := 0
	for _, s := range segs {
		v := s.v
		var codes [256]uint16 // a dictionary vector's code + 1 in the frame's dictionary
		for i := s.lo; i < s.hi; i, j = i+1, j+1 {
			if v.Null(int32(i)) {
				buf[nulls+j/8] |= 1 << (j % 8)
				if kind == KindFloat {
					buf = append(buf, 0, 0, 0, 0, 0, 0, 0)
				}
				buf = append(buf, 0) // argNull too
				continue
			}
			switch kind {
			case KindInt:
				buf = binary.AppendVarint(buf, v.Ints[i])
			case KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[i]))
			case KindString:
				buf = appendUvarint(buf, uint64(len(v.Str(int32(i)))))
			case KindDict:
				if v.Dict != nil && codes[v.Codes[i]] > 0 {
					buf = append(buf, byte(codes[v.Codes[i]]-1))
					break
				}
				code, ok := e.dict.code(v.Str(int32(i)))
				if !ok {
					return buf, false
				}
				if v.Dict != nil {
					codes[v.Codes[i]] = uint16(code) + 1
				}
				buf = append(buf, code)
			case KindBool:
				b, ok := v.Anys[i].(bool)
				if !ok {
					return buf, false
				}
				buf = appendBool(buf, b)
			default:
				buf = appendValue(buf, v.Anys[i])
			}
		}
	}
	switch kind {
	case KindDict:
		if e.dict.n == 0 {
			return buf, false
		}
		buf = appendUvarint(buf, uint64(e.dict.n))
		for _, s := range e.dict.entries[:e.dict.n] {
			buf = appendString(buf, s)
		}
	case KindString:
		for _, s := range segs {
			for i := s.lo; i < s.hi; i++ {
				if !s.v.Null(int32(i)) {
					buf = append(buf, s.v.Str(int32(i))...)
				}
			}
		}
	}
	return buf, true
}

// scratch transposes one column of boxed cells into a vector.
type scratch struct {
	anys []any
	vec  columnar.Vec
}

// shared is the scratch an encoder reuses when no other holds it, so
// that encoding rows into a buffer with room allocates nothing once
// warm. (A sync.Pool drops items at random under the race detector.)
var shared struct {
	sync.Mutex
	scratch
}

// release drops the shared scratch's references to cells and gives it
// back.
func (t *scratch) release() {
	clear(t.anys)
	clear(t.vec.Strs)
	t.vec.Anys = nil
	shared.Unlock()
}

// narrow returns the cells as a vector: VecInt, VecFloat or VecStr when
// every non-NULL cell is an int64, a float64 or a string (an all-NULL
// column reads as ints), VecAny over the cells themselves otherwise.
// Only here does the encoder look at a cell's type.
func (t *scratch) narrow() *columnar.Vec {
	v := &t.vec
	v.Kind, v.Mask, v.Nulls = columnar.VecInt, -1, v.Nulls[:0]
	for range (len(t.anys) + 63) / 64 {
		v.Nulls = append(v.Nulls, 0)
	}
	ok, x := true, any(nil)
	for _, x = range t.anys {
		if x != nil { // the first non-NULL cell picks the kind to try
			break
		}
	}
	switch x.(type) {
	case nil, int64:
		v.Ints, ok = fill(v.Ints, t.anys, v.Nulls)
	case float64:
		v.Kind = columnar.VecFloat
		v.Floats, ok = fill(v.Floats, t.anys, v.Nulls)
	case string:
		v.Kind = columnar.VecStr
		v.Strs, ok = fill(v.Strs, t.anys, v.Nulls)
	default:
		ok = false
	}
	if !ok {
		v.Kind, v.Anys = columnar.VecAny, t.anys
	}
	return v
}

// fill unboxes cells into dst, marking the NULLs; false at the first
// cell that is neither NULL nor a T.
func fill[T any](dst []T, cells []any, nulls columnar.Bitmap) ([]T, bool) {
	dst = dst[:0]
	for i, x := range cells {
		v, ok := x.(T)
		if !ok {
			if x != nil {
				return dst, false
			}
			nulls.Set(i)
		}
		dst = append(dst, v)
	}
	return dst, true
}

// dictTable assigns byte codes to the distinct strings of one column
// window: open addressing over fixed arrays, so it lives on the
// encoder's stack and a frame's dictionaries allocate nothing.
type dictTable struct {
	n, limit int
	entries  [255]string
	slots    [512]uint16 // entry index + 1; 0 = empty
}

var dictSeed = maphash.MakeSeed()

// code returns s's code, assigning the next one to a new string; false
// once that would exceed limit.
func (t *dictTable) code(s string) (byte, bool) {
	for i := maphash.String(dictSeed, s) % uint64(len(t.slots)); ; i = (i + 1) % uint64(len(t.slots)) {
		e := t.slots[i]
		if e == 0 {
			if t.n == t.limit {
				return 0, false
			}
			t.entries[t.n] = s
			t.n++
			t.slots[i] = uint16(t.n)
			return byte(t.n - 1), true
		}
		if t.entries[e-1] == s {
			return byte(e - 1), true
		}
	}
}

// --- decode ---

// columns decodes a Rows window into typed columns. Every count is
// bounded before it sizes an allocation: rows by MaxFrameRows, columns
// by the remaining payload (a column of a non-empty window costs at
// least three bytes: kind, null bitmap, payload), and each column's
// entries by the bytes they must still occupy.
func (d *decoder) columns() Columns {
	n := d.uvarint()
	nc := d.uvarint()
	if d.err != nil {
		return Columns{}
	}
	if n > MaxFrameRows || nc > uint64(len(d.b))/3 || (n == 0 && nc > 0) {
		d.err = fmt.Errorf("wire: rows frame claims %d rows by %d columns in %d bytes", n, nc, len(d.b))
		return Columns{}
	}
	cs := Columns{n: int(n)}
	if nc > 0 {
		cs.cols = make([]Column, nc)
	}
	for i := range cs.cols {
		d.column(&cs.cols[i], n)
		if d.err != nil {
			return Columns{}
		}
	}
	return cs
}

// column decodes one column of n ≥ 1 rows.
func (d *decoder) column(c *Column, n uint64) {
	c.Kind = d.byte()
	c.nulls = d.text((n + 7) / 8)
	switch c.Kind {
	case KindInt:
		c.nums = d.nums(n, 1)
		for i := range c.nums {
			c.nums[i] = uint64(unzigzag(d.uvarint()))
		}
	case KindFloat:
		c.nums = d.nums(n, 8)
		for i := range c.nums {
			c.nums[i] = binary.LittleEndian.Uint64(d.b[8*i:])
		}
		d.b = d.b[8*len(c.nums):]
	case KindString:
		c.nums = d.nums(n, 1)
		var end uint64
		for i := range c.nums {
			// Each length is bounded by the payload on its own, so the
			// running end cannot wrap.
			if l := d.uvarint(); l <= uint64(len(d.b)) {
				end += l
			} else {
				d.fail()
			}
			c.nums[i] = end
		}
		c.text = d.text(end)
	case KindBool:
		c.text = d.text(n)
	case KindDict:
		c.text = d.text(n)
		nd := d.uvarint()
		if nd > 255 || nd > n || nd > uint64(len(d.b)) {
			d.fail()
			return
		}
		c.vals = make([]any, nd)
		for i := range c.vals {
			c.vals[i] = d.str()
		}
		for i := 0; i < len(c.text) && d.err == nil; i++ {
			if uint64(c.text[i]) >= nd {
				d.err = fmt.Errorf("wire: dictionary code %d of %d entries", c.text[i], nd)
			}
		}
	case KindAny:
		c.vals = d.values(n)
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown column kind %d", c.Kind)
		}
	}
}

// nums sizes a column's n fixed slots, each of which still has at least
// width bytes to come.
func (d *decoder) nums(n, width uint64) []uint64 {
	if d.err != nil || n > uint64(len(d.b))/width {
		d.fail()
		return nil
	}
	return make([]uint64, n)
}
