package wire

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"

	"shark/internal/row"
)

// Rows carries one window of a result, column-major (the package
// comment gives the body byte for byte). Done marks the cursor
// exhausted (and discarded server-side). A sender fills Rows;
// ParseMessage leaves Rows nil and fills Cols — the window as typed
// column slices, decoded once, which the driver indexes without ever
// building a row.
type Rows struct {
	Rows []row.Row
	Done bool
	Cols Columns
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

func (m Rows) appendBody(buf []byte) []byte {
	rows := m.Rows
	if rows == nil {
		// A decoded window re-encodes from its columns (tests and
		// fuzzing do; nothing on the serving path re-sends a frame).
		rows = make([]row.Row, m.Cols.Len())
		for i := range rows {
			rows[i] = m.Cols.Row(i)
		}
	}
	width := 0
	for _, r := range rows {
		width = max(width, len(r))
	}
	buf = appendBool(buf, m.Done)
	buf = appendUvarint(buf, uint64(len(rows)))
	buf = appendUvarint(buf, uint64(width))
	var dict dictTable // one for the frame: 5 KB of stack a string column resets
	for c := 0; c < width; c++ {
		buf = appendColumn(buf, rows, c, &dict)
	}
	return buf
}

func cell(r row.Row, c int) any {
	if c < len(r) {
		return r[c]
	}
	return nil
}

// appendColumn transposes column c of rows into buf as the first kind
// that can carry every cell: each attempt stops at the first cell it
// cannot (a string when the dictionary is full — more than 255 distinct
// values, or not fewer than half as many as rows — or a cell of another
// type), rewinds, and the next kind tries. KindAny carries anything; an
// all-NULL column travels as ints.
func appendColumn(buf []byte, rows []row.Row, c int, dict *dictTable) []byte {
	for start, kind := len(buf), KindInt; ; kind++ {
		var zeros [64]byte
		if kind == KindDict {
			*dict = dictTable{limit: min(255, (len(rows)-1)/2)}
		}
		buf = append(buf[:start], kind)
		nulls := len(buf)
		for n := (len(rows) + 7) / 8; n > 0; n -= min(n, len(zeros)) {
			buf = append(buf, zeros[:min(n, len(zeros))]...)
		}
		var ok bool
		if buf, ok = appendCells(buf, nulls, rows, c, kind, dict); !ok {
			continue
		}
		switch kind {
		case KindDict:
			buf = appendUvarint(buf, uint64(dict.n))
			for _, s := range dict.entries[:dict.n] {
				buf = appendString(buf, s)
			}
		case KindString:
			for _, r := range rows {
				if s, ok := cell(r, c).(string); ok {
					buf = append(buf, s...)
				}
			}
		}
		return buf
	}
}

// appendCells appends one payload entry of the given kind per row,
// setting the null bit (at buf[nulls:]) and a zero entry for a NULL. It
// stops with false at a cell the kind cannot carry, or a string the
// dictionary has no room for.
func appendCells(buf []byte, nulls int, rows []row.Row, c int, kind byte, dict *dictTable) ([]byte, bool) {
	for i, r := range rows {
		v := cell(r, c)
		switch v := v.(type) {
		case nil:
			buf[nulls+i/8] |= 1 << (i % 8)
			if kind == KindFloat {
				buf = append(buf, 0, 0, 0, 0, 0, 0, 0)
			}
			buf = append(buf, 0) // argNull too
			continue
		case int64:
			if kind == KindInt {
				buf = binary.AppendVarint(buf, v)
				continue
			}
		case float64:
			if kind == KindFloat {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
				continue
			}
		case bool:
			if kind == KindBool {
				buf = appendBool(buf, v)
				continue
			}
		case string:
			if kind == KindString {
				buf = appendUvarint(buf, uint64(len(v)))
				continue
			}
			if kind == KindDict {
				if code, ok := dict.code(v); ok {
					buf = append(buf, code)
					continue
				}
			}
		}
		if kind != KindAny {
			return buf, false
		}
		buf = appendValue(buf, v)
	}
	return buf, true
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
