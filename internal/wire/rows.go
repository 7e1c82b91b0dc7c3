package wire

import (
	"encoding/binary"
	"fmt"
	"sync"

	"shark/internal/columnar"
	"shark/internal/row"
)

// Rows carries one window of a result, column-major (the package
// comment gives the body byte for byte). Done marks the cursor
// exhausted (and discarded server-side). A sender fills Body, and the
// frame is the body's rows [Lo, Lo+N), its typed vectors written as
// they are, a column blob per body window; or Rows, which the encoder
// turns into vectors a column at a time. ParseMessage fills Body with
// the windows the frame carried, N with their rows, and leaves Rows
// nil: the driver reads the vectors where they are.
type Rows struct {
	Body  *columnar.Body
	Lo, N int
	Rows  []row.Row
	Done  bool
}

// MaxFrameRows bounds the rows of one Rows frame. A window of no
// columns costs nothing a row, so the payload length alone does not
// bound the count a frame may claim.
const MaxFrameRows = 1 << 16

// minColumn is the fewest bytes a column costs in a window: the blob's
// length, then its tag, its NULL-bitmap byte and a one-row binary row.
const minColumn = 4 + 5

func (m Rows) appendBody(buf []byte) []byte {
	buf = appendBool(buf, m.Done)
	if m.Body == nil {
		return appendRows(buf, m.Rows)
	}
	ws, lo := m.Body.Windows, m.Lo
	for len(ws) > 0 && lo >= ws[0].N {
		lo -= ws[0].N
		ws = ws[1:]
	}
	// The windows the range covers: rows [from, from+k) of each, from
	// lo in the first and from 0 in the rest.
	count, width := 0, 0
	for i, left, from := 0, m.N, lo; left > 0; i, from = i+1, 0 {
		if k := min(ws[i].N-from, left); k > 0 {
			count, width, left = count+1, len(ws[i].Vecs), left-k
		}
	}
	buf = appendUvarint(appendUvarint(buf, uint64(width)), uint64(count))
	for i, left, from := 0, m.N, lo; left > 0; i, from = i+1, 0 {
		if k := min(ws[i].N-from, left); k > 0 {
			buf = appendUvarint(buf, uint64(k))
			for c := range ws[i].Vecs {
				buf = appendBlob(buf, &ws[i].Vecs[c], from, k)
			}
			left -= k
		}
	}
	return buf
}

// appendRows writes boxed rows as one window, a column at a time
// through a scratch vector; a row shorter than the widest is padded
// with NULLs.
func appendRows(buf []byte, rows []row.Row) []byte {
	if len(rows) == 0 {
		return append(buf, 0, 0) // no columns, no windows
	}
	width := 0
	for _, r := range rows {
		width = max(width, len(r))
	}
	buf = appendUvarint(append(appendUvarint(buf, uint64(width)), 1), uint64(len(rows)))
	if width == 0 {
		return buf
	}
	t := &shared.scratch // unless another encoder holds it
	if shared.TryLock() {
		defer t.release()
	} else {
		t = new(scratch)
	}
	for c := range width {
		buf = appendBlob(buf, t.column(rows, c), 0, len(rows))
	}
	return buf
}

// appendBlob writes rows [lo, lo+n) of v as a column blob behind its
// u32 length.
func appendBlob(buf []byte, v *columnar.Vec, lo, n int) []byte {
	at := len(buf)
	buf = columnar.AppendVec(append(buf, 0, 0, 0, 0), v, lo, n)
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf
}

// scratch is the vector the encoder transposes a column of rows into.
type scratch struct{ vec columnar.Vec }

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
	clear(t.vec.Strs)
	clear(t.vec.Anys)
	shared.Unlock()
}

// column transposes column c of rows into the scratch vector in one
// pass: VecInt, VecFloat or VecStr when every non-NULL cell is an
// int64, a float64 or a string (an all-NULL column reads as ints),
// the cells as they are otherwise. Only here does the encoder look at
// a cell's type.
func (t *scratch) column(rows []row.Row, c int) *columnar.Vec {
	v := &t.vec
	v.Ints, v.Floats, v.Strs, v.Anys, v.Nulls = v.Ints[:0], v.Floats[:0], v.Strs[:0], v.Anys[:0], v.Nulls[:0]
	v.Kind, v.Mask = columnar.VecInt, -1
	typed, nulls := false, false // whether a cell has picked the kind; whether one is NULL
	for i, r := range rows {
		var x any
		if c < len(r) {
			x = r[c]
		}
		if i&63 == 0 {
			v.Nulls = append(v.Nulls, 0)
		}
		v.Anys = append(v.Anys, x)
		kind := columnar.VecAny
		switch x := x.(type) {
		case nil: // a zero of every kind
			v.Nulls.Set(i)
			v.Ints, v.Floats, v.Strs, nulls = append(v.Ints, 0), append(v.Floats, 0), append(v.Strs, ""), true
			continue
		case int64:
			kind, v.Ints = columnar.VecInt, append(v.Ints, x)
		case float64:
			kind, v.Floats = columnar.VecFloat, append(v.Floats, x)
		case string:
			kind, v.Strs = columnar.VecStr, append(v.Strs, x)
		}
		if !typed {
			v.Kind, typed = kind, true
		} else if kind != v.Kind {
			v.Kind = columnar.VecAny // cells that disagree
		}
	}
	if !nulls {
		v.Nulls = v.Nulls[:0]
	}
	return v
}

// body decodes a Rows frame's windows, each column through the column
// blob reader. Every count is bounded before it sizes an allocation:
// windows and columns by the payload left, and a frame's rows, which a
// window of no columns does not pay for, by MaxFrameRows.
func (d *decoder) body() *columnar.Body {
	c, w := d.uvarint(), d.uvarint()
	if d.err != nil || c == 0 && w == 0 {
		return nil
	}
	if w == 0 || w > uint64(len(d.b)) || c > uint64(len(d.b))/(w*minColumn) {
		d.err = fmt.Errorf("wire: rows frame claims %d windows of %d columns in %d bytes", w, c, len(d.b))
		return nil
	}
	body := &columnar.Body{Windows: make([]columnar.Window, w)}
	vecs := make([]columnar.Vec, c*w)
	for i := range body.Windows {
		n := d.uvarint()
		if d.err == nil && (n == 0 || n > uint64(MaxFrameRows-body.Len)) {
			d.err = fmt.Errorf("wire: rows frame window of %d rows after %d", n, body.Len)
		}
		if d.err != nil {
			return nil
		}
		win := &body.Windows[i]
		win.N, win.Vecs = int(n), vecs[uint64(i)*c:uint64(i+1)*c]
		body.Len += win.N
		for j := range win.Vecs {
			if len(d.b) < 4 || uint64(binary.LittleEndian.Uint32(d.b)) > uint64(len(d.b)-4) {
				d.fail()
				return nil
			}
			blob := d.b[4 : 4+int(binary.LittleEndian.Uint32(d.b))]
			d.b = d.b[4+len(blob):]
			if win.Vecs[j], d.err = columnar.ReadVec(blob, win.N); d.err != nil {
				return nil
			}
		}
	}
	return body
}
