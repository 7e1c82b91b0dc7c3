package columnar

import (
	"unsafe"

	"shark/internal/row"
)

// Body is a statement's result column-major, as its final stage left
// it: windows of vectors (Mask -1, a slot per row). Nothing writes to
// a body once it is built, so the server's cursor, the result cache and
// the wire encoder share one; Rows boxes it for callers that want rows.
type Body struct {
	Windows []Window
	Len     int // rows over all windows
}

// Window is N rows of a Body: one vector per column.
type Window struct {
	N    int
	Vecs []Vec
}

// Add appends a window.
func (b *Body) Add(w Window) {
	b.Windows = append(b.Windows, w)
	b.Len += w.N
}

// Append appends o's windows.
func (b *Body) Append(o *Body) {
	b.Windows = append(b.Windows, o.Windows...)
	b.Len += o.Len
}

// Rows boxes the body, window by window through Batch.Rows: where a
// result becomes rows, for callers that asked for rows.
func (b *Body) Rows() []row.Row {
	rows := make([]row.Row, 0, b.Len)
	vb, cols := &Batch{}, []int(nil) // one batch, re-pointed at each window
	for i := range b.Windows {
		vb.reset(b.Windows[i].N, b.Windows[i].Vecs)
		for len(cols) < vb.Width() {
			cols = append(cols, len(cols))
		}
		for vb.Next() {
			rows = vb.appendRows(rows, cols, vb.Sel)
		}
	}
	return rows
}

// Limit cuts the body to its first n rows.
func (b *Body) Limit(n int) {
	if n >= b.Len {
		return
	}
	b.Len = n
	for i := range b.Windows {
		w := &b.Windows[i]
		if n > w.N {
			n -= w.N
			continue
		}
		for c := range w.Vecs {
			v := &w.Vecs[c]
			v.Ints, v.Floats, v.Strs = head(v.Ints, n), head(v.Floats, n), head(v.Strs, n)
			v.Anys, v.Codes, v.Nulls = head(v.Anys, n), head(v.Codes, n), v.Nulls.window(0, n)
		}
		w.N, b.Windows = n, b.Windows[:i+1]
		return
	}
}

func head[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	return s[:n]
}

// Bytes is the memory the body holds: its vectors' slots, the bytes of
// their strings and the headers. A dictionary vector's entries are its
// partition's and not counted.
func (b *Body) Bytes() int64 {
	n := int64(unsafe.Sizeof(*b))
	for _, w := range b.Windows {
		n += int64(unsafe.Sizeof(w)) + int64(len(w.Vecs))*int64(unsafe.Sizeof(Vec{}))
		for i := range w.Vecs {
			v := &w.Vecs[i]
			n += 8*int64(len(v.Ints)+len(v.Floats)+len(v.Nulls)) + 16*int64(len(v.Strs)+len(v.Anys)) + int64(len(v.Codes))
			for _, s := range v.Strs {
				n += int64(len(s))
			}
			for _, x := range v.Anys {
				if s, ok := x.(string); ok {
					n += 16 + int64(len(s))
				}
			}
		}
	}
	return n
}
