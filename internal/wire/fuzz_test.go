package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"shark/internal/columnar"
	"shark/internal/row"
)

// checkParse is the property every payload must satisfy: ParseMessage
// never panics; refusing or accepting, it allocates no more than a
// small multiple of the payload (the worst case is a window one row
// tall, where a nine-byte column decodes into a vector's header); and
// whatever it accepts re-encodes to a payload that parses to the same
// message — compared as bytes, so NaN cells and arguments count as
// equal to themselves.
func checkParse(t *testing.T, payload []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id, m, err := ParseMessage(payload)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 48*uint64(len(payload))+8<<10 {
		t.Fatalf("parsing %d bytes allocated %d", len(payload), grew)
	}
	if err != nil {
		return
	}
	re := AppendMessage(nil, id, m)
	id2, m2, err := ParseMessage(re)
	if err != nil {
		t.Fatalf("re-encoded payload failed to parse: %v", err)
	}
	if id2 != id || !bytes.Equal(AppendMessage(nil, id2, m2), re) {
		t.Fatalf("round-trip changed message: %#v -> %#v", m, m2)
	}
}

// FuzzParseMessage: no payload may panic the decoder, make it allocate
// beyond its size, or slip through as a message that does not
// re-encode canonically. The corpus holds every message type, Rows
// frames of boxed rows of every column form, the hostile frame shapes
// and column blobs, and frames encoded from a result body's typed
// vectors: through Rows frames it reaches columnar's column-blob
// reader.
func FuzzParseMessage(f *testing.F) {
	for i, m := range sampleMessages() {
		f.Add(AppendMessage(nil, uint64(i), m))
	}
	for _, payload := range hostileRowsFrames() {
		f.Add(payload)
	}
	// Hand-picked hostile shapes: truncations, huge counts, bad tags.
	f.Add([]byte{})
	f.Add([]byte{TypeExecPrepared})
	f.Add([]byte{5, 0x01}) // the retired Exec type byte
	f.Add([]byte{TypeRows, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{TypeResultSet, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	for _, payload := range bodyFrames(f) {
		f.Add(payload)
	}
	f.Fuzz(checkParse)
}

// FuzzReadFrame: arbitrary byte streams (including pathological
// length prefixes) never panic the frame reader, whatever it accepts
// parses without panicking, and a Reader — buffered, its payload
// buffer reused from frame to frame — sees exactly the messages
// ReadFrame does: were a decoded message to alias that buffer, a later
// frame would rewrite an earlier message.
func FuzzReadFrame(f *testing.F) {
	for i, m := range sampleMessages() {
		f.Add(AppendFrame(nil, AppendMessage(nil, uint64(i), m)))
	}
	var stream []byte
	for _, payload := range hostileRowsFrames() {
		f.Add(AppendFrame(nil, payload))
		stream = AppendFrame(stream, payload)
	}
	f.Add(stream)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, stream []byte) {
		type parsed struct {
			id  uint64
			m   Msg
			err bool
		}
		var fresh, reused []parsed
		r := bytes.NewReader(stream)
		for {
			payload, err := ReadFrame(r)
			if err != nil {
				break
			}
			id, m, err := ParseMessage(payload)
			fresh = append(fresh, parsed{id, m, err != nil})
		}
		rd := NewReader(bytes.NewReader(stream))
		for range fresh {
			id, m, err := rd.ReadMessage()
			reused = append(reused, parsed{id, m, err != nil})
		}
		if _, m, err := rd.ReadMessage(); err == nil {
			t.Fatalf("Reader framed %#v past where ReadFrame stopped", m)
		}
		for i, want := range fresh {
			got := reused[i]
			if got.err != want.err || got.id != want.id {
				t.Fatalf("frame %d: Reader saw id=%d err=%v, ReadFrame id=%d err=%v", i, got.id, got.err, want.id, want.err)
			}
			if !want.err && !bytes.Equal(AppendMessage(nil, 0, got.m), AppendMessage(nil, 0, want.m)) {
				t.Fatalf("frame %d: Reader decoded %#v, ReadFrame %#v", i, got.m, want.m)
			}
		}
	})
}

// FuzzPreparedMessages: the prepared-statement codec (typed argument
// lists with []byte and Date values) never panics on malformed input
// and, like every other message, re-encodes canonically.
func FuzzPreparedMessages(f *testing.F) {
	seeds := []Msg{
		Prepare{SQL: "SELECT a FROM t WHERE b = ?"},
		PrepareOK{Handle: 1, NumParams: 1},
		ExecPrepared{Handle: 1, Args: []any{
			int64(-1), 0.5, "s", true, false, nil, []byte("'--\\"), Date(-7),
		}},
		ExecPrepared{SQL: "SELECT ?", Args: []any{[]byte{}}},
		Prepare{SQL: "SELECT a FROM t ORDER BY a LIMIT ?"},
		ExecPrepared{SQL: "SELECT a FROM t LIMIT ?", Args: []any{int64(3)}},
		ExecPrepared{SQL: "SELECT a FROM t LIMIT ?", Args: []any{"1; DROP TABLE t"}},
		ExecPrepared{Handle: 2, Args: []any{int64(-1)}},
		ClosePrepared{Handle: 1},
	}
	for i, m := range seeds {
		f.Add(AppendMessage(nil, uint64(i), m))
	}
	// Hostile shapes: huge arg count, truncated bytes arg, bad tag.
	f.Add([]byte{TypeExecPrepared, 0x01, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{TypeExecPrepared, 0x01, 0x00, 0x00, 0x01, 0x06, 0xFF, 0x7F})
	f.Add([]byte{TypeExecPrepared, 0x01, 0x00, 0x00, 0x01, 0x63})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 {
			return
		}
		switch payload[0] {
		case TypePrepare, TypePrepareOK, TypeExecPrepared, TypeClosePrepared:
		default:
			// Steer mutations at the prepared-statement types; other
			// payloads are FuzzParseMessage's job.
			payload = append([]byte{TypeExecPrepared}, payload...)
		}
		checkParse(t, payload)
	})
}

// testBody is a result body of three windows, each a partition's rows
// kept as a final task keeps them, and one column of boxed cells that
// disagree on type: every vector form a body holds. A dictionary and a
// raw string column (the dictionaries differ between the windows), a
// float, a bool, a DATE, an all-NULL column and the boxed one, with
// NULLs; the windows are 70, 90 and 130 rows, so frames start and end
// off the bitmaps' 64-row words.
func testBody(tb testing.TB) *columnar.Body {
	schema := row.Schema{
		{Name: "dict", Type: row.TString}, {Name: "raw", Type: row.TString}, {Name: "f", Type: row.TFloat},
		{Name: "b", Type: row.TBool}, {Name: "d", Type: row.TDate}, {Name: "none", Type: row.TInt},
	}
	body := &columnar.Body{}
	for part, n := range []int{70, 90, 130} {
		bld := columnar.NewBuilder(schema)
		for i := range n {
			r := row.Row{fmt.Sprintf("k%d-%d", part, i%3), fmt.Sprintf("raw-%d-%d", part, i), float64(i) / 4, i%3 == 0, int64(20000 + i), nil}
			if i%7 == 0 {
				r[0], r[1], r[2], r[3], r[4] = nil, nil, nil, nil, nil
			}
			if err := bld.Append(r); err != nil {
				tb.Fatal(err)
			}
		}
		b := columnar.NewBatch(bld.Seal())
		b.Next()
		w := columnar.Window{N: len(b.Sel), Vecs: make([]columnar.Vec, b.Width(), b.Width()+1)}
		for c := range w.Vecs {
			w.Vecs[c] = b.Keep(c, b.Sel)
		}
		mixed := columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: make([]any, n)}
		for i := range mixed.Anys {
			mixed.Anys[i] = []any{int64(i), "s", nil, 0.5, false}[(i+part)%5]
		}
		w.Vecs = append(w.Vecs, mixed)
		body.Add(w)
	}
	return body
}

// bodyFrames encodes testBody as Rows frames: one of the whole body,
// one inside the first window, and one across the window boundary.
func bodyFrames(tb testing.TB) [][]byte {
	body := testBody(tb)
	var out [][]byte
	for i, r := range [][2]int{{0, body.Len}, {5, 20}, {60, 30}} {
		out = append(out, AppendMessage(nil, uint64(i), Rows{Body: body, Lo: r[0], N: r[1]}))
	}
	return out
}

// TestBodyFramesMatchRows: a frame encoded from a body's typed vectors
// decodes, window by window, to the body's rows, boxed, in order:
// dictionary codes renumbered per window, strings, floats, bools,
// DATEs as ints, boxed cells and NULLs, whichever window a row comes
// from and wherever in a bitmap word the frame starts.
func TestBodyFramesMatchRows(t *testing.T) {
	body := testBody(t)
	want := body.Rows()
	for _, r := range [][2]int{{0, body.Len}, {5, 20}, {60, 30}, {69, 1}, {70, 1}, {0, 0}, {65, 100}, {131, 159}, {1, body.Len - 1}} {
		_, m, err := ParseMessage(AppendMessage(nil, 1, Rows{Body: body, Lo: r[0], N: r[1]}))
		if err != nil {
			t.Fatalf("rows [%d, +%d): %v", r[0], r[1], err)
		}
		got := m.(Rows)
		if got.N != r[1] || got.Body == nil && r[1] > 0 {
			t.Fatalf("rows [%d, +%d): decoded %d", r[0], r[1], got.N)
		}
		if r[1] == 0 {
			continue
		}
		if rows := got.Body.Rows(); !reflect.DeepEqual(rows, want[r[0]:r[0]+r[1]]) {
			t.Fatalf("rows [%d, +%d): decoded %v, body has %v", r[0], r[1], rows, want[r[0]:r[0]+r[1]])
		}
		if r[1] < 20 { // a short range may hold only the dictionary's NULLs
			continue
		}
		for _, w := range got.Body.Windows {
			for c, kind := range []columnar.VecKind{columnar.VecStr, columnar.VecStr, columnar.VecFloat, columnar.VecAny, columnar.VecInt, columnar.VecInt, columnar.VecAny} {
				if v := &w.Vecs[c]; v.Kind != kind || (v.Dict != nil) != (c == 0) {
					t.Errorf("rows [%d, +%d): column %d kind %d (dictionary %v), want %d", r[0], r[1], c, v.Kind, v.Dict != nil, kind)
				}
			}
		}
	}
}

// TestEncodeConcurrently: encoders on several goroutines share one
// transposition scratch when it is free and make their own when it is
// not; every frame still decodes to its own rows.
func TestEncodeConcurrently(t *testing.T) {
	body := testBody(t)
	want := body.Rows()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				rows := []row.Row{{int64(g), true, "x"}, {int64(i), nil, fmt.Sprint(g, i)}}
				var m Msg = Rows{Rows: rows}
				if i%2 == 1 {
					m = Rows{Body: body, Lo: i, N: 40}
					rows = want[i : i+40]
				}
				_, got, err := ParseMessage(AppendMessage(nil, 1, m))
				if err != nil {
					t.Error(err)
					return
				}
				if back := got.(Rows).Body.Rows(); !reflect.DeepEqual(back, rows) {
					t.Errorf("goroutine %d frame %d: decoded %v, want %v", g, i, back, rows)
					return
				}
			}
		}()
	}
	wg.Wait()
}
