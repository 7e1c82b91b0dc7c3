package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"shark/internal/row"
)

// sampleMessages covers every message type with representative
// payloads; the codec tests and the fuzz seed corpus share it.
func sampleMessages() []Msg {
	return []Msg{
		Hello{Version: Version, Token: "secret"},
		HelloOK{Version: Version},
		Attach{Name: "dash", Priority: 4, MaxConcurrentJobs: 2, StorageLevel: 1, SharedCatalog: true,
			ResultCacheBytes: 1 << 20, DisablePlanCache: true},
		AttachOK{Name: "dash"},
		ResultSet{
			Schema:  row.Schema{{Name: "grp", Type: row.TString}, {Name: "n", Type: row.TInt}},
			Message: "ok",
			NumRows: 42,
		},
		Fetch{Cursor: 9, MaxRows: 512},
		Rows{Rows: []row.Row{{int64(1), "a"}, {int64(2), nil}}, Done: true},
		Rows{Done: true},
		Rows{Rows: []row.Row{{}, {}, {}}}, // rows of no columns
		// One window per column kind: ints (and an all-NULL column, which
		// travels as ints), floats, bools, plain strings, a dictionary
		// (one distinct value in three rows), and a column whose cells
		// disagree on type.
		Rows{Rows: []row.Row{{int64(math.MinInt64), nil}, {nil, nil}, {int64(math.MaxInt64), nil}}},
		Rows{Rows: []row.Row{{1.5}, {nil}, {math.Inf(-1)}}},
		Rows{Rows: []row.Row{{true}, {false}, {nil}, {true}, {true}, {false}, {false}, {true}, {true}}},
		Rows{Rows: []row.Row{{"a"}, {""}, {nil}, {"\x00\xff"}}},
		Rows{Rows: []row.Row{{"us"}, {nil}, {"us"}, {"us"}, {"ca"}}},
		Rows{Rows: []row.Row{{int64(1)}, {2.5}, {nil}, {"s"}, {true}}},
		Cancel{Target: 9},
		CloseStmt{Cursor: 9},
		Ping{},
		Pong{},
		Close{},
		Error{Code: CodeSQL, Msg: "unknown table"},
		Prepare{SQL: "SELECT * FROM t WHERE a = ? AND b = ?"},
		PrepareOK{Handle: 3, NumParams: 2},
		ExecPrepared{Handle: 3, Args: []any{
			int64(-42), 1.5, "it's", true, false, nil,
			[]byte{0x00, '\'', '\\', '-', '-', 0xFF},
			Date(20310),
		}},
		ExecPrepared{SQL: "SELECT 1", Args: nil},
		ClosePrepared{Handle: 3},
	}
}

// canon puts a Rows message in the form both ends can be compared in:
// a decoded window carries typed columns, a window to send carries
// rows, and both box to the same rows.
func canon(m Msg) Msg {
	r, ok := m.(Rows)
	if !ok {
		return m
	}
	if r.Rows == nil {
		for i := 0; i < r.Cols.Len(); i++ {
			r.Rows = append(r.Rows, r.Cols.Row(i))
		}
	}
	if len(r.Rows) == 0 {
		r.Rows = nil
	}
	return Rows{Rows: r.Rows, Done: r.Done}
}

// TestMessageRoundTrip: encode → decode is the identity for every
// message type, on plain byte slices with no connection anywhere.
func TestMessageRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		id := uint64(i + 100)
		payload := AppendMessage(nil, id, m)
		gotID, got, err := ParseMessage(payload)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if gotID != id {
			t.Errorf("%T: id %d, want %d", m, gotID, id)
		}
		if !reflect.DeepEqual(canon(got), canon(m)) {
			t.Errorf("%T: round-trip %#v, want %#v", m, got, m)
		}
	}
}

// TestFrameRoundTripPartialReads: frames survive a reader that
// delivers one byte at a time (short TCP reads).
func TestFrameRoundTripPartialReads(t *testing.T) {
	var buf bytes.Buffer
	want := sampleMessages()
	for i, m := range want {
		if err := NewWriter(&buf).WriteMessage(uint64(i), m); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(iotest.OneByteReader(&buf))
	for i, m := range want {
		id, got, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != uint64(i) || !reflect.DeepEqual(canon(got), canon(m)) {
			t.Errorf("frame %d: got id=%d %#v", i, id, got)
		}
	}
}

// TestTruncatedFramesError: every prefix of a valid frame stream
// fails with an error instead of hanging or panicking.
func TestTruncatedFramesError(t *testing.T) {
	full := AppendFrame(nil, AppendMessage(nil, 5, ExecPrepared{SQL: "SELECT 1 FROM t", Args: []any{int64(1)}}))
	for n := 0; n < len(full); n++ {
		_, err := ReadFrame(bytes.NewReader(full[:n]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes must error", n, len(full))
		}
	}
}

// TestOversizedFrameRejectedWithoutAllocating: a hostile length
// prefix is refused before the body allocation — the reader must not
// even attempt to read the body.
func TestOversizedFrameRejectedWithoutAllocating(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrame+1))
	// A reader that fails the test if the body is ever requested.
	r := io.MultiReader(bytes.NewReader(hdr[:]), failReader{t})
	_, err := ReadFrame(r)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ReadFrame(bytes.NewReader(hdr[:]))
	})
	if allocs > 2 { // the io.Reader interface costs, not the 4 GiB body
		t.Errorf("oversized frame rejection allocated %.0f times per run", allocs)
	}

	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("zero-length frame: got %v, want ErrEmptyFrame", err)
	}
}

type failReader struct{ t *testing.T }

func (f failReader) Read([]byte) (int, error) {
	f.t.Error("ReadFrame read past the rejected length prefix")
	return 0, io.EOF
}

// TestMalformedPayloads: corrupted payloads — the hostile column-major
// Rows bodies included — error out instead of panicking or
// over-allocating: huge claimed counts inside a small frame must be
// caught by the remaining-bytes bound (or, for rows, the cap).
func TestMalformedPayloads(t *testing.T) {
	cases := map[string][]byte{
		"empty":                {},
		"unknown type":         {0xEE, 0x01},
		"hello no id":          {TypeHello},
		"attach truncated":     AppendMessage(nil, 1, Attach{Name: "x"})[:4],
		"huge string length":   append([]byte{TypeError, 0x01, 0x01}, binary.AppendUvarint(nil, 1<<40)...),
		"huge row batch count": append([]byte{TypeRows, 0x01, 0x00}, binary.AppendUvarint(nil, 1<<40)...),
		"huge schema field count": append([]byte{TypeResultSet, 0x01},
			binary.AppendUvarint(nil, 1<<40)...),
		"trailing garbage": append(AppendMessage(nil, 1, Ping{}), 0xFF),
	}
	maps.Copy(cases, hostileRowsFrames())
	for name, payload := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ParseMessage(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: ParseMessage accepted malformed payload", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing a %d-byte payload allocated %d bytes", name, len(payload), grew)
		}
	}
}

// sameCell compares two cells exactly: floats by bits, so NaN equals
// itself and -0.0 differs from 0.0.
func sameCell(a, b any) bool {
	fa, okA := a.(float64)
	fb, okB := b.(float64)
	if okA || okB {
		return okA && okB && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// roundTripRows encodes a window, parses it, and checks every cell
// came back exactly; it returns the decoded columns.
func roundTripRows(t *testing.T, rows []row.Row, done bool) Columns {
	t.Helper()
	id, m, err := ParseMessage(AppendMessage(nil, 77, Rows{Rows: rows, Done: done}))
	if err != nil {
		t.Fatalf("%d rows: %v", len(rows), err)
	}
	got, ok := m.(Rows)
	if !ok || id != 77 || got.Done != done || got.Rows != nil {
		t.Fatalf("decoded id=%d %#v", id, m)
	}
	width := 0
	for _, r := range rows {
		width = max(width, len(r))
	}
	if got.Cols.Len() != len(rows) || got.Cols.Width() != width {
		t.Fatalf("decoded %d×%d, want %d×%d", got.Cols.Len(), got.Cols.Width(), len(rows), width)
	}
	for i, r := range rows {
		back := got.Cols.Row(i)
		for c := 0; c < width; c++ {
			if !sameCell(back[c], cell(r, c)) {
				t.Fatalf("row %d col %d (kind %d): got %#v, want %#v", i, c, got.Cols.Col(c).Kind, back[c], cell(r, c))
			}
		}
	}
	return got.Cols
}

// TestRowsRoundTripProperty: seeded random windows on the codec's
// boundaries — row counts around the bitmap byte and the server's
// batch size, 0–30 columns of every kind, NULLs absent / sparse /
// everywhere, the extreme ints, the floats that only compare by bits,
// empty strings and strings of every byte value — round-trip exactly,
// and so does Done on an empty window.
func TestRowsRoundTripProperty(t *testing.T) {
	allBytes := make([]byte, 256)
	for i := range allBytes {
		allBytes[i] = byte(i)
	}
	ints := []int64{0, 1, -1, 63, 64, -64, -65, math.MinInt64, math.MaxInt64, 20310}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"", "a", string(allBytes), "US", "a longer string with spaces", "\x00", "é"}
	gens := []func(rng *rand.Rand) any{
		func(rng *rand.Rand) any { return ints[rng.Intn(len(ints))] },
		func(rng *rand.Rand) any { return rng.Int63() - rng.Int63() },
		func(rng *rand.Rand) any { return floats[rng.Intn(len(floats))] },
		func(rng *rand.Rand) any { return rng.Intn(2) == 0 },
		func(rng *rand.Rand) any { return strs[rng.Intn(len(strs))] },                    // few distinct: a dictionary
		func(rng *rand.Rand) any { return strconv.FormatInt(rng.Int63(), 36) },           // all distinct: plain
		func(rng *rand.Rand) any { return []any{int64(7), 7.0, "7", true}[rng.Intn(4)] }, // cells disagree: tagged
		func(rng *rand.Rand) any { return nil },
	}
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 1, 7, 8, 9, 511, 512} {
		for trial := 0; trial < 12; trial++ {
			width := rng.Intn(31)
			if trial == 0 {
				width = 0
			}
			rows := make([]row.Row, n)
			for i := range rows {
				rows[i] = make(row.Row, width)
			}
			for c := 0; c < width; c++ {
				gen := gens[rng.Intn(len(gens))]
				nullEvery := []int{0, 10, 1}[rng.Intn(3)] // none, sparse, all
				for i := range rows {
					if nullEvery == 0 || rng.Intn(nullEvery) != 0 {
						rows[i][c] = gen(rng)
					}
				}
			}
			cols := roundTripRows(t, rows, trial%2 == 0)
			if n == 0 && cols.Width() != 0 {
				t.Fatalf("empty window decoded %d columns", cols.Width())
			}
		}
	}
}

// TestRowsColumnKinds: the encoder's choices on their boundaries. A
// string column becomes a dictionary at 1, 254 and 255 distinct values
// and stays plain at 256 and 257 (a code is one byte), and only below
// half as many distinct values as rows; ints mixed with floats fall
// back to tagged values; an all-NULL column travels as ints; ragged
// rows pad with NULLs.
func TestRowsColumnKinds(t *testing.T) {
	distinct := func(n, d int, nullEvery int) []row.Row {
		rows := make([]row.Row, n)
		for i := range rows {
			rows[i] = row.Row{"v" + strconv.Itoa(i%d)}
			if nullEvery > 0 && i >= d && i%nullEvery == 0 {
				rows[i][0] = nil
			}
		}
		return rows
	}
	for _, tc := range []struct {
		n, d int
		want byte
	}{
		{511, 1, KindDict}, {511, 254, KindDict}, {511, 255, KindDict}, {511, 256, KindString}, {511, 257, KindString},
		{512, 1, KindDict}, {512, 254, KindDict}, {512, 255, KindDict}, {512, 256, KindString}, {512, 257, KindString},
		{1024, 255, KindDict}, {1024, 256, KindString},
		{9, 4, KindDict}, {9, 5, KindString}, {8, 3, KindDict}, {8, 4, KindString},
		{3, 1, KindDict}, {2, 1, KindString}, {1, 1, KindString},
	} {
		for _, nullEvery := range []int{0, 3} {
			cols := roundTripRows(t, distinct(tc.n, tc.d, nullEvery), false)
			if got := cols.Col(0).Kind; got != tc.want {
				t.Errorf("%d rows, %d distinct, NULL every %d: kind %d, want %d", tc.n, tc.d, nullEvery, got, tc.want)
			}
		}
	}
	for name, tc := range map[string]struct {
		rows []row.Row
		want []byte
	}{
		"int then float":  {[]row.Row{{int64(1)}, {1.0}, {nil}, {int64(math.MinInt64)}}, []byte{KindAny}},
		"float then int":  {[]row.Row{{math.NaN()}, {int64(1)}}, []byte{KindAny}},
		"string then int": {[]row.Row{{"a"}, {"a"}, {"a"}, {int64(1)}}, []byte{KindAny}},
		"bool then nil":   {[]row.Row{{true}, {nil}}, []byte{KindBool}},
		"all NULL":        {[]row.Row{{nil}, {nil}, {nil}}, []byte{KindInt}},
		"ragged":          {[]row.Row{{int64(1)}, {int64(2), "x", 2.5}, {}}, []byte{KindInt, KindDict, KindFloat}},
	} {
		cols := roundTripRows(t, tc.rows, true)
		for c, want := range tc.want {
			if got := cols.Col(c).Kind; got != want {
				t.Errorf("%s: column %d kind %d, want %d", name, c, got, want)
			}
		}
	}
}

// TestRowsEncodeAllocatesNothing: transposing a window into a buffer
// with capacity allocates nothing — dictionaries included, which live
// on the encoder's stack.
func TestRowsEncodeAllocatesNothing(t *testing.T) {
	rows := make([]row.Row, 512)
	for i := range rows {
		rows[i] = row.Row{int64(i) << 20, float64(i), "c" + strconv.Itoa(i%5), strconv.Itoa(i), i%2 == 0, nil}
	}
	var m Msg = Rows{Rows: rows}
	buf := AppendMessage(nil, 1, m)
	if allocs := testing.AllocsPerRun(20, func() { buf = AppendMessage(buf[:0], 1, m) }); allocs != 0 {
		t.Errorf("encoding 512 rows into spare capacity allocated %.0f times", allocs)
	}
}

// TestDecodedMessagesDoNotAliasPayload: the connection read loops
// reuse one payload buffer across frames, which is only legal because
// nothing ParseMessage returns points into the payload. Parse every
// message kind, scribble over the payload, and compare against a parse
// of a pristine copy.
func TestDecodedMessagesDoNotAliasPayload(t *testing.T) {
	for i, m := range sampleMessages() {
		payload := AppendMessage(nil, uint64(i), m)
		_, want, err := ParseMessage(bytes.Clone(payload))
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		_, got, err := ParseMessage(payload)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		for j := range payload {
			payload[j] ^= 0xA5
		}
		if !reflect.DeepEqual(canon(got), canon(want)) || !reflect.DeepEqual(got, want) {
			t.Errorf("%T aliases its payload: after scribbling %#v, want %#v", m, got, want)
		}
	}
}

// countingConn counts Write calls on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerMessage: a frame leaves in one Write — header and
// payload as two Writes on an unbuffered net.Conn are two segments —
// through the Client and through a bare Writer.
func TestOneWritePerMessage(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	cc := &countingConn{Conn: a}
	c := NewClient(cc)
	defer c.Close()
	go func() { // the peer: answer every request with a Pong
		rd, wr := NewReader(b), NewWriter(b)
		for {
			id, _, err := rd.ReadMessage()
			if err != nil || wr.WriteMessage(id, Pong{}) != nil {
				return
			}
		}
	}()
	msgs := sampleMessages()
	for _, m := range msgs {
		if _, err := c.Roundtrip(m); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
	}
	if got := cc.writes.Load(); got != int64(len(msgs)) {
		t.Errorf("client issued %d Writes for %d messages", got, len(msgs))
	}

	var w countingWriter
	wr := NewWriter(&w)
	for i, m := range msgs {
		if err := wr.WriteMessage(uint64(i), m); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes != len(msgs) {
		t.Errorf("%d Writes for %d frames", w.writes, len(msgs))
	}
	// What the Writer framed reads back whole, through a Reader whose
	// payload buffer is reused from frame to frame.
	rd := NewReader(&w.buf)
	for i, m := range msgs {
		id, got, err := rd.ReadMessage()
		if err != nil || id != uint64(i) || !reflect.DeepEqual(canon(got), canon(m)) {
			t.Fatalf("frame %d: id=%d %#v err=%v", i, id, got, err)
		}
	}
	if err := wr.WriteMessage(1, Error{Msg: string(make([]byte, MaxFrame))}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized message: got %v, want ErrFrameTooLarge", err)
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// hostileRowsFrames are malformed Rows payloads, shared with the fuzz
// seed corpus.
func hostileRowsFrames() map[string][]byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	frame := func(parts ...[]byte) []byte {
		out := []byte{TypeRows, 0x01, 0x00} // type, id, Done
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	valid := AppendMessage(nil, 1, Rows{Rows: []row.Row{{int64(1), "a"}, {int64(2), "b"}}})
	return map[string][]byte{
		// A row of no columns costs no bytes: only the cap bounds it.
		"2^40 rows of no columns":         frame(uv(1<<40), uv(0)),
		"one row over the cap":            frame(uv(MaxFrameRows+1), uv(0)),
		"columns above remaining bytes":   frame(uv(1), uv(1000), []byte{KindInt, 0, 0}),
		"2^40 columns":                    frame(uv(1), uv(1<<40)),
		"columns without rows":            frame(uv(0), uv(3), []byte{KindInt, KindInt, KindInt}),
		"null bitmap shorter than rows":   frame(uv(100), uv(1), []byte{KindInt, 0, 0, 0}),
		"ints shorter than rows":          frame(uv(9), uv(1), []byte{KindInt, 0, 0}, []byte{2, 4, 6}),
		"varint running off the end":      frame(uv(1), uv(1), []byte{KindInt, 0}, []byte{0x80, 0x80}),
		"varint overflowing 64 bits":      frame(uv(1), uv(1), []byte{KindInt, 0}, bytes.Repeat([]byte{0xFF}, 11)),
		"floats shorter than rows":        frame(uv(2), uv(1), []byte{KindFloat, 0}, make([]byte, 15)),
		"bools shorter than rows":         frame(uv(9), uv(1), []byte{KindBool, 0, 0}, []byte{0xFF}),
		"string lengths past the blob":    frame(uv(2), uv(1), []byte{KindString, 0}, []byte{5, 5}, []byte("abc")),
		"string length 2^63":              frame(uv(2), uv(1), []byte{KindString, 0}, uv(1<<63), uv(1<<63)),
		"dictionary code out of range":    frame(uv(4), uv(1), []byte{KindDict, 0}, []byte{0, 1, 2, 0}, uv(2), []byte{1, 'a', 1, 'b'}),
		"empty dictionary":                frame(uv(3), uv(1), []byte{KindDict, 0}, []byte{0, 0, 0}, uv(0)),
		"dictionary larger than rows":     frame(uv(1), uv(1), []byte{KindDict, 0}, []byte{0}, uv(2), []byte{0, 0}),
		"dictionary of 256 entries":       frame(uv(300), uv(1), []byte{KindDict}, make([]byte, 38), make([]byte, 300), uv(256), make([]byte, 256)),
		"dictionary entries missing":      frame(uv(3), uv(1), []byte{KindDict, 0}, []byte{0, 0, 0}, uv(2), []byte{1, 'a'}),
		"tagged value with a bad tag":     frame(uv(1), uv(1), []byte{KindAny, 0}, []byte{0x63}),
		"tagged values shorter than rows": frame(uv(3), uv(1), []byte{KindAny, 0}, []byte{argTrue}),
		"unknown column kind":             frame(uv(1), uv(1), []byte{0, 0, 0}),
		"column kind 7":                   frame(uv(1), uv(1), []byte{7, 0, 0}),
		"second column missing":           frame(uv(1), uv(2), []byte{KindInt, 0, 2}, []byte{KindInt}),
		"trailing bytes":                  append(bytes.Clone(valid), 0xFF),
		"truncated":                       valid[:len(valid)-1],
	}
}
