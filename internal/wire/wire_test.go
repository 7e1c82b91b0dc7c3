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

	"shark/internal/columnar"
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
		// One window per column form: ints (and an all-NULL column, which
		// travels as ints), floats, bools (boxed), strings (repeated
		// ones too: boxed rows hold no dictionary), and a column whose
		// cells disagree on type.
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
// a decoded frame carries a body of vectors, a frame to send carries
// rows, and both box to the same rows.
func canon(m Msg) Msg {
	r, ok := m.(Rows)
	if !ok {
		return m
	}
	if r.Body != nil {
		r.Rows = r.Body.Rows()
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
		"empty":              {},
		"unknown type":       {0xEE, 0x01},
		"hello no id":        {TypeHello},
		"attach truncated":   AppendMessage(nil, 1, Attach{Name: "x"})[:4],
		"huge string length": append([]byte{TypeError, 0x01, 0x01}, binary.AppendUvarint(nil, 1<<40)...),
		"huge column count":  append([]byte{TypeRows, 0x01, 0x00}, binary.AppendUvarint(nil, 1<<40)...),
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

// cell is row r's column c: NULL past the end of a short row.
func cell(r row.Row, c int) any {
	if c < len(r) {
		return r[c]
	}
	return nil
}

// roundTripRows encodes a window, parses it, and checks every cell
// came back exactly; it returns the decoded window's vectors.
func roundTripRows(t *testing.T, rows []row.Row, done bool) []columnar.Vec {
	t.Helper()
	id, m, err := ParseMessage(AppendMessage(nil, 77, Rows{Rows: rows, Done: done}))
	if err != nil {
		t.Fatalf("%d rows: %v", len(rows), err)
	}
	got, ok := m.(Rows)
	if !ok || id != 77 || got.Done != done || got.Rows != nil || got.N != len(rows) {
		t.Fatalf("decoded id=%d %#v", id, m)
	}
	width := 0
	for _, r := range rows {
		width = max(width, len(r))
	}
	if len(rows) == 0 {
		if got.Body != nil {
			t.Fatalf("an empty window decoded to %d windows", len(got.Body.Windows))
		}
		return nil
	}
	if len(got.Body.Windows) != 1 || len(got.Body.Windows[0].Vecs) != width {
		t.Fatalf("decoded %d windows of %d columns, want one of %d", len(got.Body.Windows), len(got.Body.Windows[0].Vecs), width)
	}
	vecs := got.Body.Windows[0].Vecs
	for i, r := range rows {
		for c := 0; c < width; c++ {
			if back := vecs[c].At(int32(i)); !sameCell(back, cell(r, c)) {
				t.Fatalf("row %d col %d (kind %d): got %#v, want %#v", i, c, vecs[c].Kind, back, cell(r, c))
			}
		}
	}
	return vecs
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
		func(rng *rand.Rand) any { return strs[rng.Intn(len(strs))] },                    // few distinct
		func(rng *rand.Rand) any { return strconv.FormatInt(rng.Int63(), 36) },           // all distinct
		func(rng *rand.Rand) any { return []any{int64(7), 7.0, "7", true}[rng.Intn(4)] }, // cells disagree: boxed
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
			roundTripRows(t, rows, trial%2 == 0)
		}
	}
}

// TestRowsColumnKinds: the vector each column of boxed rows travels
// as, on its boundaries. Ints, floats and strings are typed from their
// first non-NULL cell, and NULLs before it read as that kind; an
// all-NULL column travels as ints; bools, and cells that disagree on
// type wherever the disagreement starts, travel boxed; ragged rows pad
// with NULLs. A string column of boxed rows is raw strings however
// few its distinct values: only a body's dictionary vector travels as
// a dictionary (TestBodyFramesMatchRows).
func TestRowsColumnKinds(t *testing.T) {
	const I, F, S, A = columnar.VecInt, columnar.VecFloat, columnar.VecStr, columnar.VecAny
	for name, tc := range map[string]struct {
		rows []row.Row
		want []columnar.VecKind
	}{
		"int then float":     {[]row.Row{{int64(1)}, {1.0}, {nil}, {int64(math.MinInt64)}}, []columnar.VecKind{A}},
		"float then int":     {[]row.Row{{math.NaN()}, {int64(1)}}, []columnar.VecKind{A}},
		"string then int":    {[]row.Row{{"a"}, {"a"}, {"a"}, {int64(1)}}, []columnar.VecKind{A}},
		"NULLs then strings": {[]row.Row{{nil}, {nil}, {"a"}, {"b"}}, []columnar.VecKind{S}},
		"NULLs then floats":  {[]row.Row{{nil}, {2.5}}, []columnar.VecKind{F}},
		"NULL then bool":     {[]row.Row{{nil}, {true}, {false}}, []columnar.VecKind{A}},
		"bool then nil":      {[]row.Row{{true}, {nil}}, []columnar.VecKind{A}},
		"bool then int":      {[]row.Row{{true}, {int64(3)}}, []columnar.VecKind{A}},
		"all NULL":           {[]row.Row{{nil}, {nil}, {nil}}, []columnar.VecKind{I}},
		"repeated strings":   {[]row.Row{{"us"}, {"us"}, {"us"}, {"ca"}}, []columnar.VecKind{S}},
		"ragged":             {[]row.Row{{int64(1)}, {int64(2), "x", 2.5}, {}}, []columnar.VecKind{I, S, F}},
	} {
		vecs := roundTripRows(t, tc.rows, true)
		for c, want := range tc.want {
			if got := vecs[c]; got.Kind != want || got.Dict != nil {
				t.Errorf("%s: column %d kind %d (dictionary %v), want %d", name, c, got.Kind, got.Dict != nil, want)
			}
		}
	}
}

// TestRowsEncodeAllocatesNothing: transposing a window into a buffer
// with capacity allocates nothing: the scratch vector is reused, and
// the blob writer writes straight into the buffer.
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
// seed corpus: the frame's counts, and column blobs the reader must
// refuse, either because they do not fit or because the writer would
// not have written them so.
func hostileRowsFrames() map[string][]byte {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	u32s := func(vs ...uint32) (out []byte) {
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		return out
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	frame := func(parts ...[]byte) []byte { return cat(append([][]byte{{TypeRows, 0x01, 0x00}}, parts...)...) } // type, id, Done
	// window is a one-column, one-window frame of n rows holding blob.
	window := func(n uint64, blob ...[]byte) []byte {
		b := cat(blob...)
		return frame(uv(1), uv(1), uv(n), u32s(uint32(len(b))), b)
	}
	const rawInt, rleInt, rawFloat, rawString, dict, values = 1, 2, 5, 7, 8, 10
	valid := AppendMessage(nil, 1, Rows{Rows: []row.Row{{int64(1), "a"}, {int64(2), "b"}}})
	return map[string][]byte{
		// A window of no columns costs a byte: only the cap bounds its rows.
		"2^40 rows of no columns":            frame(uv(0), uv(1), uv(1<<40)),
		"one row over the cap":               frame(uv(0), uv(1), uv(MaxFrameRows+1)),
		"the cap passed over two windows":    frame(uv(0), uv(2), uv(MaxFrameRows), uv(1)),
		"a window of no rows":                frame(uv(0), uv(1), uv(0)),
		"windows above remaining bytes":      frame(uv(0), uv(1000), uv(1), uv(1)),
		"2^40 windows":                       frame(uv(1), uv(1<<40)),
		"2^40 columns":                       frame(uv(1<<40), uv(1)),
		"columns without windows":            frame(uv(3), uv(0)),
		"blob length past the payload":       frame(uv(1), uv(1), uv(1), u32s(100), []byte{rawInt, 0}),
		"blob length cut short":              frame(uv(1), uv(1), uv(1), []byte{9, 0}),
		"second column missing":              frame(uv(2), uv(1), uv(1), u32s(10), []byte{rawInt, 0}, word(7)),
		"unknown tag":                        window(1, []byte{0, 0}, word(1)),
		"a partition-only tag":               window(1, []byte{rleInt, 0}, u32s(1), word(1), u32s(1)),
		"ints shorter than rows":             window(2, []byte{rawInt, 0}, word(1)),
		"floats shorter than rows":           window(2, []byte{rawFloat, 0}, make([]byte, 15)),
		"bytes left in the blob":             window(1, []byte{rawInt, 0}, word(1), []byte{0}),
		"null bitmap shorter than rows":      window(100, []byte{rawInt, 1}, word(1)),
		"null bitmap flag 2":                 window(1, []byte{rawInt, 2}, word(1), word(1)),
		"null bitmap of no NULL":             window(1, []byte{rawInt, 1}, word(0), word(1)),
		"null bit past the rows":             window(1, []byte{rawInt, 1}, word(3), word(1)),
		"string offsets past the bytes":      window(2, []byte{rawString, 0}, u32s(0, 5, 5), []byte("abc")),
		"string offsets falling":             window(2, []byte{rawString, 0}, u32s(0, 3, 2), []byte("abc")),
		"string offsets not from 0":          window(1, []byte{rawString, 0}, u32s(1, 3), []byte("abc")),
		"string offset 2^32-1":               window(1, []byte{rawString, 0}, u32s(0, 1<<32-1), []byte("abc")),
		"dictionary of no entries":           window(1, []byte{dict, 0}, u32s(0, 0), []byte{1}, word(0)),
		"dictionary of 257 entries":          window(1, []byte{dict, 0}, u32s(257), make([]byte, 4*258), []byte{9}, word(0)),
		"dictionary code out of range":       window(2, []byte{dict, 0}, u32s(1, 0, 1), []byte("a"), []byte{1}, word(0b10)),
		"dictionary entry no row uses":       window(2, []byte{dict, 0}, u32s(2, 0, 1, 2), []byte("ab"), []byte{1}, word(0)),
		"dictionary out of order of use":     window(2, []byte{dict, 0}, u32s(2, 0, 1, 2), []byte("ab"), []byte{1}, word(0b01)),
		"dictionary codes wider than needed": window(1, []byte{dict, 0}, u32s(1, 0, 1), []byte("a"), []byte{2}, word(0)),
		"dictionary code of a NULL not 0":    window(3, []byte{dict, 1}, word(0b001), u32s(2, 0, 1, 2), []byte("ab"), []byte{1}, word(0b101)),
		"boxed cells fewer than rows":        window(3, []byte{values, 0}, row.EncodeBinary(nil, row.Row{true})),
		"boxed cell with a bad tag":          window(1, []byte{values, 0}, []byte{2, 1, 0x63}),
		"boxed NULL without its bit":         window(1, []byte{values, 0}, row.EncodeBinary(nil, row.Row{nil})),
		"boxed cells not as written":         window(1, []byte{values, 0}, []byte{0x82, 0x00, 1, 4}),
		"trailing bytes":                     append(bytes.Clone(valid), 0xFF),
		"truncated":                          valid[:len(valid)-1],
	}
}
