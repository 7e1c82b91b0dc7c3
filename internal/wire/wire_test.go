package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
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
		if !reflect.DeepEqual(got, m) {
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
		if err := WriteMessage(&buf, uint64(i), m); err != nil {
			t.Fatal(err)
		}
	}
	r := iotest.OneByteReader(&buf)
	for i, m := range want {
		id, got, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != uint64(i) || !reflect.DeepEqual(got, m) {
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

	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized write: got %v, want ErrFrameTooLarge", err)
	}
}

type failReader struct{ t *testing.T }

func (f failReader) Read([]byte) (int, error) {
	f.t.Error("ReadFrame read past the rejected length prefix")
	return 0, io.EOF
}

// TestMalformedPayloads: corrupted payloads error out instead of
// panicking or over-allocating — huge claimed counts inside a small
// frame must be caught by the remaining-bytes bound.
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
	for name, payload := range cases {
		if _, _, err := ParseMessage(payload); err == nil {
			t.Errorf("%s: ParseMessage accepted malformed payload", name)
		}
	}
}
