package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// checkParse is the property every payload must satisfy: ParseMessage
// never panics; refusing or accepting, it allocates no more than a
// small multiple of the payload (the worst case is a window one row
// tall, where a three-byte column decodes into a Column struct); and
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
// re-encode canonically. The corpus holds every message type, one Rows
// window per column kind, and the hostile column-major shapes.
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
