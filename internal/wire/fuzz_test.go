package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseMessage: no payload may panic the decoder or slip through
// with a message that does not re-encode to an equivalent payload
// meaning. Valid messages must round-trip exactly.
func FuzzParseMessage(f *testing.F) {
	for i, m := range sampleMessages() {
		f.Add(AppendMessage(nil, uint64(i), m))
	}
	// Hand-picked hostile shapes: truncations, huge counts, bad tags.
	f.Add([]byte{})
	f.Add([]byte{TypeExecPrepared})
	f.Add([]byte{5, 0x01}) // the retired Exec type byte
	f.Add([]byte{TypeRows, 0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{TypeResultSet, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, m, err := ParseMessage(payload)
		if err != nil {
			return
		}
		// What decoded must encode back and decode to the same value
		// (the canonical-form invariant the client and server rely on).
		re := AppendMessage(nil, id, m)
		id2, m2, err := ParseMessage(re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to parse: %v", err)
		}
		if id2 != id || !reflect.DeepEqual(m2, m) {
			t.Fatalf("round-trip changed message: %#v -> %#v", m, m2)
		}
	})
}

// FuzzReadFrame: arbitrary byte streams (including pathological
// length prefixes) never panic the frame reader, and whatever it
// accepts parses without panicking.
func FuzzReadFrame(f *testing.F) {
	for i, m := range sampleMessages() {
		f.Add(AppendFrame(nil, AppendMessage(nil, uint64(i), m)))
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			ParseMessage(payload)
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
		id, m, err := ParseMessage(payload)
		if err != nil {
			return
		}
		re := AppendMessage(nil, id, m)
		id2, m2, err := ParseMessage(re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to parse: %v", err)
		}
		if id2 != id || !reflect.DeepEqual(m2, m) {
			t.Fatalf("round-trip changed message: %#v -> %#v", m, m2)
		}
	})
}
