package wire

import (
	"fmt"
	"math"
)

// Native prepared statements: Prepare parses a statement once into a
// server-side handle; ExecPrepared binds typed argument values into
// the parsed tree and executes. The statement text never gets
// literals interpolated into it, so argument bytes can never be
// confused with SQL syntax and types survive the wire exactly —
// []byte and DATE included.

// Date is a DATE argument: days since the Unix epoch. It exists as a
// distinct wire type so a date survives a round trip as a date rather
// than decaying to a bare integer.
type Date int64

// Prepare asks the server to parse SQL into a statement handle.
type Prepare struct {
	SQL string
}

// PrepareOK answers Prepare: the handle to execute against and the
// number of `?` parameters the statement takes.
type PrepareOK struct {
	Handle    uint64
	NumParams uint64
}

// ExecPrepared executes a prepared statement with typed args. Two
// modes: Handle != 0 names a handle from a prior Prepare (SQL must be
// empty); Handle == 0 carries the statement text inline — a one-shot
// prepare-bind-execute in a single round trip, used by driver
// Query/Exec calls that never went through Prepare.
//
// Arg values: nil, int64, float64, string, bool, []byte, Date.
type ExecPrepared struct {
	Handle uint64
	SQL    string
	Args   []any
}

// ClosePrepared discards a statement handle.
type ClosePrepared struct {
	Handle uint64
}

func (Prepare) wireType() byte       { return TypePrepare }
func (PrepareOK) wireType() byte     { return TypePrepareOK }
func (ExecPrepared) wireType() byte  { return TypeExecPrepared }
func (ClosePrepared) wireType() byte { return TypeClosePrepared }

func (m Prepare) appendBody(buf []byte) []byte { return appendString(buf, m.SQL) }

func (m PrepareOK) appendBody(buf []byte) []byte {
	buf = appendUvarint(buf, m.Handle)
	return appendUvarint(buf, m.NumParams)
}

func (m ExecPrepared) appendBody(buf []byte) []byte {
	buf = appendUvarint(buf, m.Handle)
	buf = appendString(buf, m.SQL)
	return appendArgs(buf, m.Args)
}

func (m ClosePrepared) appendBody(buf []byte) []byte { return appendUvarint(buf, m.Handle) }

// Typed-argument encoding. Tags 0–5 mirror the binary row codec's
// value model; 6 and 7 extend it with the types the row codec cannot
// carry.
const (
	argNull  byte = 0
	argInt   byte = 1
	argFloat byte = 2
	argStr   byte = 3
	argTrue  byte = 4
	argFalse byte = 5
	argBytes byte = 6
	argDate  byte = 7
)

func zigzag(v int64) uint64          { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64        { return int64(u>>1) ^ -int64(u&1) }
func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }

// appendArgs encodes a typed argument list: uvarint count, then one
// tagged value per argument.
func appendArgs(buf []byte, args []any) []byte {
	buf = appendUvarint(buf, uint64(len(args)))
	for _, a := range args {
		buf = appendValue(buf, a)
	}
	return buf
}

// appendValue encodes one tagged argument. An unsupported Go type
// encodes as an explicit poison tag that fails decode — callers are
// expected to have validated types, and a silent coercion here would
// defeat the whole point of the typed path.
func appendValue(buf []byte, a any) []byte {
	switch v := a.(type) {
	case nil:
		return append(buf, argNull)
	case int64:
		return appendUvarint(append(buf, argInt), zigzag(v))
	case float64:
		return appendUvarint(append(buf, argFloat), floatBits(v))
	case string:
		return appendString(append(buf, argStr), v)
	case bool:
		if v {
			return append(buf, argTrue)
		}
		return append(buf, argFalse)
	case []byte:
		buf = appendUvarint(append(buf, argBytes), uint64(len(v)))
		return append(buf, v...)
	case Date:
		return appendUvarint(append(buf, argDate), zigzag(int64(v)))
	}
	return append(buf, 0xFF)
}

// args decodes a typed argument list, bounding the count by the
// remaining bytes (each argument costs at least its tag byte) before
// allocating.
func (d *decoder) args() []any {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	out := make([]any, n)
	for i := range out {
		switch tag := d.byte(); tag {
		case argNull:
			out[i] = nil
		case argInt:
			out[i] = unzigzag(d.uvarint())
		case argFloat:
			out[i] = floatFromBits(d.uvarint())
		case argStr:
			out[i] = d.str()
		case argTrue:
			out[i] = true
		case argFalse:
			out[i] = false
		case argBytes:
			out[i] = []byte(d.str()) // non-nil even when empty
		case argDate:
			out[i] = Date(unzigzag(d.uvarint()))
		default:
			if d.err == nil {
				d.err = fmt.Errorf("wire: unknown value tag %d", tag)
			}
		}
		if d.err != nil {
			return nil
		}
	}
	return out
}
