package row

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// The text codec is a Hive-style delimited format: one row per line,
// fields separated by '|'. Separator, backslash and newline characters
// inside strings are backslash-escaped, so round-trips are lossless.
//
// The binary codec is a SequenceFile-like length-prefixed format:
// per field one tag byte followed by a fixed or varint payload. It is
// both smaller and much cheaper to decode than text, which is exactly
// the gap the paper's "Hadoop (text)" vs "Hadoop (binary)" baselines
// measure.

const textSep = '|'

// MaxBinaryRowBytes caps one binary-encoded row when decoding from a
// stream, where no remaining-bytes bound exists. Rows travel inside
// 16MB wire frames and DFS blocks, so 64MB is far above any row the
// engine can produce while still bounding what a corrupt length
// prefix can allocate.
const MaxBinaryRowBytes = 64 << 20

// textNull is Hive's NULL sentinel. It is emitted unescaped, so it is
// distinguishable from a literal "\N" string (which escapes to `\\N`).
const textNull = `\N`

// EncodeText appends the text encoding of r (with trailing newline) to buf.
func EncodeText(buf []byte, r Row) []byte {
	for i, v := range r {
		if i > 0 {
			buf = append(buf, textSep)
		}
		if v == nil {
			buf = append(buf, textNull...)
			continue
		}
		buf = appendEscaped(buf, FormatValue(v))
	}
	return append(buf, '\n')
}

func appendEscaped(buf []byte, s string) []byte {
	if !strings.ContainsAny(s, "|\\\n") {
		return append(buf, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case textSep:
			buf = append(buf, '\\', 'p')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

func unescape(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'p':
				b.WriteByte(textSep)
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// DecodeText parses one text line (no trailing newline) into a row
// using the schema for types.
func DecodeText(line string, schema Schema) (Row, error) {
	out := make(Row, len(schema))
	i := 0
	start := 0
	for pos := 0; pos <= len(line); pos++ {
		atEnd := pos == len(line)
		if !atEnd && line[pos] == '\\' {
			pos++ // skip escaped char
			continue
		}
		if atEnd || line[pos] == textSep {
			if i >= len(schema) {
				return nil, fmt.Errorf("row: too many fields (schema has %d): %q", len(schema), line)
			}
			raw := line[start:pos]
			if raw == textNull {
				out[i] = nil
			} else {
				v, err := ParseValue(unescape(raw), schema[i].Type)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			i++
			start = pos + 1
		}
	}
	if i != len(schema) {
		return nil, fmt.Errorf("row: got %d fields, schema has %d: %q", i, len(schema), line)
	}
	return out, nil
}

// Binary tags.
const (
	tagNull  = 0
	tagInt   = 1
	tagFloat = 2
	tagStr   = 3
	tagTrue  = 4
	tagFalse = 5
)

// EncodeBinary appends the binary encoding of r to buf. The row is
// length-prefixed so a reader can skip rows without decoding fields.
// The body is encoded in place behind one reserved prefix byte and
// shifted only when its length needs a longer prefix (128 bytes and
// up), so appending to a buffer with capacity allocates nothing.
func EncodeBinary(buf []byte, r Row) []byte {
	start := len(buf)
	buf = appendBinaryBody(append(buf, 0), r)
	n := len(buf) - start - 1
	if n < 0x80 {
		buf[start] = byte(n)
		return buf
	}
	var prefix [binary.MaxVarintLen64]byte
	pl := binary.PutUvarint(prefix[:], uint64(n))
	buf = append(buf, prefix[:pl-1]...) // grow by the extra prefix bytes
	copy(buf[start+pl:], buf[start+1:start+1+n])
	copy(buf[start:], prefix[:pl])
	return buf
}

func appendBinaryBody(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = appendBinaryValue(buf, v)
	}
	return buf
}

func appendBinaryValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, tagNull)
	case int64:
		return appendBinaryInt(buf, x)
	case float64:
		return appendBinaryFloat(buf, x)
	case string:
		return appendBinaryString(buf, x)
	case bool:
		if x {
			return append(buf, tagTrue)
		}
		return append(buf, tagFalse)
	}
	panic(fmt.Sprintf("row: cannot encode %T", v))
}

func appendBinaryInt(buf []byte, x int64) []byte {
	return binary.AppendVarint(append(buf, tagInt), x)
}

func appendBinaryFloat(buf []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(append(buf, tagFloat), math.Float64bits(x))
}

func appendBinaryString(buf []byte, x string) []byte {
	buf = binary.AppendUvarint(append(buf, tagStr), uint64(len(x)))
	return append(buf, x...)
}

// BinaryEncoder builds the bytes EncodeBinary(nil, r) would, one field
// at a time from typed values, reusing its buffers: callers that hold
// columns rather than rows (composite group keys) get the identical
// encoding without building or boxing r. The zero value is ready.
type BinaryEncoder struct {
	body, out []byte
}

// Reset starts a row of n fields.
func (e *BinaryEncoder) Reset(n int) {
	e.body = binary.AppendUvarint(e.body[:0], uint64(n))
}

// Null appends a NULL field.
func (e *BinaryEncoder) Null() { e.body = append(e.body, tagNull) }

// Int appends an int64 (or DATE) field.
func (e *BinaryEncoder) Int(x int64) { e.body = appendBinaryInt(e.body, x) }

// Float appends a float64 field.
func (e *BinaryEncoder) Float(x float64) { e.body = appendBinaryFloat(e.body, x) }

// String appends a string field.
func (e *BinaryEncoder) String(x string) { e.body = appendBinaryString(e.body, x) }

// Value appends a field of any type in the value model.
func (e *BinaryEncoder) Value(v any) { e.body = appendBinaryValue(e.body, v) }

// Bytes returns the encoded row; the slice is valid until the next
// Reset.
func (e *BinaryEncoder) Bytes() []byte {
	e.out = binary.AppendUvarint(e.out[:0], uint64(len(e.body)))
	e.out = append(e.out, e.body...)
	return e.out
}

// DecodeBinary decodes one row from buf, returning the row and the
// number of bytes consumed.
func DecodeBinary(buf []byte) (Row, int, error) {
	n, hl := binary.Uvarint(buf)
	if hl <= 0 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	if uint64(len(buf)-hl) < n {
		return nil, 0, io.ErrUnexpectedEOF
	}
	r, err := decodeBinaryBody(buf[hl : hl+int(n)])
	if err != nil {
		return nil, 0, err
	}
	return r, hl + int(n), nil
}

func decodeBinaryBody(b []byte) (Row, error) {
	nf, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	// Bound the field count by the remaining bytes (every field costs
	// at least its tag byte) before allocating: rows now also arrive
	// over the wire protocol, where a hostile length must not reserve
	// memory.
	if nf > uint64(len(b)-off) {
		return nil, io.ErrUnexpectedEOF
	}
	out := make(Row, nf)
	for i := range out {
		if off >= len(b) {
			return nil, io.ErrUnexpectedEOF
		}
		tag := b[off]
		off++
		switch tag {
		case tagNull:
			out[i] = nil
		case tagInt:
			v, n := binary.Varint(b[off:])
			if n <= 0 {
				return nil, io.ErrUnexpectedEOF
			}
			out[i] = v
			off += n
		case tagFloat:
			if off+8 > len(b) {
				return nil, io.ErrUnexpectedEOF
			}
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		case tagStr:
			l, n := binary.Uvarint(b[off:])
			if n <= 0 || off+n+int(l) > len(b) {
				return nil, io.ErrUnexpectedEOF
			}
			out[i] = string(b[off+n : off+n+int(l)])
			off += n + int(l)
		case tagTrue:
			out[i] = true
		case tagFalse:
			out[i] = false
		default:
			return nil, fmt.Errorf("row: bad binary tag %d", tag)
		}
	}
	return out, nil
}

// TextWriter streams rows in text format.
type TextWriter struct {
	w   *bufio.Writer
	buf []byte
	n   int64
}

// NewTextWriter wraps w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write encodes one row.
func (t *TextWriter) Write(r Row) error {
	t.buf = EncodeText(t.buf[:0], r)
	t.n += int64(len(t.buf))
	_, err := t.w.Write(t.buf)
	return err
}

// BytesWritten returns the logical bytes encoded so far (independent
// of downstream buffering).
func (t *TextWriter) BytesWritten() int64 { return t.n }

// Flush flushes buffered output.
func (t *TextWriter) Flush() error { return t.w.Flush() }

// TextReader streams rows from text format.
type TextReader struct {
	s      *bufio.Scanner
	schema Schema
}

// NewTextReader wraps r with the given schema.
func NewTextReader(r io.Reader, schema Schema) *TextReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1<<16), 1<<24)
	return &TextReader{s: s, schema: schema}
}

// Next returns the next row, io.EOF at end.
func (t *TextReader) Next() (Row, error) {
	if !t.s.Scan() {
		if err := t.s.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return DecodeText(t.s.Text(), t.schema)
}

// BinaryWriter streams rows in binary format.
type BinaryWriter struct {
	w   *bufio.Writer
	buf []byte
	n   int64
}

// NewBinaryWriter wraps w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write encodes one row.
func (b *BinaryWriter) Write(r Row) error {
	b.buf = EncodeBinary(b.buf[:0], r)
	b.n += int64(len(b.buf))
	_, err := b.w.Write(b.buf)
	return err
}

// BytesWritten returns the logical bytes encoded so far (independent
// of downstream buffering).
func (b *BinaryWriter) BytesWritten() int64 { return b.n }

// Flush flushes buffered output.
func (b *BinaryWriter) Flush() error { return b.w.Flush() }

// BinaryReader streams rows from binary format.
type BinaryReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewBinaryReader wraps r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next row, io.EOF at end.
func (b *BinaryReader) Next() (Row, error) {
	n, err := binary.ReadUvarint(b.r)
	if err != nil {
		return nil, err
	}
	// Streams have no "remaining bytes" to bound against, so a hard
	// ceiling stands in: a corrupt or hostile length prefix must cost
	// a parse error, never a multi-gigabyte allocation.
	if n > MaxBinaryRowBytes {
		return nil, fmt.Errorf("row: binary row length %d exceeds limit %d", n, int64(MaxBinaryRowBytes))
	}
	if cap(b.buf) < int(n) {
		b.buf = make([]byte, n)
	}
	b.buf = b.buf[:n]
	if _, err := io.ReadFull(b.r, b.buf); err != nil {
		return nil, err
	}
	return decodeBinaryBody(b.buf)
}
