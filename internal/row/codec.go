package row

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
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

// TextSink receives text lines parsed field by field: for each line,
// one call per field the tokenizer was asked for, in the order asked
// (col numbers them from 0), then EndRow. A DATE arrives as AppendInt,
// NULL (`\N`, or an empty non-string field) as AppendNull. A string is
// a sub-slice of the line or of the tokenizer's scratch, valid only
// during the call. DecodeText boxes into a Row; columnar.Builder
// appends to typed columns.
type TextSink[T string | []byte] interface {
	AppendNull(col int)
	AppendInt(col int, v int64)
	AppendFloat(col int, v float64)
	AppendBool(col int, v bool)
	AppendString(col int, s T)
	EndRow()
}

// TextTokenizer splits text lines into fields and parses the fields a
// sink needs by the schema's types; the others are counted, never
// converted. It keeps unescaping scratch, so it serves one goroutine.
type TextTokenizer struct {
	schema Schema
	to     []int // schema column → sink column, -1 to skip; nil: every column, in order (DecodeText)
	buf    []byte
}

// NewTextTokenizer returns a tokenizer for lines of schema that hands
// its sink the fields cols (schema positions, in sink order).
func NewTextTokenizer(schema Schema, cols []int) *TextTokenizer {
	t := &TextTokenizer{schema: schema, to: make([]int, len(schema))}
	for i := range t.to {
		t.to[i] = -1
	}
	for j, c := range cols {
		t.to[c] = j
	}
	return t
}

// TokenizeText parses one line (without its newline) into sink. It
// fails, before EndRow, on a line with the wrong number of fields or
// a needed field that does not parse as its type.
func TokenizeText[T string | []byte](t *TextTokenizer, line T, sink TextSink[T]) error {
	field, start, escaped := 0, 0, false
	for pos := 0; pos <= len(line); pos++ {
		if pos < len(line) {
			if line[pos] == '\\' {
				pos++ // the escaped byte is not a separator
				escaped = true
				continue
			}
			if line[pos] != textSep {
				continue
			}
		}
		if field >= len(t.schema) {
			return fmt.Errorf("row: too many fields (schema has %d): %q", len(t.schema), line)
		}
		col := field
		if t.to != nil {
			col = t.to[field]
		}
		if col >= 0 {
			raw := line[start:pos]
			if string(raw) == textNull {
				sink.AppendNull(col)
			} else {
				if escaped {
					t.buf = unescape(t.buf[:0], raw)
					raw = T(t.buf)
				}
				if err := parseField(raw, t.schema[field].Type, col, sink); err != nil {
					return err
				}
			}
		}
		field, start, escaped = field+1, pos+1, false
	}
	if field != len(t.schema) {
		return fmt.Errorf("row: got %d fields, schema has %d: %q", field, len(t.schema), line)
	}
	sink.EndRow()
	return nil
}

// unescape appends s with its backslash escapes resolved to buf.
func unescape[T string | []byte](buf []byte, s T) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'p':
				buf = append(buf, textSep)
			case 'n':
				buf = append(buf, '\n')
			default:
				buf = append(buf, s[i])
			}
			continue
		}
		buf = append(buf, s[i])
	}
	return buf
}

// parseField hands one unescaped field of type typ to sink as column
// col: the text rules every reader of the format shares.
func parseField[T string | []byte](s T, typ Type, col int, sink TextSink[T]) error {
	if len(s) == 0 && typ != TString {
		sink.AppendNull(col)
		return nil
	}
	switch typ {
	case TInt:
		v, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil {
			return fmt.Errorf("row: bad int %q: %w", s, err)
		}
		sink.AppendInt(col, v)
	case TFloat:
		v, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return fmt.Errorf("row: bad float %q: %w", s, err)
		}
		sink.AppendFloat(col, v)
	case TString:
		sink.AppendString(col, s)
	case TBool:
		v, err := strconv.ParseBool(string(s))
		if err != nil {
			return fmt.Errorf("row: bad bool %q: %w", s, err)
		}
		sink.AppendBool(col, v)
	case TDate:
		// Accept both the epoch-day integer form (what the codecs
		// emit) and the human YYYY-MM-DD form (what generators and
		// SQL literals use).
		v, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil {
			if v, err = ParseDate(string(s)); err != nil {
				return err
			}
		}
		sink.AppendInt(col, v)
	case TNull:
		sink.AppendNull(col)
	default:
		return fmt.Errorf("row: cannot parse type %v", typ)
	}
	return nil
}

// rowSink is the boxing TextSink: fields into the cells of a Row.
type rowSink[T string | []byte] struct{ r Row }

func (s *rowSink[T]) AppendNull(c int)             { s.r[c] = nil }
func (s *rowSink[T]) AppendInt(c int, v int64)     { s.r[c] = v }
func (s *rowSink[T]) AppendFloat(c int, v float64) { s.r[c] = v }
func (s *rowSink[T]) AppendBool(c int, v bool)     { s.r[c] = v }
func (s *rowSink[T]) AppendString(c int, v T)      { s.r[c] = string(v) }
func (s *rowSink[T]) EndRow()                      {}

// DecodeText parses one text line (no trailing newline) into a row
// using the schema for types.
func DecodeText(line string, schema Schema) (Row, error) {
	t := TextTokenizer{schema: schema}
	sink := rowSink[string]{r: make(Row, len(schema))}
	if err := TokenizeText(&t, line, &sink); err != nil {
		return nil, err
	}
	return sink.r, nil
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
	panic(fmt.Sprintf("row: cannot encode %v", reflect.TypeOf(v))) // not v itself: it would escape
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
// at a time, reusing its buffers: callers that hold columns rather than
// rows (composite group keys) get the identical encoding without
// building r. Value keeps no reference to its argument, so a value
// boxed for it stays on the stack. The zero value is ready.
type BinaryEncoder struct {
	body, out []byte
}

// Reset starts a row of n fields.
func (e *BinaryEncoder) Reset(n int) {
	e.body = binary.AppendUvarint(e.body[:0], uint64(n))
}

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
	return &TextReader{s: NewLineScanner(r), schema: schema}
}

// NewLineScanner splits text-format input into lines, as TextReader
// reads them.
func NewLineScanner(r io.Reader) *bufio.Scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1<<16), 1<<24)
	return s
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
