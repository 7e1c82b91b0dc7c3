// Package wire is the framed client/server protocol of shark-server:
// length-prefixed frames carrying versioned, id-tagged messages for
// handshake/auth, session attach (priority / admission / storage-level
// knobs), statement execution, incremental row-batch fetch, cancel and
// close. Encode/decode work on byte slices with no net.Conn anywhere,
// so the codec unit-tests (and fuzzes) without sockets; Reader/Writer
// adapters and the Client sit on plain io interfaces.
//
// Frame layout:
//
//	uint32 big-endian payload length | payload
//
// Payload layout:
//
//	1 byte message type | uvarint request id | message body
//
// Every request carries a fresh id; the response echoes it. Cancel is
// fire-and-forget and names its target statement in the body. Length
// prefixes above MaxFrame are rejected before any allocation — a
// malformed or hostile peer cannot make the server reserve memory.
//
// A Rows body is column-major, in the column blobs a cached partition
// spills as (package columnar: one writer and one reader for a row
// range of a typed vector), so a result window crosses the socket as
// the vectors its final stage kept, a blob per body window and column,
// and decodes once into vectors again. Protocol version 4 replaced the
// wire's own column kinds, varints and per-frame dictionaries with
// them. The body, for c columns over w windows:
//
//	1 byte   Done
//	uvarint  c, zero when the frame has no rows
//	uvarint  w, zero when the frame has no rows
//	w times, the body windows the frame's rows cover, in order:
//	  uvarint  n, the window's rows: at least 1, and at most
//	           MaxFrameRows over the frame
//	  c times:
//	    u32      the blob's length, little-endian
//	    blob     n rows of one column (columnar.BlobCodec.Vec): a tag,
//	             a NULL bitmap, then raw ints (BIGINT and DATE), raw
//	             floats, raw strings, a dictionary of the entries the
//	             rows use with their packed codes, or a boxed column's
//	             cells as one binary row (bools, and cells that
//	             disagree on type)
//
// Boxed rows (Rows.Rows) travel as one window, each column turned into
// a vector first.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"shark/internal/row"
)

// Version is the protocol version spoken by this package. The server
// rejects a Hello carrying any other version: server and driver ship
// from one tree, so nothing is negotiated. Version 2 retired the Exec
// message (type 5): ExecPrepared with Handle 0 is the one-shot form.
// Version 3 made the Rows body column-major (rows.go); version 4 made
// its columns the partitions' column blobs.
const Version = 4

// MaxFrame bounds one frame's payload. ReadFrame rejects larger
// length prefixes without allocating; writers must batch rows to stay
// under it.
const MaxFrame = 16 << 20

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrEmptyFrame reports a zero-length frame (no message type byte).
var ErrEmptyFrame = errors.New("wire: empty frame")

// ErrUnknownType reports a well-framed message whose type byte this
// protocol version does not define (the retired Exec, 5, included).
// ParseMessage still returns the request id, and the frame boundary is
// intact, so a server can refuse that one request and keep reading.
var ErrUnknownType = errors.New("wire: unknown message type")

// Message type bytes.
const (
	TypeHello     byte = 1  // client → server: version + auth token
	TypeHelloOK   byte = 2  // server → client
	TypeAttach    byte = 3  // client → server: bind a session
	TypeAttachOK  byte = 4  // server → client: assigned session name
	TypeResultSet byte = 6  // server → client: schema + message + row count
	TypeFetch     byte = 7  // client → server: next row batch of a cursor
	TypeRows      byte = 8  // server → client: row batch + done flag
	TypeCancel    byte = 9  // client → server: cancel an in-flight statement
	TypeCloseStmt byte = 10 // client → server: discard a cursor
	TypePing      byte = 11 // client → server
	TypePong      byte = 12 // server → client
	TypeClose     byte = 13 // client → server: clean goodbye
	TypeError     byte = 14 // server → client: coded failure

	TypePrepare       byte = 15 // client → server: parse SQL into a statement handle
	TypePrepareOK     byte = 16 // server → client: handle + parameter count
	TypeExecPrepared  byte = 17 // client → server: execute a handle (or one-shot SQL) with typed args
	TypeClosePrepared byte = 18 // client → server: discard a statement handle
)

// Error codes carried by Error messages.
const (
	CodeInternal  uint64 = 1 // unexpected server-side failure (incl. recovered panics)
	CodeAuth      uint64 = 2 // bad token or protocol version
	CodeProtocol  uint64 = 3 // malformed or out-of-order message
	CodeSQL       uint64 = 4 // statement failed (parse/plan/execution)
	CodeCancelled uint64 = 5 // statement cancelled (client Cancel, disconnect, drain)
	CodeClosed    uint64 = 6 // session or cluster is closed / draining
	CodeConnLimit uint64 = 7 // server at its connection limit
	CodeBind      uint64 = 8 // native binder rejected the statement/args
)

// Msg is one protocol message. Concrete types are plain structs;
// AppendMessage and ParseMessage convert to and from payload bytes.
type Msg interface {
	wireType() byte
	appendBody(buf []byte) []byte
}

// Hello opens a connection: protocol version and auth token.
type Hello struct {
	Version uint64
	Token   string
}

// HelloOK acknowledges the handshake.
type HelloOK struct {
	Version uint64
}

// Attach binds the connection to a new cluster session, carrying the
// session knobs the public API exposes: fair-share Priority,
// MaxConcurrentJobs admission cap and default StorageLevel, plus the
// shared-catalog flag. Name empty = auto-generated.
// ResultCacheBytes > 0 opts the session into the result cache with
// that byte quota; DisablePlanCache turns plan caching off (ablation
// and debugging).
type Attach struct {
	Name              string
	Priority          uint64
	MaxConcurrentJobs uint64
	StorageLevel      byte
	SharedCatalog     bool
	ResultCacheBytes  uint64
	DisablePlanCache  bool
}

// AttachOK reports the assigned session name.
type AttachOK struct {
	Name string
}

// ResultSet answers a successful ExecPrepared: the statement's schema (empty
// for DDL), its informational message, and the total row count held
// server-side for fetching.
type ResultSet struct {
	Schema  row.Schema
	Message string
	NumRows uint64
}

// Fetch requests the next batch of a cursor (the ExecPrepared's request id).
type Fetch struct {
	Cursor  uint64
	MaxRows uint64
}

// Cancel asks the server to cancel the in-flight statement with
// request id Target. Fire-and-forget: the cancelled statement itself
// answers with an Error (CodeCancelled).
type Cancel struct {
	Target uint64
}

// CloseStmt discards a cursor without draining it.
type CloseStmt struct {
	Cursor uint64
}

// Ping checks liveness.
type Ping struct{}

// Pong answers Ping.
type Pong struct{}

// Close announces a clean disconnect.
type Close struct{}

// Error reports a coded failure for the request id it echoes.
type Error struct {
	Code uint64
	Msg  string
}

func (Hello) wireType() byte     { return TypeHello }
func (HelloOK) wireType() byte   { return TypeHelloOK }
func (Attach) wireType() byte    { return TypeAttach }
func (AttachOK) wireType() byte  { return TypeAttachOK }
func (ResultSet) wireType() byte { return TypeResultSet }
func (Fetch) wireType() byte     { return TypeFetch }
func (Rows) wireType() byte      { return TypeRows }
func (Cancel) wireType() byte    { return TypeCancel }
func (CloseStmt) wireType() byte { return TypeCloseStmt }
func (Ping) wireType() byte      { return TypePing }
func (Pong) wireType() byte      { return TypePong }
func (Close) wireType() byte     { return TypeClose }
func (Error) wireType() byte     { return TypeError }

// --- encoding primitives ---

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = io.ErrUnexpectedEOF
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// str decodes a length-prefixed string.
func (d *decoder) str() string { return d.text(d.uvarint()) }

// text copies the next n bytes out as a string, bounding n by the
// remaining bytes before allocating.
func (d *decoder) text(n uint64) string {
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after message", len(d.b))
	}
	return nil
}

// --- message bodies ---

func (m Hello) appendBody(buf []byte) []byte {
	buf = appendUvarint(buf, m.Version)
	return appendString(buf, m.Token)
}

func (m HelloOK) appendBody(buf []byte) []byte {
	return appendUvarint(buf, m.Version)
}

func (m Attach) appendBody(buf []byte) []byte {
	buf = appendString(buf, m.Name)
	buf = appendUvarint(buf, m.Priority)
	buf = appendUvarint(buf, m.MaxConcurrentJobs)
	buf = append(buf, m.StorageLevel)
	buf = appendBool(buf, m.SharedCatalog)
	buf = appendUvarint(buf, m.ResultCacheBytes)
	return appendBool(buf, m.DisablePlanCache)
}

func (m AttachOK) appendBody(buf []byte) []byte {
	return appendString(buf, m.Name)
}

func (m ResultSet) appendBody(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(len(m.Schema)))
	for _, f := range m.Schema {
		buf = appendString(buf, f.Name)
		buf = append(buf, byte(f.Type))
	}
	buf = appendString(buf, m.Message)
	return appendUvarint(buf, m.NumRows)
}

func (m Fetch) appendBody(buf []byte) []byte {
	buf = appendUvarint(buf, m.Cursor)
	return appendUvarint(buf, m.MaxRows)
}

func (m Cancel) appendBody(buf []byte) []byte    { return appendUvarint(buf, m.Target) }
func (m CloseStmt) appendBody(buf []byte) []byte { return appendUvarint(buf, m.Cursor) }
func (Ping) appendBody(buf []byte) []byte        { return buf }
func (Pong) appendBody(buf []byte) []byte        { return buf }
func (Close) appendBody(buf []byte) []byte       { return buf }

func (m Error) appendBody(buf []byte) []byte {
	buf = appendUvarint(buf, m.Code)
	return appendString(buf, m.Msg)
}

// AppendMessage appends the payload (type byte, request id, body) for
// one message to buf — framing is WriteFrame's job.
func AppendMessage(buf []byte, id uint64, m Msg) []byte {
	buf = append(buf, m.wireType())
	buf = appendUvarint(buf, id)
	return m.appendBody(buf)
}

// ParseMessage decodes one payload into its request id and message.
// It never panics on malformed input and bounds every allocation by
// the payload length.
func ParseMessage(payload []byte) (id uint64, m Msg, err error) {
	if len(payload) == 0 {
		return 0, nil, ErrEmptyFrame
	}
	typ := payload[0]
	d := &decoder{b: payload[1:]}
	id = d.uvarint()
	switch typ {
	case TypeHello:
		msg := Hello{Version: d.uvarint()}
		msg.Token = d.str()
		m = msg
	case TypeHelloOK:
		m = HelloOK{Version: d.uvarint()}
	case TypeAttach:
		msg := Attach{Name: d.str()}
		msg.Priority = d.uvarint()
		msg.MaxConcurrentJobs = d.uvarint()
		msg.StorageLevel = d.byte()
		msg.SharedCatalog = d.bool()
		msg.ResultCacheBytes = d.uvarint()
		msg.DisablePlanCache = d.bool()
		m = msg
	case TypeAttachOK:
		m = AttachOK{Name: d.str()}
	case TypeResultSet:
		msg := ResultSet{Schema: d.schema()}
		msg.Message = d.str()
		msg.NumRows = d.uvarint()
		m = msg
	case TypeFetch:
		msg := Fetch{Cursor: d.uvarint()}
		msg.MaxRows = d.uvarint()
		m = msg
	case TypeRows:
		msg := Rows{Done: d.bool()}
		if msg.Body = d.body(); msg.Body != nil {
			msg.N = msg.Body.Len
		}
		m = msg
	case TypeCancel:
		m = Cancel{Target: d.uvarint()}
	case TypeCloseStmt:
		m = CloseStmt{Cursor: d.uvarint()}
	case TypePing:
		m = Ping{}
	case TypePong:
		m = Pong{}
	case TypeClose:
		m = Close{}
	case TypeError:
		msg := Error{Code: d.uvarint()}
		msg.Msg = d.str()
		m = msg
	case TypePrepare:
		m = Prepare{SQL: d.str()}
	case TypePrepareOK:
		msg := PrepareOK{Handle: d.uvarint()}
		msg.NumParams = d.uvarint()
		m = msg
	case TypeExecPrepared:
		msg := ExecPrepared{Handle: d.uvarint()}
		msg.SQL = d.str()
		msg.Args = d.args()
		m = msg
	case TypeClosePrepared:
		m = ClosePrepared{Handle: d.uvarint()}
	default:
		return id, nil, fmt.Errorf("%w %d", ErrUnknownType, typ)
	}
	if err := d.done(); err != nil {
		return 0, nil, err
	}
	return id, m, nil
}

// schema decodes a field list, bounding the count by the remaining
// bytes (each field costs at least two bytes) before allocating.
func (d *decoder) schema() row.Schema {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)/2) {
		d.fail()
		return nil
	}
	sch := make(row.Schema, n)
	for i := range sch {
		sch[i].Name = d.str()
		sch[i].Type = row.Type(d.byte())
	}
	if d.err != nil {
		return nil
	}
	return sch
}

// --- framing ---

// AppendFrame appends the length prefix and payload to buf.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// keep returns buf's storage for the next frame of a Reader or Writer,
// unless one unusually large frame grew it past what an idle connection
// should pin.
func keep(buf []byte) []byte {
	if cap(buf) > 1<<20 {
		return nil
	}
	return buf[:0]
}

// Writer frames messages onto one connection. Each message is encoded
// behind its length prefix in a buffer the Writer reuses and leaves in
// exactly one Write — header and payload as two Writes on an
// unbuffered net.Conn are two segments. Not safe for concurrent use:
// both ends serialize their writers under a mutex.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteMessage frames and writes one message. A message that encodes
// above MaxFrame is refused with nothing written.
func (fw *Writer) WriteMessage(id uint64, m Msg) error {
	buf := AppendMessage(append(fw.buf[:0], 0, 0, 0, 0), id, m)
	fw.buf = keep(buf)
	if len(buf)-4 > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	_, err := fw.w.Write(buf)
	return err
}

// ReadFrame reads one frame's payload, tolerating partial reads. A
// length prefix above MaxFrame is rejected before allocating anything;
// a zero length is rejected as an empty frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	return readFrame(r, nil)
}

// readFrame is ReadFrame into buf's storage when the payload fits it.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// Reader reads messages off one connection: through a bufio.Reader, so
// a frame costs one read rather than one for its header and one for
// its payload, and into a payload buffer it reuses — legal only
// because no decoded message aliases its payload (ParseMessage copies
// every string and byte slice out).
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// ReadMessage reads and parses the next frame.
func (fr *Reader) ReadMessage() (uint64, Msg, error) {
	payload, err := readFrame(fr.r, fr.buf)
	if err != nil {
		return 0, nil, err
	}
	fr.buf = keep(payload)
	return ParseMessage(payload)
}
