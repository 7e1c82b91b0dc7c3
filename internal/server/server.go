// Package server is the serving layer of shark-server: one shared
// shark.Cluster behind a TCP listener speaking the wire protocol.
// Each connection runs in its own goroutine and maps to one cluster
// session; disconnects cancel the connection's in-flight statements
// cluster-wide (queued tasks dropped, running tasks abort at the next
// mid-partition checkpoint); Shutdown drains gracefully: stop
// accepting, cancel in-flight jobs, close sessions, then the cluster.
//
// Nothing a client sends may panic the process: frame and message
// decoding is bounds-checked in internal/wire, statement execution
// runs under a recover, and racing closes surface as ErrClosed.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"shark"
	"shark/internal/cluster"
	"shark/internal/core"
	"shark/internal/obs"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/wire"
)

// Config shapes a server. Limits nobody has needed to vary are
// constants below (handshakeTimeout, maxPreparedPerConn), not fields.
type Config struct {
	// Cluster sizes the shared substrate every connection attaches to.
	Cluster shark.ClusterConfig
	// Token, when non-empty, must match every client Hello.
	Token string
	// MaxConns bounds concurrent connections (0 = unlimited); excess
	// connects are answered with a CodeConnLimit error and closed.
	MaxConns int
	// BatchRows caps rows per Fetch response (default 512).
	BatchRows int
	// Logf receives serving-layer events (nil = silent).
	Logf func(format string, args ...any)
	// SlowQueryThreshold admits only statements at least this slow to
	// the /queries slow-query log (0 = record every statement).
	SlowQueryThreshold time.Duration
	// QueryLogSize bounds the slow-query ring buffer (default 64).
	QueryLogSize int
	// MaxCursorsPerConn bounds open result cursors per connection
	// (default 64). At the cap the oldest-idle cursor is evicted to
	// admit the new result, so a client that executes but never
	// fetches or closes cannot pin unbounded result memory.
	MaxCursorsPerConn int
	// CursorIdleTimeout expires cursors nobody has fetched from
	// (default 5m). Expiry is enforced as messages are handled — no
	// background goroutine.
	CursorIdleTimeout time.Duration
}

// Server owns the cluster and the listener.
type Server struct {
	cfg     Config
	cluster *shark.Cluster
	obs     *observer

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup
}

// New boots the shared cluster and returns a server ready to Serve.
func New(cfg Config) (*Server, error) {
	cl, err := shark.NewCluster(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, cluster: cl, obs: newObserver(cl, cfg), conns: make(map[*conn]struct{})}
	s.connGauge()
	return s, nil
}

// Cluster exposes the shared substrate — the owner preloads shared-
// catalog tables through it before serving.
func (s *Server) Cluster() *shark.Cluster { return s.cluster }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) batchRows() int {
	if s.cfg.BatchRows > 0 {
		return s.cfg.BatchRows
	}
	return 512
}

func (s *Server) maxCursors() int {
	if s.cfg.MaxCursorsPerConn > 0 {
		return s.cfg.MaxCursorsPerConn
	}
	return 64
}

func (s *Server) cursorIdle() time.Duration {
	if s.cfg.CursorIdleTimeout > 0 {
		return s.cfg.CursorIdleTimeout
	}
	return 5 * time.Minute
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (for addr ":0" tests/harnesses).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown closes it. It
// returns nil on a drain-initiated stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn admits or refuses one accepted connection.
func (s *Server) startConn(nc net.Conn) {
	h := &conn{srv: s, nc: nc, rd: wire.NewReader(nc), wr: wire.NewWriter(nc)}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	h.stmts = make(map[uint64]context.CancelFunc)
	h.cursors = make(map[uint64]*cursor)
	h.prepared = make(map[uint64]*core.Prepared)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		go refuse(nc, wire.CodeClosed, "server is draining")
		return
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		go refuse(nc, wire.CodeConnLimit, "server at connection limit")
		return
	}
	s.conns[h] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go h.handle()
}

// refuse answers a connection the server will not serve, then closes
// it. After writing the error it lingers, draining the client's
// in-flight bytes until the client hangs up (or a short deadline):
// closing immediately can RST the connection while the client's Hello
// is still in flight, destroying the queued error frame and turning a
// clean refusal into a broken-pipe race.
func refuse(nc net.Conn, code uint64, msg string) {
	nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
	wire.NewWriter(nc).WriteMessage(0, wire.Error{Code: code, Msg: msg})
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := nc.Read(buf); err != nil {
			break
		}
	}
	nc.Close()
}

func (s *Server) removeConn(h *conn) {
	s.mu.Lock()
	delete(s.conns, h)
	s.mu.Unlock()
	s.wg.Done()
}

// Shutdown drains gracefully: stop accepting, cancel every in-flight
// statement (riding the mid-partition cancellation path), let the
// handlers flush their error responses and close their sessions, then
// close the cluster. A ctx deadline forces lingering connections
// closed. Idempotent; concurrent calls both wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for h := range s.conns {
		conns = append(conns, h)
	}
	s.mu.Unlock()

	if first {
		if ln != nil {
			ln.Close()
		}
		for _, h := range conns {
			h.beginDrain()
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for h := range s.conns {
			h.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.cluster.Close()
	return err
}

// conn is one client connection: its session, its in-flight statement
// cancels, and its open result cursors.
type conn struct {
	srv    *Server
	nc     net.Conn
	ctx    context.Context
	cancel context.CancelFunc

	rd *wire.Reader // read loop only

	wmu sync.Mutex   // serializes frame writes (reader vs exec goroutines)
	wr  *wire.Writer // its encode buffer is reused across frames; under wmu

	sess *shark.Session // nil until Attach

	mu         sync.Mutex
	stmts      map[uint64]context.CancelFunc // in-flight statements by request id
	cursors    map[uint64]*cursor            // fetchable results by statement request id
	prepared   map[uint64]*core.Prepared     // statement handles by Prepare
	nextHandle uint64
	draining   bool

	execWG sync.WaitGroup
}

// maxPreparedPerConn bounds statement handles per connection; a
// client needing more is leaking them.
const maxPreparedPerConn = 256

// handshakeTimeout bounds how long a fresh connection may sit without
// completing its Hello.
const handshakeTimeout = 10 * time.Second

// cursor is a materialized statement result mid-fetch. lastUsed
// drives the idle-expiry and at-cap eviction that keep a misbehaving
// client from pinning results forever.
type cursor struct {
	res      *core.Result
	off      int
	lastUsed time.Time
}

// send frames and writes one response; write failures are terminal
// for the connection (the reader notices the close).
func (h *conn) send(id uint64, m wire.Msg) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	if err := h.wr.WriteMessage(id, m); err != nil {
		h.nc.Close()
	}
}

// handle runs the connection's read loop. Any escaping panic is
// contained here: the connection dies, the process does not.
func (h *conn) handle() {
	defer func() {
		if r := recover(); r != nil {
			h.srv.logf("server: connection panic recovered: %v", r)
		}
		h.cancel()      // cancel in-flight statements cluster-wide
		h.execWG.Wait() // let them finish flushing responses
		h.nc.Close()
		if h.sess != nil {
			h.sess.Close() // idempotent vs a racing cluster drain
		}
		h.srv.removeConn(h)
	}()

	// Handshake: Hello must arrive promptly and carry the right
	// version and token.
	h.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	id, msg, err := h.rd.ReadMessage()
	if err != nil {
		return
	}
	hello, ok := msg.(wire.Hello)
	if !ok {
		h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: "expected Hello"})
		return
	}
	if hello.Version != wire.Version {
		h.send(id, wire.Error{Code: wire.CodeAuth, Msg: fmt.Sprintf("protocol version %d unsupported", hello.Version)})
		return
	}
	if h.srv.cfg.Token != "" && hello.Token != h.srv.cfg.Token {
		h.send(id, wire.Error{Code: wire.CodeAuth, Msg: "bad token"})
		return
	}
	h.nc.SetReadDeadline(time.Time{})
	h.send(id, wire.HelloOK{Version: wire.Version})

	for {
		id, msg, err := h.rd.ReadMessage()
		if errors.Is(err, wire.ErrUnknownType) {
			// The frame was whole, so the stream is still in sync:
			// refuse this request and keep serving the connection.
			h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: err.Error()})
			continue
		}
		if err != nil {
			// Disconnect, drain-forced close, or an unframeable/
			// malformed stream: all end the connection the same way —
			// in-flight statements are cancelled by the deferred
			// teardown.
			return
		}
		switch m := msg.(type) {
		case wire.Attach:
			h.onAttach(id, m)
		case wire.Prepare:
			h.onPrepare(id, m)
		case wire.ExecPrepared:
			h.onExecPrepared(id, m)
		case wire.ClosePrepared:
			h.mu.Lock()
			delete(h.prepared, m.Handle)
			h.mu.Unlock()
		case wire.Fetch:
			h.onFetch(id, m)
		case wire.Cancel:
			h.mu.Lock()
			cancel := h.stmts[m.Target]
			h.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		case wire.CloseStmt:
			h.mu.Lock()
			delete(h.cursors, m.Cursor)
			h.mu.Unlock()
		case wire.Ping:
			h.send(id, wire.Pong{})
		case wire.Close:
			return
		default:
			h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: fmt.Sprintf("unexpected %T", msg)})
		}
	}
}

func (h *conn) onAttach(id uint64, m wire.Attach) {
	if h.sess != nil {
		h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: "session already attached"})
		return
	}
	level := rdd.StorageLevel(m.StorageLevel)
	if level < rdd.MemoryOnly || level > rdd.DiskOnly {
		level = rdd.MemoryOnly
	}
	sess, err := h.srv.cluster.NewSession(shark.SessionConfig{
		Name:              m.Name,
		SharedCatalog:     m.SharedCatalog,
		Priority:          int(m.Priority),
		MaxConcurrentJobs: int(m.MaxConcurrentJobs),
		StorageLevel:      level,
		ResultCacheBytes:  int64(m.ResultCacheBytes),
		DisablePlanCache:  m.DisablePlanCache,
	})
	if err != nil {
		h.send(id, wire.Error{Code: errCode(err), Msg: err.Error()})
		return
	}
	h.sess = sess
	h.send(id, wire.AttachOK{Name: sess.Tag})
}

// runStatement admits one statement under the request id, executes
// run off the read loop (so Cancel frames and disconnects still get
// through), registers the result cursor, and replies. sqlText is what
// the slow-query log records — for parameterized statements it is the
// template text, so argument values never leak into observability.
func (h *conn) runStatement(id uint64, sqlText string, run func(context.Context) (*core.Result, error)) {
	if h.sess == nil {
		h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: "attach a session first"})
		return
	}
	h.mu.Lock()
	if h.draining {
		h.mu.Unlock()
		h.send(id, wire.Error{Code: wire.CodeClosed, Msg: "server is draining"})
		return
	}
	if _, busy := h.stmts[id]; busy {
		h.mu.Unlock()
		h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: "duplicate request id"})
		return
	}
	sctx, cancel := context.WithCancel(h.ctx)
	h.stmts[id] = cancel
	// Under h.mu, so the Add is ordered before beginDrain's Wait (which
	// starts only after it set draining under the same lock).
	h.execWG.Add(1)
	h.mu.Unlock()

	go func() {
		defer h.execWG.Done()
		defer cancel()
		defer func() {
			h.mu.Lock()
			delete(h.stmts, id)
			h.mu.Unlock()
		}()
		defer func() {
			// A statement panic (e.g. a latent engine bug) fails this
			// statement only — never the server process.
			if r := recover(); r != nil {
				h.srv.logf("server: statement panic recovered: %v", r)
				h.send(id, wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("internal error: %v", r)})
			}
		}()
		// Trace the statement: spans and counters accumulate on the
		// context's trace as execution descends through core, exec and
		// the scheduler; the finished trace lands in the slow-query log
		// and latency histogram before any response is sent, so metrics
		// are complete even when the client is gone.
		tr := obs.NewTrace(h.sess.Tag, sqlText)
		h.srv.obs.stmtStarted.Add(1)
		res, err := run(obs.WithTrace(sctx, tr))
		tr.Finish(err)
		h.srv.obs.statementDone(tr, err)
		if err != nil {
			h.send(id, wire.Error{Code: errCode(err), Msg: err.Error()})
			return
		}
		h.registerCursor(id, res)
		h.send(id, wire.ResultSet{Schema: res.Schema, Message: res.Message, NumRows: uint64(len(res.Rows))})
	}()
}

// onPrepare parses a statement into a connection-scoped handle. Parse
// is fast and touches no scheduler state, so it runs on the read loop.
func (h *conn) onPrepare(id uint64, m wire.Prepare) {
	if h.sess == nil {
		h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: "attach a session first"})
		return
	}
	p, err := h.sess.Prepare(m.SQL)
	if err != nil {
		h.send(id, wire.Error{Code: errCode(err), Msg: err.Error()})
		return
	}
	h.mu.Lock()
	if len(h.prepared) >= maxPreparedPerConn {
		h.mu.Unlock()
		h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: "too many prepared statements; close some"})
		return
	}
	h.nextHandle++
	handle := h.nextHandle
	h.prepared[handle] = p
	h.mu.Unlock()
	h.send(id, wire.PrepareOK{Handle: handle, NumParams: uint64(p.NumParams())})
}

// onExecPrepared executes with typed arguments bound into the parsed
// tree. Handle != 0 names a prior Prepare; Handle == 0 carries the
// text inline as a one-shot.
func (h *conn) onExecPrepared(id uint64, m wire.ExecPrepared) {
	if h.sess == nil {
		h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: "attach a session first"})
		return
	}
	var p *core.Prepared
	if m.Handle != 0 {
		h.mu.Lock()
		p = h.prepared[m.Handle]
		h.mu.Unlock()
		if p == nil {
			h.send(id, wire.Error{Code: wire.CodeProtocol, Msg: "unknown prepared statement handle"})
			return
		}
	}
	sqlText := m.SQL
	if p != nil {
		sqlText = p.SQL
	}
	args := nativeArgs(m.Args)
	h.runStatement(id, sqlText, func(ctx context.Context) (*core.Result, error) {
		if p != nil {
			return h.sess.ExecPreparedCtx(ctx, p, args)
		}
		return h.sess.ExecArgsCtx(ctx, m.SQL, args)
	})
}

// nativeArgs converts decoded wire arguments to the engine's value
// model: []byte binds as a string whose bytes pass through verbatim
// (they are never re-lexed, so quotes and comment markers stay data),
// and Date binds as its epoch-day int64 — the engine's DATE carrier.
func nativeArgs(in []any) row.Row {
	if len(in) == 0 {
		return nil
	}
	out := make(row.Row, len(in))
	for i, a := range in {
		switch v := a.(type) {
		case []byte:
			out[i] = string(v)
		case wire.Date:
			out[i] = int64(v)
		default:
			out[i] = a
		}
	}
	return out
}

// registerCursor files a result for fetching under the connection's
// cursor budget: idle-expired cursors are pruned first, then at the
// cap the oldest-idle cursor is evicted to admit the new result.
func (h *conn) registerCursor(id uint64, res *core.Result) {
	now := time.Now()
	h.mu.Lock()
	h.pruneCursorsLocked(now)
	if len(h.cursors) >= h.srv.maxCursors() {
		var victim uint64
		var oldest time.Time
		first := true
		for cid, c := range h.cursors {
			if first || c.lastUsed.Before(oldest) {
				first, oldest, victim = false, c.lastUsed, cid
			}
		}
		delete(h.cursors, victim)
	}
	h.cursors[id] = &cursor{res: res, lastUsed: now}
	h.mu.Unlock()
}

// pruneCursorsLocked drops cursors idle past the timeout. Caller
// holds h.mu.
func (h *conn) pruneCursorsLocked(now time.Time) {
	idle := h.srv.cursorIdle()
	for cid, c := range h.cursors {
		if now.Sub(c.lastUsed) > idle {
			delete(h.cursors, cid)
		}
	}
}

// onFetch streams the next window of a cursor, bounded by row count
// and a soft byte budget so one frame stays well under MaxFrame. The
// window is a slice of the result — send transposes it straight into
// the connection's encode buffer.
func (h *conn) onFetch(id uint64, m wire.Fetch) {
	now := time.Now()
	h.mu.Lock()
	h.pruneCursorsLocked(now)
	cur, ok := h.cursors[m.Cursor]
	if !ok {
		h.mu.Unlock()
		// Unknown cursor: already exhausted, closed, or reclaimed by
		// the cursor budget — answer "done" rather than erroring a
		// benign race.
		h.send(id, wire.Rows{Done: true})
		return
	}
	cur.lastUsed = now
	// Compared as uint64: a client's MaxRows above the int range must
	// not turn negative on the way to a row count.
	maxRows := uint64(min(h.srv.batchRows(), wire.MaxFrameRows))
	if m.MaxRows > 0 && m.MaxRows < maxRows {
		maxRows = m.MaxRows
	}
	rows := cur.res.Rows[cur.off:]
	n, budget := 0, wire.MaxFrame/4
	for n < len(rows) && uint64(n) < maxRows && budget > 0 {
		budget -= approxRowBytes(rows[n])
		n++
	}
	cur.off += n
	done := n == len(rows)
	if done {
		delete(h.cursors, m.Cursor)
	}
	h.mu.Unlock()
	h.send(id, wire.Rows{Rows: rows[:n], Done: done})
}

// beginDrain is the per-connection half of Shutdown: refuse new
// statements, cancel in-flight ones, and once their responses have
// flushed, close the socket so the read loop tears the session down.
func (h *conn) beginDrain() {
	h.mu.Lock()
	h.draining = true
	h.mu.Unlock()
	h.cancel()
	go func() {
		h.execWG.Wait()
		h.nc.Close()
	}()
}

// approxRowBytes estimates a row's encoded size for batch budgeting.
func approxRowBytes(r row.Row) int {
	n := 8
	for _, v := range r {
		n += 10
		if s, ok := v.(string); ok {
			n += len(s)
		}
	}
	return n
}

// errCode classifies a statement or attach error for the wire.
func errCode(err error) uint64 {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return wire.CodeCancelled
	case errors.Is(err, shark.ErrClosed) || errors.Is(err, cluster.ErrClosed):
		return wire.CodeClosed
	case errors.Is(err, core.ErrBind):
		return wire.CodeBind
	default:
		return wire.CodeSQL
	}
}
