// Package driver is a database/sql driver for shark-server, so any Go
// application talks to a shared Shark cluster with the standard
// library — the standard pool provides connection reuse, and every
// pooled connection maps to one cluster session:
//
//	import _ "shark/driver"
//
//	db, err := sql.Open("shark", "localhost:7433?catalog=shared")
//	rows, err := db.QueryContext(ctx, "SELECT status, COUNT(*) FROM logs_mem WHERE bytes > ? GROUP BY status", 100)
//
// DSN shape: [shark://]host:port[?options] with options:
//
//	token     auth token (must match the server's -token)
//	session   session-name prefix (a unique suffix is appended per
//	          pooled connection; empty = server-assigned names)
//	priority  fair-share weight of this client's sessions
//	maxjobs   MaxConcurrentJobs admission cap per session
//	storage   default storage level: MEMORY_ONLY | MEMORY_AND_DISK | DISK_ONLY
//	catalog   shared | private (default private)
//	timeout   dial timeout (Go duration, default 10s)
//	rescache  per-session result-cache byte quota (0 = off, the default)
//	plancache on | off (default on): set off to disable plan caching
//
// Statements use '?' placeholders and bind natively: Prepare creates
// a real server-side statement handle, and arguments travel as typed
// wire values that are bound into the parsed tree — never
// interpolated into the statement text. Supported argument types are
// nil, ints, float64, bool, string, []byte (bound as a string whose
// bytes pass through verbatim) and time.Time, which binds as the
// engine's DATE representation (days since the Unix epoch); DATE
// result columns scan back as time.Time. `LIMIT ?` takes a
// non-negative integer. Transactions are not supported.
package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/wire"
)

func init() {
	sql.Register("shark", Driver{})
}

// Driver implements database/sql/driver.Driver and DriverContext.
type Driver struct{}

// Open connects with a DSN (the non-pooling entry point).
func (d Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once for the pool.
func (d Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	cfg, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	return &connector{cfg: cfg}, nil
}

// config is a parsed DSN.
type config struct {
	addr             string
	token            string
	session          string
	priority         int
	maxJobs          int
	storage          rdd.StorageLevel
	sharedCatalog    bool
	dialTimeout      time.Duration
	resultCacheBytes uint64
	disablePlanCache bool
}

func parseDSN(dsn string) (config, error) {
	cfg := config{dialTimeout: 10 * time.Second}
	s := strings.TrimPrefix(dsn, "shark://")
	host, query, _ := strings.Cut(s, "?")
	if host == "" {
		return cfg, fmt.Errorf("shark driver: empty address in DSN %q", dsn)
	}
	cfg.addr = host
	vals, err := url.ParseQuery(query)
	if err != nil {
		return cfg, fmt.Errorf("shark driver: bad DSN options: %w", err)
	}
	for k := range vals {
		v := vals.Get(k)
		switch k {
		case "token":
			cfg.token = v
		case "session":
			cfg.session = v
		case "priority":
			if cfg.priority, err = strconv.Atoi(v); err != nil {
				return cfg, fmt.Errorf("shark driver: bad priority %q", v)
			}
		case "maxjobs":
			if cfg.maxJobs, err = strconv.Atoi(v); err != nil {
				return cfg, fmt.Errorf("shark driver: bad maxjobs %q", v)
			}
		case "storage":
			level, ok := rdd.ParseStorageLevel(v)
			if !ok {
				return cfg, fmt.Errorf("shark driver: bad storage level %q", v)
			}
			cfg.storage = level
		case "catalog":
			switch v {
			case "shared":
				cfg.sharedCatalog = true
			case "private", "":
				cfg.sharedCatalog = false
			default:
				return cfg, fmt.Errorf("shark driver: catalog must be shared or private, got %q", v)
			}
		case "timeout":
			if cfg.dialTimeout, err = time.ParseDuration(v); err != nil {
				return cfg, fmt.Errorf("shark driver: bad timeout %q", v)
			}
		case "rescache":
			if cfg.resultCacheBytes, err = strconv.ParseUint(v, 10, 63); err != nil {
				return cfg, fmt.Errorf("shark driver: bad rescache %q", v)
			}
		case "plancache":
			switch v {
			case "on", "":
				cfg.disablePlanCache = false
			case "off":
				cfg.disablePlanCache = true
			default:
				return cfg, fmt.Errorf("shark driver: plancache must be on or off, got %q", v)
			}
		default:
			return cfg, fmt.Errorf("shark driver: unknown DSN option %q", k)
		}
	}
	return cfg, nil
}

type connector struct {
	cfg config
}

// Connect dials, handshakes and attaches one session.
func (cn *connector) Connect(ctx context.Context) (sqldriver.Conn, error) {
	cl, err := wire.Dial(cn.cfg.addr, cn.cfg.dialTimeout)
	if err != nil {
		return nil, err
	}
	if _, err := cl.RoundtripCtx(ctx, wire.Hello{Version: wire.Version, Token: cn.cfg.token}); err != nil {
		cl.Close()
		return nil, fmt.Errorf("shark driver: handshake: %w", err)
	}
	name := ""
	if cn.cfg.session != "" {
		// Session names are unique per cluster; every pooled
		// connection is its own session, so suffix the prefix.
		name = fmt.Sprintf("%s-%06x", cn.cfg.session, rand.Int31())
	}
	attached, err := cl.RoundtripCtx(ctx, wire.Attach{
		Name:              name,
		Priority:          uint64(cn.cfg.priority),
		MaxConcurrentJobs: uint64(cn.cfg.maxJobs),
		StorageLevel:      byte(cn.cfg.storage),
		SharedCatalog:     cn.cfg.sharedCatalog,
		ResultCacheBytes:  cn.cfg.resultCacheBytes,
		DisablePlanCache:  cn.cfg.disablePlanCache,
	})
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("shark driver: attach: %w", err)
	}
	ok, isOK := attached.(wire.AttachOK)
	if !isOK {
		cl.Close()
		return nil, fmt.Errorf("shark driver: unexpected attach response %T", attached)
	}
	return &conn{c: cl, session: ok.Name}, nil
}

func (cn *connector) Driver() sqldriver.Driver { return Driver{} }

// conn is one pooled connection = one wire connection = one cluster
// session.
type conn struct {
	c       *wire.Client
	session string
}

var (
	_ sqldriver.QueryerContext     = (*conn)(nil)
	_ sqldriver.ExecerContext      = (*conn)(nil)
	_ sqldriver.ConnPrepareContext = (*conn)(nil)
	_ sqldriver.Pinger             = (*conn)(nil)
	_ sqldriver.Validator          = (*conn)(nil)
	_ sqldriver.NamedValueChecker  = (*conn)(nil)
)

// Session reports the server-assigned session name.
func (c *conn) Session() string { return c.session }

func (c *conn) Prepare(query string) (sqldriver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext creates a server-side statement handle; text the
// server cannot parse fails here, not at execution.
func (c *conn) PrepareContext(ctx context.Context, query string) (sqldriver.Stmt, error) {
	resp, err := c.c.RoundtripCtx(ctx, wire.Prepare{SQL: query})
	if err != nil {
		return nil, c.mapErr(ctx, err)
	}
	ok, isOK := resp.(wire.PrepareOK)
	if !isOK {
		return nil, fmt.Errorf("shark driver: unexpected prepare response %T", resp)
	}
	return &stmt{c: c, handle: ok.Handle, numInput: int(ok.NumParams)}, nil
}

func (c *conn) Close() error { return c.c.Close() }

func (c *conn) Begin() (sqldriver.Tx, error) {
	return nil, errors.New("shark driver: transactions are not supported")
}

func (c *conn) Ping(ctx context.Context) error {
	_, err := c.c.RoundtripCtx(ctx, wire.Ping{})
	if err != nil {
		return sqldriver.ErrBadConn
	}
	return nil
}

func (c *conn) IsValid() bool { return c.c.Alive() }

// CheckNamedValue admits arguments the typed wire codec can carry.
// []byte and time.Time pass through untouched: the codec has a tag
// for each, so neither decays to text or a bare integer client-side.
func (c *conn) CheckNamedValue(nv *sqldriver.NamedValue) error {
	if nv.Name != "" {
		return errors.New("shark driver: named parameters are not supported")
	}
	switch nv.Value.(type) {
	case nil, int64, float64, bool, string, []byte, time.Time:
		return nil
	}
	v, err := sqldriver.DefaultParameterConverter.ConvertValue(nv.Value)
	if err != nil {
		return fmt.Errorf("shark driver: unsupported arg type %T", nv.Value)
	}
	nv.Value = v
	return nil
}

// wireArgs converts checked arguments to typed wire values. time.Time
// becomes wire.Date (days since the Unix epoch) so a date crosses the
// wire as a date; everything else is already a wire-native type.
func wireArgs(args []sqldriver.NamedValue) []any {
	if len(args) == 0 {
		return nil
	}
	out := make([]any, len(args))
	for i, a := range args {
		if t, ok := a.Value.(time.Time); ok {
			out[i] = wire.Date(t.UTC().Unix() / 86400)
		} else {
			out[i] = a.Value
		}
	}
	return out
}

// exec runs one statement — by prepared handle, or one-shot with
// inline text — and returns its open cursor.
func (c *conn) exec(ctx context.Context, handle uint64, query string, args []sqldriver.NamedValue) (uint64, wire.ResultSet, error) {
	id, resp, err := c.c.RoundtripID(ctx, wire.ExecPrepared{Handle: handle, SQL: query, Args: wireArgs(args)})
	if err != nil {
		return 0, wire.ResultSet{}, c.mapErr(ctx, err)
	}
	rs, ok := resp.(wire.ResultSet)
	if !ok {
		return 0, wire.ResultSet{}, fmt.Errorf("shark driver: unexpected exec response %T", resp)
	}
	return id, rs, nil
}

// mapErr turns wire failures into idiomatic driver errors.
func (c *conn) mapErr(ctx context.Context, err error) error {
	var remote *wire.RemoteError
	if errors.As(err, &remote) {
		switch remote.Code {
		case wire.CodeCancelled:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return context.Canceled
		case wire.CodeClosed:
			// Session/cluster gone (server drain): poison this pooled
			// connection.
			return sqldriver.ErrBadConn
		}
		return errors.New(remote.Msg)
	}
	if errors.Is(err, wire.ErrConnClosed) {
		return sqldriver.ErrBadConn
	}
	return err
}

func (c *conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	return c.query(ctx, 0, query, args)
}

func (c *conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	return c.execDiscard(ctx, 0, query, args)
}

// query is exec returning the cursor as driver rows.
func (c *conn) query(ctx context.Context, handle uint64, text string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	cursor, rs, err := c.exec(ctx, handle, text, args)
	if err != nil {
		return nil, err
	}
	return &rows{conn: c, ctx: ctx, cursor: cursor, schema: rs.Schema}, nil
}

// execDiscard is exec for callers that want only the row count.
func (c *conn) execDiscard(ctx context.Context, handle uint64, text string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	cursor, rs, err := c.exec(ctx, handle, text, args)
	if err != nil {
		return nil, err
	}
	// Exec discards the rows; free the cursor server-side. A send
	// failure is surfaced — a silently leaked cursor pins the result
	// until the server's idle expiry — except ErrConnClosed: the
	// connection is already dead and IsValid poisons it for the pool.
	if err := c.c.Send(wire.CloseStmt{Cursor: cursor}); err != nil && !errors.Is(err, wire.ErrConnClosed) {
		return nil, err
	}
	return result{rows: int64(rs.NumRows)}, nil
}

type result struct{ rows int64 }

func (result) LastInsertId() (int64, error) {
	return 0, errors.New("shark driver: no insert ids")
}
func (r result) RowsAffected() (int64, error) { return r.rows, nil }

// stmt is a prepared statement: handle names the server-side parsed
// statement, executed with typed argument binding.
type stmt struct {
	c        *conn
	handle   uint64
	numInput int

	mu     sync.Mutex
	closed bool
}

var (
	_ sqldriver.StmtQueryContext = (*stmt)(nil)
	_ sqldriver.StmtExecContext  = (*stmt)(nil)
)

// Close releases the server-side handle. The release must reach the
// server — a connection silently leaking handles hits the per-conn
// handle cap — so the send error is checked; ErrConnClosed is fine,
// a dead connection's handles died with it.
func (s *stmt) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.c.c.Send(wire.ClosePrepared{Handle: s.handle}); err != nil && !errors.Is(err, wire.ErrConnClosed) {
		return err
	}
	return nil
}

func (s *stmt) NumInput() int { return s.numInput }

func (s *stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

func (s *stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	return s.c.execDiscard(ctx, s.handle, "", args)
}

func (s *stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	return s.c.query(ctx, s.handle, "", args)
}

func namedValues(args []sqldriver.Value) []sqldriver.NamedValue {
	out := make([]sqldriver.NamedValue, len(args))
	for i, a := range args {
		out[i] = sqldriver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

// rows iterates a server-side cursor with incremental batch fetches.
type rows struct {
	conn *conn
	// ctx is the query's context: fetches for this cursor belong to
	// the statement that opened it, so its cancellation must unblock
	// an in-flight Fetch roundtrip.
	ctx    context.Context
	cursor uint64
	schema row.Schema

	mu     sync.Mutex
	batch  wire.Columns
	pos    int
	done   bool
	closed bool
}

var _ sqldriver.RowsColumnTypeDatabaseTypeName = (*rows)(nil)

func (r *rows) Columns() []string {
	cols := make([]string, len(r.schema))
	for i, f := range r.schema {
		cols[i] = f.Name
	}
	return cols
}

func (r *rows) ColumnTypeDatabaseTypeName(i int) string {
	switch r.schema[i].Type {
	case row.TInt:
		return "INT"
	case row.TFloat:
		return "FLOAT"
	case row.TString:
		return "STRING"
	case row.TBool:
		return "BOOL"
	case row.TDate:
		return "DATE"
	}
	return ""
}

// Close frees the server-side cursor. database/sql may call it
// concurrently with Next when a query context is cancelled. The
// close must reach the server or the cursor pins its result until
// idle expiry, so the send error is checked; ErrConnClosed is fine,
// a dead connection's cursors died with it.
func (r *rows) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if !r.done {
		if err := r.conn.c.Send(wire.CloseStmt{Cursor: r.cursor}); err != nil && !errors.Is(err, wire.ErrConnClosed) {
			return err
		}
	}
	return nil
}

func (r *rows) Next(dest []sqldriver.Value) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return io.EOF
	}
	for r.pos >= r.batch.Len() {
		if r.done {
			return io.EOF
		}
		resp, err := r.conn.c.RoundtripCtx(r.ctx, wire.Fetch{Cursor: r.cursor})
		if err != nil {
			return r.conn.mapErr(r.ctx, err)
		}
		batch, ok := resp.(wire.Rows)
		if !ok {
			return fmt.Errorf("shark driver: unexpected fetch response %T", resp)
		}
		r.batch, r.pos, r.done = batch.Cols, 0, batch.Done
	}
	if r.batch.Width() != len(dest) {
		return fmt.Errorf("shark driver: row has %d columns, want %d", r.batch.Width(), len(dest))
	}
	// The frame decoded into typed columns once; a row is an index into
	// them, and the only allocations left are the boxes database/sql's
	// Value demands.
	for i := range dest {
		col := r.batch.Col(i)
		if r.schema[i].Type == row.TDate && col.Kind == wire.KindInt && !col.Null(r.pos) {
			dest[i] = time.Unix(col.Int(r.pos)*86400, 0).UTC()
		} else {
			dest[i] = col.Value(r.pos)
		}
	}
	r.pos++
	return nil
}
