package main

import (
	"context"
	"database/sql"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"time"

	"shark/internal/core"
	"shark/internal/rdd"
	"shark/internal/row"
)

type stmtKind int

const (
	kindSelect stmtKind = iota // oracle-checked, returns rows
	kindDDL                    // checked by a post-condition on the catalog
	kindCustom                 // run does everything, including its check
)

// stmt is one statement of a round. id names it in the per-layer
// metrics (client.stmt_ms_p50.<id>).
type stmt struct {
	id   string
	kind stmtKind
	sql  string
	// args is the seeded parameter list; round i binds args[i % len].
	// dateArgs lists the parameters that are DATEs: the engine carries
	// them as int64 days, the driver and the wire as dates.
	args     []row.Row
	dateArgs []int
	check    func(e *env) error
	run      func(c *client, op int) (digest, time.Duration, error)
	// layer names the span a statement that is not a SELECT runs under
	// in the traced pass: the module function that executes it.
	layer string
	// superset, when set, is what the oracle runs in place of sql once
	// for the whole parameter list — the same question asked for every
	// parameter value at a time — and pick selects from its result the
	// rows sql returns for one argument list.
	superset string
	pick     func(rows []row.Row, args row.Row) []row.Row
}

func selectStmt(id, sql string, args []row.Row) *stmt {
	return &stmt{id: id, kind: kindSelect, sql: sql, args: args}
}

func ddlStmt(id, sql string, check func(*env) error) *stmt {
	return &stmt{id: id, kind: kindDDL, sql: sql, check: check, layer: "core.Exec"}
}

func (s *stmt) argsFor(op int) row.Row {
	if len(s.args) == 0 {
		return nil
	}
	return s.args[op%len(s.args)]
}

// digest is what the timed phase compares per statement: row count, an
// order-insensitive hash of every non-float value and the sum of every
// float value. Floats stay out of the hash because partial aggregates
// merge in task-completion order, so their last bits differ run to run.
type digest struct {
	rows int
	hash uint64
	fsum float64
}

var digestSeed = maphash.MakeSeed()

const hashMul = 0x9E3779B97F4A7C15

func (d *digest) addRow(r []any) {
	d.rows++
	h := uint64(len(r))
	for _, v := range r {
		var x uint64
		switch t := v.(type) {
		case nil:
			x = 1
		case int64:
			x = uint64(t)*hashMul + 2
		case float64:
			d.fsum += t
			continue
		case string:
			x = maphash.String(digestSeed, t)
		case []byte:
			x = maphash.Bytes(digestSeed, t)
		case bool:
			x = 3
			if t {
				x = 4
			}
		case time.Time: // the driver hands DATE columns back as time.Time
			x = uint64(t.Unix()/86400)*hashMul + 2
		default:
			panic(fmt.Sprintf("digest: unexpected value type %T", v))
		}
		h = (h ^ x) * hashMul
	}
	d.hash += h
}

func digestRows(rows []row.Row) digest {
	var d digest
	for _, r := range rows {
		d.addRow(r)
	}
	return d
}

func (d digest) equal(want digest) bool {
	return d.rows == want.rows && d.hash == want.hash && closeEnough(d.fsum, want.fsum)
}

// closeEnough is equality to 1e-9 relative.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// client is one closed-loop caller: the embedded session itself, or a
// pinned database/sql connection with its prepared statements.
type client struct {
	e    *env
	conn *sql.Conn
	tag  string // the connection's session name on the server
	// prepared holds the handles of parameterised statements:
	// *core.Prepared embedded, *sql.Stmt through the driver.
	embedded map[*stmt]*core.Prepared
	remote   map[*stmt]*sql.Stmt

	// timeScan makes query time its Next/Scan calls apart from the
	// digest the benchmark computes between them; only the traced run
	// asks for it, so the end-to-end run pays for no extra clock reads.
	timeScan bool

	// ml_iter carries the cached feature RDD from sql2rdd to logreg.
	points    *rdd.RDD
	iterTimes []time.Duration
}

func newClient(e *env) (*client, error) {
	c := &client{e: e, embedded: map[*stmt]*core.Prepared{}, remote: map[*stmt]*sql.Stmt{}}
	if e.db != nil {
		conn, err := e.db.Conn(context.Background())
		if err != nil {
			return nil, err
		}
		c.conn = conn
		err = conn.Raw(func(dc any) error {
			if named, ok := dc.(interface{ Session() string }); ok {
				c.tag = named.Session()
			}
			return nil
		})
		if err != nil {
			c.close()
			return nil, err
		}
	}
	for _, s := range e.stmts {
		if s.kind != kindSelect || len(s.args) == 0 {
			continue
		}
		if c.conn != nil {
			ps, err := c.conn.PrepareContext(context.Background(), s.sql)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("prepare %s: %w", s.id, err)
			}
			c.remote[s] = ps
		} else {
			ps, err := e.sess.Prepare(s.sql)
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", s.id, err)
			}
			c.embedded[s] = ps
		}
	}
	return c, nil
}

func (c *client) close() {
	for _, ps := range c.remote {
		ps.Close()
	}
	if c.conn != nil {
		c.conn.Close()
	}
}

// executed is what one statement execution gave the client.
type executed struct {
	d    digest
	rows []row.Row // only when captured, for the oracle and the probes
	// first is the time from the call to the first row (embedded: to
	// Exec's return); queried is the time to QueryContext's return,
	// zero for embedded statements; scanned is the time inside
	// rows.Next and rows.Scan, kept only when the client times scans.
	first, queried, scanned time.Duration
}

// exec runs statement s for round op; capture keeps the rows.
func (c *client) exec(s *stmt, op int, capture bool) (x executed, err error) {
	start := time.Now()
	switch s.kind {
	case kindCustom:
		x.d, x.first, err = s.run(c, op)
		return x, err
	case kindDDL:
		if _, err = c.e.sess.Exec(s.sql); err != nil {
			return x, err
		}
		x.first = time.Since(start)
		return x, s.check(c.e)
	}
	args := s.argsFor(op)
	if c.conn != nil {
		return c.query(s, args, capture, start)
	}
	var res *core.Result
	if ps := c.embedded[s]; ps != nil {
		res, err = c.e.sess.ExecPrepared(ps, args)
	} else {
		res, err = c.e.sess.Exec(s.sql)
	}
	if err != nil {
		return x, err
	}
	x.first = time.Since(start)
	x.d = digestRows(res.Rows)
	if capture {
		x.rows = res.Rows
	}
	return x, nil
}

// driverArgs converts engine values to what database/sql binds: a DATE
// travels as time.Time.
func driverArgs(s *stmt, args row.Row) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
		if slices.Contains(s.dateArgs, i) {
			out[i] = time.Unix(a.(int64)*86400, 0).UTC()
		}
	}
	return out
}

func (c *client) query(s *stmt, args row.Row, capture bool, start time.Time) (x executed, err error) {
	ctx := context.Background()
	var rows *sql.Rows
	if ps := c.remote[s]; ps != nil {
		rows, err = ps.QueryContext(ctx, driverArgs(s, args)...)
	} else {
		rows, err = c.conn.QueryContext(ctx, s.sql)
	}
	if err != nil {
		return x, err
	}
	x.queried = time.Since(start)
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return x, err
	}
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for {
		var t0 time.Time
		if c.timeScan {
			t0 = time.Now()
		}
		more := rows.Next()
		if more {
			if x.d.rows == 0 {
				x.first = time.Since(start)
			}
			if err = rows.Scan(ptrs...); err != nil {
				return x, err
			}
		}
		if c.timeScan {
			x.scanned += time.Since(t0)
		}
		if !more {
			break
		}
		x.d.addRow(vals)
		if capture {
			r := make(row.Row, len(vals))
			for i, v := range vals {
				if t, ok := v.(time.Time); ok {
					v = t.Unix() / 86400
				}
				r[i] = v
			}
			x.rows = append(x.rows, r)
		}
	}
	if x.d.rows == 0 {
		x.first = time.Since(start)
	}
	return x, rows.Err()
}
