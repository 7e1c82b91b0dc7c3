package core

import (
	"context"
	"errors"
	"fmt"

	"shark/internal/obs"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// ErrBind marks arguments sqlparse.Bind rejected: the count does not
// match the statement's `?` slots, a value is outside the row value
// model, or a `LIMIT ?` argument is not a non-negative integer. The
// statement did not run; the server reports it as wire.CodeBind.
var ErrBind = errors.New("core: cannot bind arguments")

// Prepared is a statement parsed once and executable many times with
// different argument values. The held AST is immutable: every
// execution binds arguments into a fresh copy, so one Prepared can be
// executed concurrently.
type Prepared struct {
	SQL       string
	norm      string
	stmt      sqlparse.Statement
	numParams int
}

// NumParams reports how many `?` parameters the statement takes.
func (p *Prepared) NumParams() int { return p.numParams }

// Prepare parses one SQL statement into a reusable handle without
// executing it. The parse consults the plan cache, so preparing a
// statement the session (or a shared-catalog peer) has already seen
// costs a cache lookup.
func (s *Session) Prepare(sql string) (*Prepared, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	norm := sqlparse.Normalize(sql)
	stmt, err := s.parseCached(sql, norm)
	if err != nil {
		return nil, err
	}
	return &Prepared{SQL: sql, norm: norm, stmt: stmt, numParams: sqlparse.NumParams(stmt)}, nil
}

// parseCached resolves SQL text to its parsed AST through the plan
// cache when one is attached. Parse errors are never cached.
func (s *Session) parseCached(sql, norm string) (sqlparse.Statement, error) {
	if s.Plans == nil {
		return sqlparse.Parse(sql)
	}
	key := s.planKey(norm)
	if e, ok := s.Plans.lookup(key); ok {
		return e.stmt, nil
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	s.Plans.insert(&planEntry{key: key, stmt: stmt, numParams: sqlparse.NumParams(stmt)})
	return stmt, nil
}

// ExecPrepared executes a prepared statement with the given argument
// values.
func (s *Session) ExecPrepared(p *Prepared, args row.Row) (*Result, error) {
	return s.ExecPreparedCtx(context.Background(), p, args)
}

// ExecPreparedCtx executes a prepared statement with the given
// argument values, binding them into the parsed tree — the text is
// never re-lexed, so argument bytes can never be read as SQL syntax.
// Cancellation semantics match ExecContext.
func (s *Session) ExecPreparedCtx(gctx context.Context, p *Prepared, args row.Row) (*Result, error) {
	return boxed(s.ExecBodyCtx(gctx, p, "", args))
}

// ExecArgsCtx is the one-shot prepare-bind-execute path: parse via
// the plan cache, bind args, run. Cancellation semantics match
// ExecContext.
func (s *Session) ExecArgsCtx(gctx context.Context, sql string, args row.Row) (*Result, error) {
	return boxed(s.ExecBodyCtx(gctx, nil, sql, args))
}

// ExecBodyCtx executes a prepared statement, or when p is nil the
// text sql one-shot, with args bound, and returns the result column-
// major: Body set, Rows nil. It is the server's path — a cursor frames
// the body as it is — where Exec* box the body for embedded callers.
func (s *Session) ExecBodyCtx(gctx context.Context, p *Prepared, sql string, args row.Row) (*Result, error) {
	if p == nil {
		psp := obs.FromContext(gctx).StartSpan("parse")
		var err error
		p, err = s.Prepare(sql)
		psp.End()
		if err != nil {
			return nil, err
		}
	} else if err := s.checkOpen(); err != nil {
		return nil, err
	}
	return s.execPrepared(gctx, p, args)
}

// boxed fills a result's Rows from its body for an embedded caller.
func boxed(res *Result, err error) (*Result, error) {
	if err == nil && res.Body != nil {
		res.Rows = res.Body.Rows()
	}
	return res, err
}

// execPrepared binds, consults the result cache, and executes. A
// result-cache hit returns before job admission — the fast path does
// not touch the scheduler at all.
func (s *Session) execPrepared(gctx context.Context, p *Prepared, args row.Row) (*Result, error) {
	tr := obs.FromContext(gctx)
	stmt := p.stmt
	if p.numParams > 0 || len(args) > 0 {
		bsp := tr.StartSpan("bind")
		bound, err := sqlparse.Bind(stmt, args)
		bsp.End()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBind, err)
		}
		stmt = bound
	}
	if sel, ok := stmt.(*sqlparse.SelectStmt); ok && s.Results != nil && cacheableSelect(sel) {
		// Key on the input-table versions read before execution: any
		// write that lands later bumps them, so the entry written
		// below can never satisfy a lookup issued after the write.
		rkey := s.resultKey(p.norm, args, inputTables(sel))
		if res := s.Results.get(rkey); res != nil {
			return res, nil
		}
		res, err := s.execStatement(gctx, stmt, p)
		if err == nil {
			s.Results.put(rkey, res)
		}
		return res, err
	}
	return s.execStatement(gctx, stmt, p)
}
