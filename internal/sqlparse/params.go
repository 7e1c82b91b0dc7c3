package sqlparse

import (
	"fmt"
	"strings"

	"shark/internal/row"
)

// This file implements native parameter binding: `?` placeholders
// parse into ParamExpr nodes, and Bind substitutes typed argument
// values into a copy of the statement. The statement text is
// never re-lexed with rendered literals, so argument values cannot be
// confused with SQL syntax (quotes, backslashes, `--`) and types
// survive exactly.

// NumParams reports how many `?` placeholders the statement contains.
func NumParams(stmt Statement) int {
	n := 0
	see := func(p *ParamExpr) {
		if p != nil && p.Idx >= n {
			n = p.Idx + 1
		}
	}
	walkStatement(stmt, func(s *SelectStmt) { see(s.LimitParam) }, func(e *Expr) {
		WalkExpr(*e, func(x Expr) bool {
			p, _ := x.(*ParamExpr)
			see(p)
			return true
		})
	})
	return n
}

// walkStatement visits the statement's SELECT — the query itself, the
// AS of a CREATE TABLE, what an EXPLAIN explains; DROP and external DDL
// have none — and every derived table below it: block on each query
// block (where its LIMIT placeholder lives), expr on every expression
// slot as WalkSelect reports them.
func walkStatement(stmt Statement, block func(*SelectStmt), expr func(*Expr)) {
	var top *SelectStmt
	switch s := stmt.(type) {
	case *SelectStmt:
		top = s
	case *CreateTableStmt:
		top = s.As
	case *ExplainStmt:
		walkStatement(s.Stmt, block, expr)
	}
	if top == nil {
		return
	}
	block(top)
	WalkSelect(top, true, func(t *TableRef) {
		if t.Sub != nil {
			block(t.Sub)
		}
	}, expr)
}

// Bind returns a copy of stmt with every ParamExpr replaced by a
// Literal holding the corresponding argument value; sub-trees that hold
// no placeholder are shared with stmt. Arguments must follow the row
// value model (nil, int64, float64, string, bool); a `LIMIT ?` slot
// takes only a non-negative int64.
// stmt itself is never mutated, so a cached AST can be bound
// concurrently by many sessions.
func Bind(stmt Statement, args row.Row) (Statement, error) {
	want := NumParams(stmt)
	if want != len(args) {
		return nil, fmt.Errorf("sql: statement has %d parameter(s), got %d argument(s)", want, len(args))
	}
	for i, a := range args {
		switch a.(type) {
		case nil, int64, float64, string, bool:
		default:
			return nil, fmt.Errorf("sql: argument %d has unsupported type %T", i+1, a)
		}
	}
	b := &binder{args: args}
	bound := cloneStatement(stmt)
	walkStatement(bound, func(s *SelectStmt) {
		if s.LimitParam != nil {
			s.Limit, s.LimitParam = b.limit(s.LimitParam), nil
		}
	}, func(e *Expr) { *e = b.expr(*e) })
	if b.err != nil {
		return nil, b.err
	}
	return bound, nil
}

// cloneStatement copies what Bind assigns into: the statement wrappers
// and (cloneSelect) each SELECT's clause lists.
func cloneStatement(s Statement) Statement {
	switch s := s.(type) {
	case *SelectStmt:
		return cloneSelect(s)
	case *CreateTableStmt:
		if s.As != nil {
			cp := *s
			cp.As = cloneSelect(s.As)
			return &cp
		}
	case *ExplainStmt:
		cp := *s
		cp.Stmt = cloneStatement(s.Stmt)
		return &cp
	}
	return s // DROP and friends carry no expressions
}

type binder struct {
	args row.Row
	err  error
}

// limit resolves a `LIMIT ?` slot to its row count.
func (b *binder) limit(p *ParamExpr) int64 {
	lit := b.expr(p).(*Literal)
	n, ok := lit.Value.(int64)
	if (!ok || n < 0) && b.err == nil {
		b.err = fmt.Errorf("sql: LIMIT parameter must be a non-negative integer, got %s", lit)
	}
	return n
}

// expr is the rewrite: a placeholder becomes its argument, every other
// node is rebuilt only above a placeholder.
func (b *binder) expr(e Expr) Expr {
	p, ok := e.(*ParamExpr)
	if !ok {
		return mapChildren(e, b.expr)
	}
	if p.Idx < 0 || p.Idx >= len(b.args) {
		if b.err == nil {
			b.err = fmt.Errorf("sql: parameter index %d out of range", p.Idx)
		}
		return &Literal{Value: nil}
	}
	return &Literal{Value: b.args[p.Idx]}
}

// Normalize canonicalizes a statement's text for use as a cache key:
// tokens joined by single spaces, identifiers and keywords uppercased,
// comments dropped, string literals re-quoted with stable escaping.
// Two statements that differ only in whitespace, comments or keyword
// case normalize identically. If the text does not lex, it is returned
// verbatim (the subsequent parse will report the real error).
func Normalize(sql string) string {
	tokens, err := lex(sql)
	if err != nil {
		return sql
	}
	var b strings.Builder
	for i, t := range tokens {
		if t.kind == tokEOF {
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		switch t.kind {
		case tokString:
			b.WriteString(quoteSQLString(t.text))
		case tokIdent:
			b.WriteString(strings.ToUpper(t.text))
		default:
			b.WriteString(t.text)
		}
	}
	return b.String()
}

// quoteSQLString renders s as a SQL string literal the lexer would
// read back to exactly s.
func quoteSQLString(s string) string {
	var b strings.Builder
	b.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\'':
			b.WriteString("''")
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('\'')
	return b.String()
}
