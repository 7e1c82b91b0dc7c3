package sqlparse

import (
	"fmt"
	"strings"

	"shark/internal/row"
)

// This file implements native parameter binding: `?` placeholders
// parse into ParamExpr nodes, and Bind substitutes typed argument
// values into a deep copy of the statement. The statement text is
// never re-lexed with rendered literals, so argument values cannot be
// confused with SQL syntax (quotes, backslashes, `--`) and types
// survive exactly.

// NumParams reports how many `?` placeholders the statement contains.
func NumParams(stmt Statement) int {
	n := 0
	walkStatement(stmt, func(e Expr) {
		if p, ok := e.(*ParamExpr); ok {
			if p.Idx+1 > n {
				n = p.Idx + 1
			}
		}
	})
	return n
}

// Bind returns a deep copy of stmt with every ParamExpr replaced by a
// Literal holding the corresponding argument value. Arguments must
// follow the row value model (nil, int64, float64, string, bool); a
// `LIMIT ?` slot takes only a non-negative int64.
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
	bound := b.stmt(stmt)
	if b.err != nil {
		return nil, b.err
	}
	return bound, nil
}

type binder struct {
	args row.Row
	err  error
}

func (b *binder) stmt(s Statement) Statement {
	switch s := s.(type) {
	case *SelectStmt:
		return b.selectStmt(s)
	case *CreateTableStmt:
		if s.As == nil {
			return s
		}
		cp := *s
		cp.As = b.selectStmt(s.As)
		return &cp
	case *ExplainStmt:
		cp := *s
		cp.Stmt = b.stmt(s.Stmt)
		return &cp
	default:
		// DROP and friends carry no expressions.
		return s
	}
}

func (b *binder) selectStmt(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	cp := *s
	cp.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		cp.Items[i] = SelectItem{Star: it.Star, Expr: b.expr(it.Expr), Alias: it.Alias}
	}
	cp.From = b.tableRef(s.From)
	cp.Joins = make([]JoinClause, len(s.Joins))
	for i, j := range s.Joins {
		cp.Joins[i] = JoinClause{Ref: b.tableRef(j.Ref), On: b.expr(j.On)}
	}
	cp.Where = b.expr(s.Where)
	cp.GroupBy = b.exprs(s.GroupBy)
	cp.Having = b.expr(s.Having)
	cp.OrderBy = make([]OrderItem, len(s.OrderBy))
	for i, o := range s.OrderBy {
		cp.OrderBy[i] = OrderItem{Expr: b.expr(o.Expr), Desc: o.Desc}
	}
	if s.LimitParam != nil {
		cp.Limit, cp.LimitParam = b.limit(s.LimitParam), nil
	}
	return &cp
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

func (b *binder) tableRef(t *TableRef) *TableRef {
	if t == nil {
		return nil
	}
	cp := *t
	cp.Sub = b.selectStmt(t.Sub)
	return &cp
}

func (b *binder) exprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = b.expr(e)
	}
	return out
}

func (b *binder) expr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch e := e.(type) {
	case *ParamExpr:
		if e.Idx < 0 || e.Idx >= len(b.args) {
			if b.err == nil {
				b.err = fmt.Errorf("sql: parameter index %d out of range", e.Idx)
			}
			return &Literal{Value: nil}
		}
		return &Literal{Value: b.args[e.Idx]}
	case *Literal:
		return e
	case *ColRef:
		return e
	case *BinaryExpr:
		return &BinaryExpr{Op: e.Op, L: b.expr(e.L), R: b.expr(e.R)}
	case *NotExpr:
		return &NotExpr{E: b.expr(e.E)}
	case *NegExpr:
		return &NegExpr{E: b.expr(e.E)}
	case *FuncCall:
		return &FuncCall{Name: e.Name, Args: b.exprs(e.Args), Star: e.Star, Distinct: e.Distinct}
	case *BetweenExpr:
		return &BetweenExpr{E: b.expr(e.E), Lo: b.expr(e.Lo), Hi: b.expr(e.Hi), Not: e.Not}
	case *InExpr:
		return &InExpr{E: b.expr(e.E), List: b.exprs(e.List), Not: e.Not}
	case *LikeExpr:
		return &LikeExpr{E: b.expr(e.E), Pattern: e.Pattern, Not: e.Not}
	case *IsNullExpr:
		return &IsNullExpr{E: b.expr(e.E), Not: e.Not}
	case *CaseExpr:
		cp := &CaseExpr{Whens: make([]WhenClause, len(e.Whens)), Else: b.expr(e.Else)}
		for i, w := range e.Whens {
			cp.Whens[i] = WhenClause{Cond: b.expr(w.Cond), Then: b.expr(w.Then)}
		}
		return cp
	case *CastExpr:
		return &CastExpr{E: b.expr(e.E), To: e.To}
	default:
		if b.err == nil {
			b.err = fmt.Errorf("sql: cannot bind unknown expression node %T", e)
		}
		return e
	}
}

// walkStatement visits every expression in the statement tree.
func walkStatement(s Statement, f func(Expr)) {
	switch s := s.(type) {
	case *SelectStmt:
		walkSelect(s, f)
	case *CreateTableStmt:
		walkSelect(s.As, f)
	case *ExplainStmt:
		walkStatement(s.Stmt, f)
	}
}

func walkSelect(s *SelectStmt, f func(Expr)) {
	if s == nil {
		return
	}
	for _, it := range s.Items {
		WalkExpr(it.Expr, f)
	}
	if s.From != nil {
		walkSelect(s.From.Sub, f)
	}
	for _, j := range s.Joins {
		if j.Ref != nil {
			walkSelect(j.Ref.Sub, f)
		}
		WalkExpr(j.On, f)
	}
	WalkExpr(s.Where, f)
	for _, e := range s.GroupBy {
		WalkExpr(e, f)
	}
	WalkExpr(s.Having, f)
	for _, o := range s.OrderBy {
		WalkExpr(o.Expr, f)
	}
	if s.LimitParam != nil {
		f(s.LimitParam)
	}
}

// WalkExpr applies f to e and every sub-expression, pre-order.
// Callers use it to scan statements for node classes (parameters,
// non-builtin function calls) without re-implementing the shape of
// the tree.
func WalkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *BinaryExpr:
		WalkExpr(e.L, f)
		WalkExpr(e.R, f)
	case *NotExpr:
		WalkExpr(e.E, f)
	case *NegExpr:
		WalkExpr(e.E, f)
	case *FuncCall:
		for _, a := range e.Args {
			WalkExpr(a, f)
		}
	case *BetweenExpr:
		WalkExpr(e.E, f)
		WalkExpr(e.Lo, f)
		WalkExpr(e.Hi, f)
	case *InExpr:
		WalkExpr(e.E, f)
		for _, x := range e.List {
			WalkExpr(x, f)
		}
	case *LikeExpr:
		WalkExpr(e.E, f)
	case *IsNullExpr:
		WalkExpr(e.E, f)
	case *CaseExpr:
		for _, w := range e.Whens {
			WalkExpr(w.Cond, f)
			WalkExpr(w.Then, f)
		}
		WalkExpr(e.Else, f)
	case *CastExpr:
		WalkExpr(e.E, f)
	}
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
