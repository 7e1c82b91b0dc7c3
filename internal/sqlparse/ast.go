// Package sqlparse implements the SQL front-end: a lexer, an abstract
// syntax tree, and a recursive-descent parser for the HiveQL subset
// Shark's evaluation exercises — SELECT with joins, grouping, HAVING,
// ordering and limits; CREATE TABLE ... TBLPROPERTIES ... AS SELECT
// ... DISTRIBUTE BY (the memstore-caching and co-partitioning syntax
// of §2 and §3.4); external table DDL; DROP; and EXPLAIN.
package sqlparse

import (
	"fmt"
	"math"
	"strings"

	"shark/internal/row"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// SelectStmt is a query block.
type SelectStmt struct {
	Items        []SelectItem
	From         *TableRef // nil for SELECT <exprs> without FROM
	Joins        []JoinClause
	Where        Expr
	GroupBy      []Expr
	Having       Expr
	OrderBy      []OrderItem
	Limit        int64      // -1 = none
	LimitParam   *ParamExpr // `LIMIT ?` slot; Bind resolves it into Limit before plan.Analyze
	DistributeBy string
}

func (*SelectStmt) stmtNode() {}

// SelectItem is one projection: either * or an expression with an
// optional alias.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// TableRef names a base table or a derived subquery.
type TableRef struct {
	Name  string
	Alias string
	Sub   *SelectStmt // non-nil for (SELECT ...) alias
}

// Binding returns the name this ref is known by in scope.
func (t *TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one INNER JOIN with an ON condition.
type JoinClause struct {
	Ref *TableRef
	On  Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CreateTableStmt covers both CTAS and external table DDL.
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Props       map[string]string
	As          *SelectStmt // CTAS
	Cols        []ColumnDef // external definition
	Location    string
	Format      string // "TEXT" or "BINARY"
}

func (*CreateTableStmt) stmtNode() {}

// ColumnDef is a column in external table DDL.
type ColumnDef struct {
	Name string
	Type row.Type
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

func (*DropTableStmt) stmtNode() {}

// ExplainStmt wraps a statement for plan display. Analyze marks
// EXPLAIN ANALYZE: execute the statement and annotate the plan with
// measured per-node wall time, row counts and PDE decisions.
type ExplainStmt struct {
	Stmt    Statement
	Analyze bool
}

func (*ExplainStmt) stmtNode() {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is any expression AST node.
type Expr interface {
	exprNode()
	String() string
}

// Literal is a constant. Value follows the row package value model.
type Literal struct{ Value any }

func (*Literal) exprNode() {}

// String renders the literal.
func (l *Literal) String() string {
	switch v := l.Value.(type) {
	case string:
		return quoteSQLString(v)
	case float64:
		if v == 0 && math.Signbit(v) {
			return "-0.0" // "-0" reads back as the BIGINT 0
		}
	}
	return row.FormatValue(l.Value)
}

// ParamExpr is a `?` placeholder. Idx is the zero-based position of
// the placeholder in lexical order; Bind replaces it with a typed
// Literal before analysis, so plan/expr never see one.
type ParamExpr struct{ Idx int }

func (*ParamExpr) exprNode() {}

// String renders the placeholder.
func (*ParamExpr) String() string { return "?" }

// ColRef references a column, optionally qualified by table binding.
type ColRef struct{ Table, Name string }

func (*ColRef) exprNode() {}

// String renders the reference.
func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String names the operator.
func (o BinaryOp) String() string { return opNames[o] }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

func (*BinaryExpr) exprNode() {}

// String renders the expression.
func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// NotExpr is logical negation.
type NotExpr struct{ E Expr }

func (*NotExpr) exprNode() {}

// String renders the expression.
func (n *NotExpr) String() string { return "NOT " + n.E.String() }

// NegExpr is arithmetic negation.
type NegExpr struct{ E Expr }

func (*NegExpr) exprNode() {}

// String renders the expression.
func (n *NegExpr) String() string {
	s := n.E.String()
	if strings.HasPrefix(s, "-") {
		return "- " + s // "--" would open a comment
	}
	return "-" + s
}

// FuncCall is a scalar function, aggregate, or UDF call.
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (*FuncCall) exprNode() {}

// String renders the call.
func (f *FuncCall) String() string {
	if f.Star {
		return strings.ToUpper(f.Name) + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return strings.ToUpper(f.Name) + "(" + d + strings.Join(args, ", ") + ")"
}

// BetweenExpr is e BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) exprNode() {}

// String renders the expression.
func (b *BetweenExpr) String() string {
	n := ""
	if b.Not {
		n = "NOT "
	}
	return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", b.E, n, b.Lo, b.Hi)
}

// InExpr is e IN (list).
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

func (*InExpr) exprNode() {}

// String renders the expression.
func (i *InExpr) String() string {
	items := make([]string, len(i.List))
	for j, e := range i.List {
		items[j] = e.String()
	}
	n := ""
	if i.Not {
		n = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", i.E, n, strings.Join(items, ", "))
}

// LikeExpr is e LIKE 'pattern' with % and _ wildcards.
type LikeExpr struct {
	E       Expr
	Pattern string
	Not     bool
}

func (*LikeExpr) exprNode() {}

// String renders the expression.
func (l *LikeExpr) String() string {
	n := ""
	if l.Not {
		n = "NOT "
	}
	return fmt.Sprintf("(%s %sLIKE %s)", l.E, n, quoteSQLString(l.Pattern))
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*IsNullExpr) exprNode() {}

// String renders the expression.
func (i *IsNullExpr) String() string {
	if i.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// WhenClause is one CASE branch.
type WhenClause struct{ Cond, Then Expr }

// CaseExpr is searched CASE WHEN ... THEN ... ELSE ... END.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr
}

func (*CaseExpr) exprNode() {}

// String renders the expression.
func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// CastExpr is CAST(e AS type).
type CastExpr struct {
	E  Expr
	To row.Type
}

func (*CastExpr) exprNode() {}

// String renders the expression.
func (c *CastExpr) String() string {
	return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To)
}
