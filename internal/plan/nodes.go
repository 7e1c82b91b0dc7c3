// Package plan implements the logical query planner: analysis of
// parsed SQL into a typed operator tree, rule-based optimization
// (predicate pushdown into scans, column pruning, constant folding,
// LIMIT pushdown) and extraction of the partition-pruning predicates
// used by the memstore (§2.4, §3.5).
package plan

import (
	"fmt"
	"strings"

	"shark/internal/catalog"
	"shark/internal/expr"
	"shark/internal/memtable"
	"shark/internal/row"
)

// Node is a logical plan operator.
type Node interface {
	// Schema describes the node's output columns.
	Schema() row.Schema
	// Children returns input operators.
	Children() []Node
	// String renders one line for EXPLAIN.
	String() string
}

// Scan reads a catalog table, emitting only NeededCols (column pruning
// happens at analysis time). Filters are the conjuncts pushed down to
// the scan; Pruning is their partition-statistics form.
type Scan struct {
	Table   *catalog.Table
	Binding string
	// NeededCols indexes into the table schema; the scan emits them
	// in this order.
	NeededCols []int
	// Filters are evaluated against the projected scan schema.
	Filters []expr.Expr
	// Pruning predicates refer to NeededCols positions.
	Pruning []memtable.ColPredicate

	schema row.Schema
}

// Schema implements Node.
func (s *Scan) Schema() row.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// String implements Node.
func (s *Scan) String() string {
	src := "dfs"
	if s.Table.Cached() {
		src = "mem"
	}
	var f string
	if len(s.Filters) > 0 {
		parts := make([]string, len(s.Filters))
		for i, e := range s.Filters {
			parts[i] = e.String()
		}
		f = " filters=[" + strings.Join(parts, " AND ") + "]"
	}
	return fmt.Sprintf("Scan(%s:%s cols=%v%s)", s.Table.Name, src, s.NeededCols, f)
}

// EstBytes estimates the scan's output volume for the static join
// optimizer (which, per §3.1.1, has no idea about filter/UDF
// selectivity — that is PDE's job).
func (s *Scan) EstBytes() int64 {
	if s.Table.Cached() {
		return s.Table.Mem.TotalBytes()
	}
	if s.Table.EstRows > 0 {
		return s.Table.EstRows * 64
	}
	return 1 << 30 // unknown: assume big
}

// Filter keeps rows satisfying Cond.
type Filter struct {
	Cond  expr.Expr
	Child Node
}

// Schema implements Node.
func (f *Filter) Schema() row.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// String implements Node.
func (f *Filter) String() string { return fmt.Sprintf("Filter(%s)", f.Cond) }

// Project computes named expressions.
type Project struct {
	Names []string
	Exprs []expr.Expr
	Child Node

	schema row.Schema
}

// NewProject builds a Project with its output schema.
func NewProject(names []string, exprs []expr.Expr, child Node) *Project {
	sch := make(row.Schema, len(exprs))
	for i := range exprs {
		sch[i] = row.Field{Name: names[i], Type: exprs[i].Type()}
	}
	return &Project{Names: names, Exprs: exprs, Child: child, schema: sch}
}

// Schema implements Node.
func (p *Project) Schema() row.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// String implements Node.
func (p *Project) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = fmt.Sprintf("%s AS %s", e, p.Names[i])
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggCountDistinct
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggKind]string{
	AggCount: "COUNT", AggCountDistinct: "COUNT(DISTINCT)", AggSum: "SUM",
	AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

// String names the aggregate.
func (k AggKind) String() string { return aggNames[k] }

// AggSpec is one aggregate computation.
type AggSpec struct {
	Kind AggKind
	// Arg is nil for COUNT(*).
	Arg expr.Expr
	// Out is the result type.
	Out row.Type
}

// Aggregate groups by GroupBy and computes Aggs. Output schema is
// group columns followed by aggregate columns.
type Aggregate struct {
	GroupBy    []expr.Expr
	GroupNames []string
	Aggs       []AggSpec
	Child      Node

	schema row.Schema
}

// NewAggregate builds an Aggregate with its output schema.
func NewAggregate(groupBy []expr.Expr, groupNames []string, aggs []AggSpec, child Node) *Aggregate {
	sch := make(row.Schema, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		sch = append(sch, row.Field{Name: groupNames[i], Type: g.Type()})
	}
	for i, a := range aggs {
		sch = append(sch, row.Field{Name: fmt.Sprintf("agg%d", i), Type: a.Out})
	}
	return &Aggregate{GroupBy: groupBy, GroupNames: groupNames, Aggs: aggs, Child: child, schema: sch}
}

// Schema implements Node.
func (a *Aggregate) Schema() row.Schema { return a.schema }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// String implements Node.
func (a *Aggregate) String() string {
	groups := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groups[i] = g.String()
	}
	aggs := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		if s.Arg != nil {
			aggs[i] = fmt.Sprintf("%s(%s)", s.Kind, s.Arg)
		} else {
			aggs[i] = fmt.Sprintf("%s(*)", s.Kind)
		}
	}
	return fmt.Sprintf("Aggregate(by=[%s] aggs=[%s])", strings.Join(groups, ", "), strings.Join(aggs, ", "))
}

// Join is an inner equi-join; keys are evaluated against the
// respective child schemas. Output schema is left ++ right.
type Join struct {
	Left, Right       Node
	LeftKey, RightKey expr.Expr

	schema row.Schema
}

// NewJoin builds a Join with its output schema.
func NewJoin(left, right Node, lk, rk expr.Expr) *Join {
	sch := append(left.Schema().Clone(), right.Schema().Clone()...)
	return &Join{Left: left, Right: right, LeftKey: lk, RightKey: rk, schema: sch}
}

// Schema implements Node.
func (j *Join) Schema() row.Schema { return j.schema }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// String implements Node.
func (j *Join) String() string {
	return fmt.Sprintf("Join(%s = %s)", j.LeftKey, j.RightKey)
}

// SortKey is one ORDER BY key over the child's output columns.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort orders rows by Keys.
type Sort struct {
	Keys  []SortKey
	Child Node
}

// Schema implements Node.
func (s *Sort) Schema() row.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// String implements Node.
func (s *Sort) String() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		d := "ASC"
		if k.Desc {
			d = "DESC"
		}
		parts[i] = fmt.Sprintf("%s %s", k.Expr, d)
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// Limit keeps the first N rows.
type Limit struct {
	N     int64
	Child Node
}

// Schema implements Node.
func (l *Limit) Schema() row.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// String implements Node.
func (l *Limit) String() string { return fmt.Sprintf("Limit(%d)", l.N) }

// OneRow produces a single empty row (SELECT without FROM).
type OneRow struct{}

// Schema implements Node.
func (OneRow) Schema() row.Schema { return row.Schema{} }

// Children implements Node.
func (OneRow) Children() []Node { return nil }

// String implements Node.
func (OneRow) String() string { return "OneRow" }

// Explain renders a plan tree.
func Explain(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(cur Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(cur.String())
		b.WriteByte('\n')
		for _, c := range cur.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
