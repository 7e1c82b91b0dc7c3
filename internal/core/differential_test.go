package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"shark/internal/catalog"
	"shark/internal/cluster"
	"shark/internal/columnar"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/expr"
	"shark/internal/mr"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
	"shark/internal/sqlparse"
)

// The differential test for the cached-table scan path: a seeded
// generator of select / filter / project / group-by / HAVING / LIMIT
// statements over one table whose columns cover every column encoding, each
// statement executed under every configuration that changes how a
// cached scan runs and against the Hive/MapReduce baseline, and the
// results bag-compared. The typed batch kernels, the row adapter
// (DisableExprCompile sends every expression through it), the external
// table's text blocks parsed straight into columns (the DFS twin; the
// file's cells are text-hostile, see diffTextRow) and an independent
// executor (internal/mr, which boxes every line through DecodeText)
// must agree on every statement. A failure prints the seed and the SQL.

const (
	diffSeed    = 20131
	diffRows    = 2400
	diffQueries = 340 // generated, after diffFixed
	diffPostAgg = 90  // post-aggregation statements, generated after those
	diffGroupBy = 60  // exchange-heavy group-bys, generated after those
)

// diffSchema: one column per encoding the builder can choose, named
// for it. Every column but the dense key is ≥ 20 % NULL.
var diffSchema = row.Schema{
	{Name: "id", Type: row.TInt},       // dense, unique: bit-packed
	{Name: "i_raw", Type: row.TInt},    // wide range: raw
	{Name: "i_rle", Type: row.TInt},    // long runs: RLE
	{Name: "i_pack", Type: row.TInt},   // narrow range, many values: bit-packed
	{Name: "i_dict", Type: row.TInt},   // few values: dictionary
	{Name: "f_raw", Type: row.TFloat},  // raw
	{Name: "f_rle", Type: row.TFloat},  // long runs: RLE
	{Name: "s_raw", Type: row.TString}, // high cardinality: raw
	{Name: "s_dict", Type: row.TString},
	{Name: "b", Type: row.TBool},
	{Name: "d", Type: row.TDate},
	{Name: "allnull", Type: row.TInt},
}

var diffEncodings = map[string]string{
	"i_raw": "raw", "i_rle": "rle", "i_pack": "bitpack", "i_dict": "dict",
	"f_raw": "raw", "f_rle": "rle", "s_raw": "raw", "s_dict": "dict", "b": "bitmap",
}

var (
	diffDictInts = []int64{-3, 0, 7, 42, 1000000007}
	diffDictStrs = []string{"", "alpha", "beta", "Gamma", "delta%", "e_f"}
	diffBaseDay  = int64(10957) // 2000-01-01
)

func diffRowsData() []row.Row {
	rng := rand.New(rand.NewSource(diffSeed))
	maybe := func(v any) any {
		if rng.Intn(5) == 0 {
			return nil
		}
		return v
	}
	out := make([]row.Row, diffRows)
	for i := range out {
		// Run-length columns keep their runs only if NULLs come in
		// runs too: every fifth run is NULL.
		var rleI, rleF any
		if run := i / 64; run%5 != 0 {
			rleI, rleF = int64(run-20), float64(run)/2
		}
		f := rng.Float64() * 1000
		if rng.Intn(3) == 0 {
			f = float64(rng.Intn(50)) // integral, so int = float comparisons can hold
		}
		out[i] = row.Row{
			int64(i),
			maybe(rng.Int63n(2e10) - 1e10),
			rleI,
			maybe(int64(rng.Intn(1000)) - 60), // a non-zero bit-packing base
			maybe(diffDictInts[rng.Intn(len(diffDictInts))]),
			maybe(f),
			rleF,
			maybe(fmt.Sprintf("u%04d-%s", rng.Intn(3000), diffDictStrs[rng.Intn(len(diffDictStrs))])),
			maybe(diffDictStrs[rng.Intn(len(diffDictStrs))]),
			maybe(rng.Intn(2) == 0),
			maybe(diffBaseDay + int64(rng.Intn(30))),
			nil,
		}
	}
	return out
}

// diffHostile are suffixes of s_raw values the text format must
// escape, or that look like its NULL.
var diffHostile = []string{"", "|", `\`, "\n", `\N`, `a|b\c` + "\nd"}

// diffTextRow dresses row i for the DFS file every executor reads: its
// strings hold the separator, a backslash, a newline, the two
// characters \N, or nothing; some NULL numbers, dates and bools are
// spelled as empty fields; half the dates are written YYYY-MM-DD. Each
// cell still reads back as one value, so the row is the table's.
func diffTextRow(i int, r row.Row) row.Row {
	out := r.Clone()
	col := diffSchema.Index
	if s, ok := out[col("s_raw")].(string); ok {
		out[col("s_raw")] = s + diffHostile[i%len(diffHostile)]
	}
	if out[col("s_dict")] != nil && i%53 == 0 {
		out[col("s_dict")] = `\N`
	}
	for c, f := range diffSchema {
		if out[c] == nil && f.Type != row.TString && i%3 == 0 {
			out[c] = "" // an empty field: NULL
		}
	}
	if d, ok := out[col("d")].(int64); ok && i%2 == 0 {
		out[col("d")] = row.FormatDate(d)
	}
	return out
}

// ---------------------------------------------------------------------------
// Statement generator

type diffGen struct{ rng *rand.Rand }

func (g *diffGen) pick(options ...string) string { return options[g.rng.Intn(len(options))] }

func (g *diffGen) intCol() string {
	return g.pick("id", "i_raw", "i_rle", "i_pack", "i_dict", "i_dict", "allnull")
}
func (g *diffGen) floatCol() string { return g.pick("f_raw", "f_rle") }
func (g *diffGen) strCol() string   { return g.pick("s_raw", "s_dict") }

func (g *diffGen) intLit() string {
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprint(diffDictInts[g.rng.Intn(len(diffDictInts))])
	case 1:
		return fmt.Sprint(g.rng.Intn(1000))
	case 2:
		return fmt.Sprint(g.rng.Intn(60) - 25)
	}
	return fmt.Sprint(g.rng.Int63n(2e10) - 1e10)
}

func (g *diffGen) floatLit() string {
	if g.rng.Intn(2) == 0 {
		return fmt.Sprintf("%d.5", g.rng.Intn(40))
	}
	return fmt.Sprintf("%d.0", g.rng.Intn(40))
}

func (g *diffGen) strLit() string {
	if g.rng.Intn(2) == 0 {
		return "'" + diffDictStrs[g.rng.Intn(len(diffDictStrs))] + "'"
	}
	return fmt.Sprintf("'u%04d'", g.rng.Intn(3000))
}

func (g *diffGen) dateLit() string {
	return fmt.Sprintf("Date('2000-01-%02d')", 1+g.rng.Intn(30))
}

// The built-ins that have a vector form (expr.UDF.Vec), called with
// column, computed, literal and NULL arguments. The default executor
// runs them as kernels over typed vectors; every other executor runs
// their Fn row by row.

// substrCall covers SUBSTR's edge cases: start 0, negative, before the
// beginning and past the end; length absent, 0, negative and past the
// end; either of them a column, an expression or NULL.
func (g *diffGen) substrCall() string {
	s := g.pick("s_raw", "s_raw", "s_dict", "'10.20.30.40'")
	start := g.pick("0", "1", "2", "5", "-1", "-3", "-40", "40", "i_dict", "(i_pack % 7)", "((id % 9) - 4)", "NULL")
	if g.rng.Intn(3) == 0 {
		return fmt.Sprintf("SUBSTR(%s, %s)", s, start)
	}
	return fmt.Sprintf("SUBSTR(%s, %s, %s)", s, start, g.pick("0", "-1", "1", "3", "100", "i_dict", "(i_pack % 4)", "NULL"))
}

// intCall yields a BIGINT-valued call: string → int, date → int,
// int → int.
func (g *diffGen) intCall() string {
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("LENGTH(%s)", g.pick("s_raw", "s_dict", "'literal'", "NULL", g.substrCall()))
	case 1:
		return fmt.Sprintf("%s(%s)", g.pick("YEAR", "MONTH", "DAY"),
			g.pick("d", "d", "(d + i_pack)", "(d - (i_pack * 40))", g.dateLit(), "i_rle", "NULL"))
	}
	return fmt.Sprintf("ABS(%s)", g.pick("i_raw", "i_dict", "allnull", "(i_pack - 500)", "-17", g.intCol()))
}

// intExpr yields a BIGINT expression; % may divide by zero.
func (g *diffGen) intExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(5) == 0 {
			return g.intCall()
		}
		return g.intCol()
	}
	l := g.intExpr(depth - 1)
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, g.intLit())
	case 1:
		return fmt.Sprintf("(%s - %s)", l, g.intExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %d)", l, g.rng.Intn(7)-3)
	case 3:
		return fmt.Sprintf("(%s %% %s)", l, g.pick("i_dict", "7", "(i_pack - 500)"))
	}
	return "(-(" + l + "))"
}

// numExpr yields a numeric expression of either type; / is always
// DOUBLE and may divide by zero.
func (g *diffGen) numExpr(depth int) string {
	switch g.rng.Intn(7) {
	case 0:
		return g.floatCol()
	case 1:
		return fmt.Sprintf("(%s / %s)", g.intExpr(depth), g.pick("i_dict", "(i_dict - 7)", "4", g.floatCol()))
	case 2:
		return fmt.Sprintf("(%s %s %s)", g.floatCol(), g.pick("+", "-", "*"), g.intExpr(depth))
	case 3:
		return fmt.Sprintf("(%s + %s)", g.floatCol(), g.floatLit())
	case 4:
		return fmt.Sprintf("ABS(%s)", g.pick("f_raw", "f_rle", "(f_raw - 500.5)", "(i_dict / 4)", "-2.5"))
	}
	return g.intExpr(depth)
}

func (g *diffGen) strExpr() string {
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("SUBSTR(%s, %d, %d)", g.strCol(), 1+g.rng.Intn(3), 1+g.rng.Intn(4))
	case 3:
		return g.substrCall()
	case 1:
		return fmt.Sprintf("CASE WHEN %s THEN %s ELSE 'other' END", g.pred(1), g.strCol())
	case 2:
		return fmt.Sprintf("CAST(%s AS STRING)", g.intCol())
	}
	return g.strCol()
}

// projExpr yields any SELECT-list expression.
func (g *diffGen) projExpr() string {
	switch g.rng.Intn(8) {
	case 0:
		return g.strExpr()
	case 1:
		return fmt.Sprintf("CAST(%s AS DOUBLE)", g.intCol())
	case 2:
		return fmt.Sprintf("CAST(%s AS BIGINT)", g.floatCol())
	case 3:
		return fmt.Sprintf("CASE WHEN %s THEN %s WHEN %s THEN %s END", g.pred(1), g.intExpr(1), g.pred(1), g.intLit())
	case 4:
		return g.pick("b", "d", "allnull", "s_raw", "s_dict")
	}
	return g.numExpr(2)
}

func (g *diffGen) pred(depth int) string {
	if depth > 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("(%s AND %s)", g.pred(depth-1), g.pred(depth-1))
		case 1:
			return fmt.Sprintf("(%s OR %s)", g.pred(depth-1), g.pred(depth-1))
		case 2:
			return fmt.Sprintf("(NOT %s)", g.pred(depth-1))
		}
	}
	cmp := g.pick("=", "<>", "<", "<=", ">", ">=")
	switch g.rng.Intn(14) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.intCol(), cmp, g.intLit())
	case 1: // int column against a float literal: promoted, never truncated
		return fmt.Sprintf("(%s %s %s)", g.pick("i_pack", "i_dict", "i_rle", "id"), cmp, g.floatLit())
	case 2:
		return fmt.Sprintf("(%s %s %s)", g.floatCol(), cmp, g.pick(g.floatLit(), g.intLit(), "i_pack"))
	case 3:
		return fmt.Sprintf("(%s %s %s)", g.strCol(), cmp, g.strLit())
	case 4:
		return fmt.Sprintf("(d %s %s)", cmp, g.dateLit())
	case 5:
		col := g.pick("i_pack", "i_raw", "id", "f_raw", "i_rle")
		lo := g.rng.Intn(500)
		return fmt.Sprintf("(%s BETWEEN %d AND %d)", col, lo, lo+g.rng.Intn(500))
	case 6:
		not := g.pick("", "NOT ")
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("(%s %sIN (%s, %s, %s))", g.intCol(), not, g.intLit(), g.intLit(), g.pick("7", "7.0", "2.5"))
		}
		return fmt.Sprintf("(%s %sIN (%s, %s))", g.strCol(), not, g.strLit(), g.strLit())
	case 7:
		return fmt.Sprintf("(%s IS %sNULL)", g.pick("i_raw", "i_rle", "i_dict", "f_raw", "s_raw", "s_dict", "b", "d", "allnull"), g.pick("", "NOT "))
	case 8:
		return fmt.Sprintf("(%s %sLIKE '%s')", g.strCol(), g.pick("", "NOT "), g.pick("%a%", "u1%", "_e%", "%-beta", "Gamma", "%", "delta\\%"))
	case 9:
		return fmt.Sprintf("EVENISH(%s)", g.intCol())
	case 10:
		return g.pick("b", "(b = true)", "(b = false)")
	case 11:
		return fmt.Sprintf("(%s %s %s)", g.intCall(), cmp, g.pick("0", "1", "3", "6", "12", "2000", g.intLit()))
	case 12:
		call := g.substrCall()
		return g.pick(
			fmt.Sprintf("(%s %s %s)", call, cmp, g.pick("''", "'u'", "'u1'", "'a'", "'.20'", g.strLit())),
			fmt.Sprintf("(%s LIKE '%s')", call, g.pick("u%", "%a", "_", "%")),
			fmt.Sprintf("(%s IS %sNULL)", call, g.pick("", "NOT ")))
	}
	return fmt.Sprintf("(%s %s %s)", g.numExpr(1), cmp, g.numExpr(1))
}

func (g *diffGen) where() string {
	if g.rng.Intn(4) == 0 {
		return ""
	}
	return " WHERE " + g.pred(2)
}

func (g *diffGen) aggregate() string {
	switch g.rng.Intn(12) {
	case 0:
		return "COUNT(*)"
	case 1:
		return fmt.Sprintf("COUNT(%s)", g.pick("i_raw", "s_dict", "f_rle", "b", "allnull", g.numExpr(1)))
	case 2:
		return fmt.Sprintf("COUNT(DISTINCT %s)", g.pick("i_dict", "i_pack", "s_dict", "s_raw", "d", "f_rle", "SUBSTR(s_raw, 1, 3)", g.intCall()))
	case 3:
		return fmt.Sprintf("SUM(%s)", g.intExpr(1))
	case 4:
		return fmt.Sprintf("SUM(%s)", g.floatCol())
	case 5:
		return fmt.Sprintf("AVG(%s)", g.pick("i_pack", "i_dict", "id", "f_raw", "f_rle", "(f_raw + i_pack)"))
	case 6:
		return fmt.Sprintf("MIN(%s)", g.pick(g.intCol(), g.floatCol(), "d", g.numExpr(1)))
	case 7:
		return fmt.Sprintf("MAX(%s)", g.pick(g.intCol(), g.floatCol(), "d", g.numExpr(1)))
	case 8:
		return fmt.Sprintf("MIN(%s)", g.strCol())
	case 9:
		return fmt.Sprintf("MAX(%s)", g.strExpr())
	case 10:
		return "SUM(allnull)"
	}
	return fmt.Sprintf("AVG(%s)", g.numExpr(1))
}

// groupBy yields a group-by aimed at the partial-aggregate exchange:
// one group per row (id), composite keys over NULL-bearing columns, the
// all-NULL column alone and in composites, and MIN/MAX of strings and
// floats beside the other aggregates.
func (g *diffGen) groupBy() string {
	keys := [][]string{
		{"id"}, {"id", "s_dict"}, {"s_raw", "i_pack"}, {"f_raw", "b"}, {"d", "s_dict", "i_dict"},
		{"allnull"}, {"allnull", "s_dict"}, {"i_rle", "allnull", "f_rle"}, {"s_raw"}, {"f_raw"},
	}[g.rng.Intn(10)]
	items := append([]string(nil), keys...)
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		minMax := fmt.Sprintf("%s(%s)", g.pick("MIN", "MAX"), g.pick("s_raw", "s_dict", "f_raw", "f_rle", "SUBSTR(s_raw, 2, 4)", "(f_raw - i_pack)"))
		items = append(items, g.pick(minMax, minMax, g.aggregate()))
	}
	return "SELECT " + strings.Join(items, ", ") + " FROM t" + g.where() + " GROUP BY " + strings.Join(keys, ", ")
}

// statement yields the SQL and whether it carries a LIMIT (whose rows
// are an arbitrary subset of the unlimited result).
func (g *diffGen) statement() (sql string, limit int) {
	if g.rng.Intn(2) == 0 { // select / filter / project [/ LIMIT]
		n := 1 + g.rng.Intn(3)
		items := make([]string, n)
		for i := range items {
			items[i] = g.projExpr()
		}
		if g.rng.Intn(6) == 0 {
			items = []string{"*"}
		}
		sql = "SELECT " + strings.Join(items, ", ") + " FROM t" + g.where()
		if g.rng.Intn(4) == 0 {
			limit = 1 + g.rng.Intn(40)
			sql += fmt.Sprintf(" LIMIT %d", limit)
		}
		return sql, limit
	}
	var keys []string
	switch g.rng.Intn(9) {
	case 0: // global aggregate
	case 1, 2:
		keys = []string{g.pick("s_dict", "i_dict", "d")} // dictionary-encoded
	case 3:
		keys = []string{g.pick("s_raw", "i_pack", "i_raw", "id")} // high cardinality
	case 4:
		keys = []string{g.pick("b", "f_rle", "i_rle", "allnull")}
	case 5:
		keys = []string{g.pick("SUBSTR(s_raw, 1, 3)", "(i_pack % 10)", "(i_dict + 1)", "EVENISH(i_pack)")}
	case 6: // a function of a column, through its vector form
		keys = []string{g.pick(g.substrCall(), g.intCall(), "ABS(f_rle - 10.0)")}
	default:
		keys = []string{g.pick("s_dict", "i_dict", "b"), g.pick("d", "i_rle", "(i_pack % 4)", "SUBSTR(s_raw, 1, 2)", g.intCall(), g.substrCall())}
	}
	items := append([]string(nil), keys...)
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		items = append(items, g.aggregate())
	}
	sql = "SELECT " + strings.Join(items, ", ") + " FROM t" + g.where()
	if len(keys) > 0 {
		sql += " GROUP BY " + strings.Join(keys, ", ")
	}
	return sql, 0
}

// Post-aggregation statements: a SELECT list and a HAVING built from
// IN / NOT IN / LIKE / IS [NOT] NULL / BETWEEN / CASE / unary minus /
// comparisons over the group key, aggregates of every kind and
// literals — everything plan resolves against an Aggregate's output.
// Every executor shares that resolver and evaluates its result with
// expr's Eval, so comparing them with each other would find nothing;
// each expression is therefore generated twice, as SQL and as a Go
// function of the row the aggregation alone returns (postExpr), and the
// statement's reference is that function applied to the rows of
//
//	SELECT key, aggregates... FROM t [WHERE ...] GROUP BY key
//
// a statement of the kind the rest of this test checks. Predicates read
// only aggregates that are exact whatever order partial states merge
// in (counts, integer sums, MIN / MAX, sums and averages of f_rle's
// half-integers), so a comparison cannot flip on the last bit of a
// float; SUM(f_raw) and AVG(f_raw) appear as values only.

// postExpr is one post-aggregation expression: its SQL, and its value
// over a row of the aggregation's own output.
type postExpr struct {
	sql  string
	eval func(base row.Row) any
}

func postLit(sql string, v any) postExpr {
	return postExpr{sql, func(row.Row) any { return v }}
}

// The reference semantics, written out: a comparison with NULL is
// false, only true is true, NOT of anything else is true.

func postTruth(v any) bool { b, ok := v.(bool); return ok && b }

func postCompare(op string, a, b any) bool {
	if a == nil || b == nil {
		return false
	}
	c := row.Compare(a, b)
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}

// postLike matches s against a LIKE pattern (% any run, _ any one byte;
// the data is ASCII).
func postLike(s, pattern string) bool {
	if pattern == "" {
		return s == ""
	}
	switch pattern[0] {
	case '%':
		return postLike(s, pattern[1:]) || (s != "" && postLike(s[1:], pattern))
	case '_':
		return s != "" && postLike(s[1:], pattern[1:])
	}
	return s != "" && s[0] == pattern[0] && postLike(s[1:], pattern[1:])
}

func (g *diffGen) postKey() (key string, isStr bool) {
	if g.rng.Intn(2) == 0 {
		return g.pick("s_dict", "SUBSTR(s_raw, 1, 2)", "SUBSTR(s_dict, 1, 1)"), true
	}
	return g.pick("i_dict", "i_rle", "(i_pack % 10)", "LENGTH(s_dict)", "allnull"), false
}

func (g *diffGen) postNumAgg() string {
	return g.pick("COUNT(*)", "COUNT(s_raw)", "COUNT(allnull)", "COUNT(DISTINCT i_dict)", "COUNT(DISTINCT s_dict)",
		"SUM(i_pack)", "SUM(i_dict)", "SUM(allnull)", "SUM(f_rle)", "AVG(f_rle)", "AVG(i_pack)", "AVG(allnull)",
		"MIN(i_raw)", "MAX(i_dict)", "MIN(f_raw)", "MAX(f_rle)", "MAX(LENGTH(s_raw))")
}

func (g *diffGen) postStrAgg() string {
	return g.pick("MIN(s_raw)", "MAX(s_raw)", "MIN(s_dict)", "MAX(s_dict)", "MIN(SUBSTR(s_raw, 7))")
}

// postGen generates the expressions of one statement over its
// operands: the columns of the aggregation's own output.
type postGen struct {
	*diffGen
	base     []string   // the aggregation's select list: [key,] aggregates...
	key      *postExpr  // nil for a global aggregate
	num, str []postExpr // operands a predicate may read, by type (the key among them)
	inexact  postExpr   // SUM or AVG(f_raw): a value, never compared
}

// newPostGen picks the statement's group key (one time in eight, none:
// a global aggregate) and aggregates.
func (g *diffGen) newPostGen() *postGen {
	p := &postGen{diffGen: g}
	operand := func(sql string) postExpr {
		i := len(p.base)
		p.base = append(p.base, sql)
		return postExpr{sql, func(base row.Row) any { return base[i] }}
	}
	if g.rng.Intn(8) > 0 {
		sql, isStr := g.postKey()
		key := operand(sql)
		if p.key = &key; isStr {
			p.str = append(p.str, key)
		} else {
			p.num = append(p.num, key)
		}
	}
	for range 3 {
		p.num = append(p.num, operand(g.postNumAgg()))
	}
	for range 2 {
		p.str = append(p.str, operand(g.postStrAgg()))
	}
	p.inexact = operand(g.pick("SUM(f_raw)", "AVG(f_raw)"))
	return p
}

// value yields any operand.
func (p *postGen) value() postExpr {
	switch p.rng.Intn(5) {
	case 0:
		return p.inexact
	case 1, 2:
		return p.of(p.str)
	}
	return p.of(p.num)
}

func (p *postGen) of(xs []postExpr) postExpr { return xs[p.rng.Intn(len(xs))] }

func (p *postGen) numLit() postExpr {
	if p.rng.Intn(4) == 0 {
		f := float64(p.rng.Intn(16)) / 2 // 7.0 must equal an integer 7; 2.5 must not
		return postLit(fmt.Sprintf("%.1f", f), f)
	}
	n := []int64{0, 1, 2, 4, 5, 6, 7, 42, 64, -3, 1000000007, 300 + p.rng.Int63n(300)}[p.rng.Intn(12)]
	return postLit(fmt.Sprint(n), n)
}

func (p *postGen) strLit() postExpr {
	s := fmt.Sprintf("u%04d", p.rng.Intn(3000))
	if p.rng.Intn(3) > 0 {
		s = p.pick(append([]string{"u0", "a", "u1"}, diffDictStrs...)...)
	}
	return postLit("'"+s+"'", s)
}

func (p *postGen) pred(depth int) postExpr {
	if depth > 0 {
		l, r := p.pred(depth-1), p.pred(depth-1)
		switch p.rng.Intn(4) {
		case 0:
			return postExpr{"(" + l.sql + " AND " + r.sql + ")", func(b row.Row) any { return postTruth(l.eval(b)) && postTruth(r.eval(b)) }}
		case 1:
			return postExpr{"(" + l.sql + " OR " + r.sql + ")", func(b row.Row) any { return postTruth(l.eval(b)) || postTruth(r.eval(b)) }}
		case 2:
			return postExpr{"(NOT " + l.sql + ")", func(b row.Row) any { return !postTruth(l.eval(b)) }}
		}
	}
	not := p.rng.Intn(2) == 0
	word := map[bool]string{false: "", true: "NOT "}[not]
	num, str := p.of(p.num), p.of(p.str)
	switch p.rng.Intn(9) {
	case 8: // literals only: the planner folds it
		op, x, y := p.pick("=", "<>", "<", ">="), p.numLit(), p.numLit()
		return postExpr{fmt.Sprintf("(%s %s %s)", x.sql, op, y.sql), func(b row.Row) any { return postCompare(op, x.eval(b), y.eval(b)) }}
	case 0, 1: // a literal set, or — one member an operand — a list
		x, lit, other := num, p.numLit, p.num
		if p.rng.Intn(2) == 0 {
			x, lit, other = str, p.strLit, p.str
		}
		list := []postExpr{lit(), lit(), lit()}
		if p.rng.Intn(2) == 0 {
			list[2] = p.of(other)
		}
		return postExpr{fmt.Sprintf("(%s %sIN (%s, %s, %s))", x.sql, word, list[0].sql, list[1].sql, list[2].sql), func(b row.Row) any {
			v := x.eval(b)
			if v == nil {
				return false
			}
			for _, m := range list {
				if postCompare("=", v, m.eval(b)) {
					return !not
				}
			}
			return not
		}}
	case 2:
		pattern := p.pick("%a%", "u0%", "u1%", "_e%", "%-beta", "Gamma", "%", "a%", "u_", "")
		return postExpr{fmt.Sprintf("(%s %sLIKE '%s')", str.sql, word, pattern), func(b row.Row) any {
			s, ok := str.eval(b).(string)
			return ok && postLike(s, pattern) != not
		}}
	case 3:
		x := p.value()
		return postExpr{fmt.Sprintf("(%s IS %sNULL)", x.sql, word), func(b row.Row) any { return (x.eval(b) == nil) != not }}
	case 4:
		lo := p.rng.Int63n(400)
		hi := lo + p.rng.Int63n(600)
		return postExpr{fmt.Sprintf("(%s %sBETWEEN %d AND %d)", num.sql, word, lo, hi), func(b row.Row) any {
			v := num.eval(b)
			return (postCompare(">=", v, lo) && postCompare("<=", v, hi)) != not
		}}
	case 5:
		op, lit := p.pick("<", ">=", "="), p.numLit()
		return postExpr{fmt.Sprintf("(-%s %s %s)", num.sql, op, lit.sql), func(b row.Row) any {
			return postCompare(op, postNeg(num.eval(b)), lit.eval(b))
		}}
	case 6:
		op, y := p.pick("<", ">=", "=", "<>"), p.strLit()
		if p.rng.Intn(2) == 0 {
			y = p.of(p.str)
		}
		return postExpr{fmt.Sprintf("(%s %s %s)", str.sql, op, y.sql), func(b row.Row) any { return postCompare(op, str.eval(b), y.eval(b)) }}
	}
	op, y := p.pick("=", "<>", "<", "<=", ">", ">="), p.numLit()
	if p.rng.Intn(2) == 0 {
		y = p.of(p.num)
	}
	return postExpr{fmt.Sprintf("(%s %s %s)", num.sql, op, y.sql), func(b row.Row) any { return postCompare(op, num.eval(b), y.eval(b)) }}
}

func postNeg(v any) any {
	switch x := v.(type) {
	case int64:
		return -x
	case float64:
		return -x
	}
	return nil
}

func (p *postGen) item() postExpr {
	switch p.rng.Intn(6) {
	case 0: // CASE with an ELSE; the arms need not be of one numeric type
		when, then, els := p.pred(1), p.of(p.num), p.numLit()
		if p.rng.Intn(2) == 0 {
			then, els = p.of(p.str), p.of(p.str)
		}
		return postExpr{fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", when.sql, then.sql, els.sql), func(b row.Row) any {
			if postTruth(when.eval(b)) {
				return then.eval(b)
			}
			return els.eval(b)
		}}
	case 1: // two arms, no ELSE: NULL when neither holds
		w1, t1, w2, t2 := p.pred(0), p.of(p.num), p.pred(0), p.numLit()
		if p.rng.Intn(2) == 0 {
			t1, t2 = p.of(p.str), p.strLit()
		}
		return postExpr{fmt.Sprintf("CASE WHEN %s THEN %s WHEN %s THEN %s END", w1.sql, t1.sql, w2.sql, t2.sql), func(b row.Row) any {
			if postTruth(w1.eval(b)) {
				return t1.eval(b)
			}
			if postTruth(w2.eval(b)) {
				return t2.eval(b)
			}
			return nil
		}}
	case 2:
		x := p.of(p.num)
		if p.rng.Intn(4) == 0 {
			x = p.inexact
		}
		return postExpr{"-" + x.sql, func(b row.Row) any { return postNeg(x.eval(b)) }}
	case 3:
		return p.pred(1) // a boolean column
	}
	return p.value()
}

// postAggStatement yields a statement whose SELECT list and HAVING are
// post-aggregation expressions, the aggregation it is built on, and the
// function from that aggregation's rows to the rows the statement must
// return.
func (g *diffGen) postAggStatement() (sql, baseSQL string, expect func(base []row.Row) []row.Row) {
	p := g.newPostGen()
	var items []postExpr
	if p.key != nil {
		items = append(items, *p.key)
	}
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		items = append(items, p.item())
	}
	var having *postExpr
	if g.rng.Intn(5) > 0 {
		h := p.pred(1)
		having = &h
	}
	from := " FROM t" + g.where()
	if p.key != nil {
		from += " GROUP BY " + p.key.sql
	}
	list := make([]string, len(items))
	for i, it := range items {
		list[i] = it.sql
	}
	sql = "SELECT " + strings.Join(list, ", ") + from
	if having != nil {
		sql += " HAVING " + having.sql
	}
	return sql, "SELECT " + strings.Join(p.base, ", ") + from, func(base []row.Row) []row.Row {
		var out []row.Row
		for _, b := range base {
			if having != nil && !postTruth(having.eval(b)) {
				continue
			}
			r := make(row.Row, len(items))
			for i, it := range items {
				r[i] = it.eval(b)
			}
			out = append(out, r)
		}
		return out
	}
}

// diffFixed are statements every run includes ahead of the generated
// ones: corners the generator reaches only rarely.
var diffFixed = []string{
	`SELECT id, SUBSTR(s_raw, 40, NULL), SUBSTR(s_raw, 2, NULL), SUBSTR(s_raw, 0, -1), SUBSTR(s_dict, -40, 2), SUBSTR(s_raw, -3), SUBSTR(s_dict, 3, 0) FROM t`,
	`SELECT id, SUBSTR('10.20.30.40', i_dict, i_pack % 5), SUBSTR(s_raw, id % 12 - 6, id % 5 - 1), LENGTH(SUBSTR(s_raw, 7)) FROM t`,
	`SELECT id, YEAR(d - id * 3), MONTH(d + id), DAY(d + id), ABS(i_raw), ABS(f_raw - 500.0), ABS(i_pack) FROM t`,
	`SELECT SUBSTR(s_raw, 1, 2), COUNT(*), SUM(f_raw), MIN(SUBSTR(s_raw, 3)), MAX(LENGTH(s_dict)) FROM t GROUP BY SUBSTR(s_raw, 1, 2)`,
	`SELECT MONTH(d + id), COUNT(*), COUNT(DISTINCT DAY(d + id)) FROM t WHERE LENGTH(s_raw) > 9 OR ABS(i_dict) = 3 GROUP BY MONTH(d + id)`,
	`SELECT i_pack, COUNT(*) FROM t WHERE i_pack < 0 OR i_pack > 900 GROUP BY i_pack`,
	// Post-aggregation shapes the planner used to refuse.
	`SELECT i_dict, SUM(f_raw) FROM t GROUP BY i_dict HAVING SUM(f_raw) IS NOT NULL`,
	`SELECT i_dict, COUNT(*) FROM t GROUP BY i_dict HAVING i_dict IN (7, 42)`,
	`SELECT i_rle, COUNT(*) FROM t GROUP BY i_rle HAVING COUNT(i_dict) NOT IN (50, 51, 52)`,
	`SELECT s_dict, COUNT(*) FROM t GROUP BY s_dict HAVING s_dict LIKE 'a%'`,
	`SELECT i_rle, MIN(s_raw) FROM t GROUP BY i_rle HAVING MIN(s_raw) LIKE 'u00%'`,
	`SELECT i_dict, CASE WHEN SUM(allnull) IS NULL THEN 0.0 ELSE SUM(allnull) END, -COUNT(*), i_dict IN (0, MAX(i_dict)) FROM t GROUP BY i_dict`,
	// One group per row but the NULL key's: reduce tables sized from
	// the map side's record counts.
	`SELECT i_raw, COUNT(*), AVG(f_raw), COUNT(DISTINCT s_dict), SUM(i_pack) FROM t GROUP BY i_raw`,
	`SELECT s_raw, AVG(i_pack), COUNT(DISTINCT i_dict), MAX(f_rle) FROM t GROUP BY s_raw`,
}

// ---------------------------------------------------------------------------
// Executors

// diffExecutor runs one statement somewhere and returns its rows;
// done, when set, checks the executor did what it is there for once
// every statement has run. grouped executors run only GROUP BY
// statements: they differ from the rest only in how they shuffle.
type diffExecutor struct {
	name    string
	run     func(sql string) ([]row.Row, error)
	done    func() error
	grouped bool
}

func evenish(args []any) any {
	x, ok := args[0].(int64)
	if !ok {
		return nil
	}
	return x%2 == 0
}

func diffExecutors(t *testing.T) []diffExecutor {
	cl := cluster.New(cluster.Config{Workers: 3, Slots: 2, WorkerDiskBytes: -1}) // zero Profile: no simulated launch sleeps
	t.Cleanup(cl.Close)
	svc := shuffle.NewService(cl, shuffle.Memory, t.TempDir())
	fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := rdd.NewContext(cl, svc, rdd.Options{})
	// A second cluster whose shuffle budget holds almost nothing, so
	// partial-aggregate blocks spill through their codec and are read
	// back from disk.
	spillCl := cluster.New(cluster.Config{Workers: 3, Slots: 2, WorkerDiskBytes: -1, WorkerShuffleBytes: 2 << 10})
	t.Cleanup(spillCl.Close)
	spillSvc := shuffle.NewService(spillCl, shuffle.Memory, t.TempDir())
	spillCtx := rdd.NewContext(spillCl, spillSvc, rdd.Options{})

	const file = "data/diff/src"
	w, err := fs.Create(file, dfs.Text, diffSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range diffRowsData() {
		if err := w.Write(diffTextRow(i, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// session builds a private-catalog session whose table t is the
	// source cached at level, or the DFS file itself when level is "".
	session := func(ctx *rdd.Context, name, level string, opts exec.Options) *Session {
		s := NewSessionNamed(ctx, fs, catalog.New(), name, opts)
		t.Cleanup(s.Close)
		if err := s.RegisterUDF("EVENISH", row.TBool, 1, 1, evenish); err != nil {
			t.Fatal(err)
		}
		target := "src"
		if level == "" {
			target = "t"
		}
		if err := s.RegisterExternal(target, file, diffSchema); err != nil {
			t.Fatal(err)
		}
		if level != "" {
			if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE t TBLPROPERTIES ("shark.cache"=%q) AS SELECT * FROM src`, level)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	onCtx := func(ctx *rdd.Context, name, level string, opts exec.Options) diffExecutor {
		s := session(ctx, name, level, opts)
		if name == "default" {
			checkDiffEncodings(t, s)
		}
		return diffExecutor{name: name, run: func(sql string) ([]row.Row, error) {
			res, err := s.Exec(sql)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}}
	}
	on := func(name, level string, opts exec.Options) diffExecutor { return onCtx(ctx, name, level, opts) }
	diskCtx := diskShuffleCtx(t)
	grouped := func(ex diffExecutor) diffExecutor { ex.grouped = true; return ex }
	spilled := onCtx(spillCtx, "spilled-shuffle", "MEMORY_ONLY", exec.Options{})
	spilled.done = func() error {
		if spillSvc.Metrics().SpilledReads.Load() == 0 {
			return fmt.Errorf("no shuffle bucket was read back from disk")
		}
		return nil
	}

	// The oracle: Hive on MapReduce over the DFS file, on a catalog of
	// its own that knows the table only as that file.
	hiveCat := catalog.New()
	meta, err := fs.Stat(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := hiveCat.Register(&catalog.Table{Name: "t", Schema: diffSchema, File: file, Format: dfs.Text, EstRows: meta.TotalRows()}); err != nil {
		t.Fatal(err)
	}
	if err := hiveCat.RegisterUDF(&expr.UDF{Name: "EVENISH", Ret: row.TBool, MinArgs: 1, MaxArgs: 1, RetFromArg: -1, Fn: evenish}); err != nil {
		t.Fatal(err)
	}
	hive := mr.NewHive(mr.NewEngine(cl, fs, filepath.Join(t.TempDir(), "mrshuffle")), mr.HiveOptions{})

	return []diffExecutor{
		on("default", "MEMORY_ONLY", exec.Options{}),
		on("interpreted", "MEMORY_ONLY", exec.Options{DisableExprCompile: true}),
		on("unpruned", "MEMORY_ONLY", exec.Options{DisablePruning: true}),
		on("disk-only", "DISK_ONLY", exec.Options{}),
		on("dfs-twin", "", exec.Options{}),
		on("static", "MEMORY_ONLY", exec.Options{DisableAdaptiveExec: true}),
		grouped(onCtx(diskCtx, "disk-shuffle", "MEMORY_ONLY", exec.Options{})),
		grouped(onCtx(diskCtx, "disk-shuffle/static", "MEMORY_ONLY", exec.Options{DisableAdaptiveExec: true})),
		spilled,
		{name: "hive", run: func(sql string) ([]row.Row, error) {
			st, err := sqlparse.Parse(sql)
			if err != nil {
				return nil, err
			}
			p, err := plan.Analyze(hiveCat, st.(*sqlparse.SelectStmt))
			if err != nil {
				return nil, err
			}
			res, err := hive.Run(p)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}},
	}
}

// diskShuffleCtx is a context on a cluster of its own whose shuffles
// write their buckets to files, as Hadoop's do: two slots, so eight
// fine buckets, a file each per map task.
func diskShuffleCtx(t *testing.T) *rdd.Context {
	cl := cluster.New(cluster.Config{Workers: 2, Slots: 1, WorkerDiskBytes: -1})
	t.Cleanup(cl.Close)
	return rdd.NewContext(cl, shuffle.NewService(cl, shuffle.Disk, t.TempDir()), rdd.Options{})
}

// checkDiffEncodings asserts the table really exercises every
// encoding: each column is encoded as its name says in every
// partition, and partitions span more than one batch.
func checkDiffEncodings(t *testing.T, s *Session) {
	t.Helper()
	tbl, err := s.Cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := tbl.Mem.ScanPartitions("encodings", nil, func(_ *rdd.TaskContext, p *columnar.Partition) rdd.Iter {
		return rdd.SliceIter([]any{p})
	}).CollectCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, v := range parts {
		p := v.(*columnar.Partition)
		largest = max(largest, p.N)
		for c, f := range diffSchema {
			if want, ok := diffEncodings[f.Name]; ok && p.Cols[c].Encoding() != want {
				t.Errorf("column %s is %s-encoded, want %s", f.Name, p.Cols[c].Encoding(), want)
			}
			if p.Cols[c].Type() != f.Type {
				t.Errorf("column %s has type %v, want %v", f.Name, p.Cols[c].Type(), f.Type)
			}
		}
	}
	if largest <= columnar.BatchSize {
		t.Errorf("the largest partition has %d rows: none spans two batches of %d", largest, columnar.BatchSize)
	}
}

// ---------------------------------------------------------------------------
// Comparison

func diffClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func diffSameValue(a, b any) bool {
	_, af := a.(float64)
	_, bf := b.(float64)
	if af || bf {
		x, ok1 := row.AsFloat(a)
		y, ok2 := row.AsFloat(b)
		return ok1 && ok2 && diffClose(x, y)
	}
	return row.Equal(a, b)
}

// diffSorted orders rows by their non-float columns, then floats, so
// rows whose floats differ in the last bits still line up pairwise.
func diffSorted(rows []row.Row) []row.Row {
	out := append([]row.Row(nil), rows...)
	cmp := func(x, y row.Row, floats bool) int {
		for j := 0; j < len(x) && j < len(y); j++ {
			_, xf := x[j].(float64)
			_, yf := y[j].(float64)
			if (xf || yf) != floats {
				continue
			}
			if x[j] == nil || y[j] == nil {
				if (x[j] == nil) != (y[j] == nil) {
					if x[j] == nil {
						return -1
					}
					return 1
				}
				continue
			}
			if row.TypeOf(x[j]) != row.TypeOf(y[j]) && !(row.TypeOf(x[j]).Numeric() && row.TypeOf(y[j]).Numeric()) {
				return int(row.TypeOf(x[j])) - int(row.TypeOf(y[j]))
			}
			if c := row.Compare(x[j], y[j]); c != 0 {
				return c
			}
		}
		return 0
	}
	sort.SliceStable(out, func(i, j int) bool {
		if c := cmp(out[i], out[j], false); c != 0 {
			return c < 0
		}
		return cmp(out[i], out[j], true) < 0
	})
	return out
}

func diffSameRow(a, b row.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if !diffSameValue(a[j], b[j]) {
			return false
		}
	}
	return true
}

// diffSameBag compares got with a reference already in diffSorted
// order.
func diffSameBag(got, sortedWant []row.Row) error {
	if len(got) != len(sortedWant) {
		return fmt.Errorf("%d rows, want %d", len(got), len(sortedWant))
	}
	for i, r := range diffSorted(got) {
		if !diffSameRow(r, sortedWant[i]) {
			return fmt.Errorf("sorted row %d: %v, want %v", i, r, sortedWant[i])
		}
	}
	return nil
}

// diffSubBag checks a LIMIT result: n rows (or all, if fewer exist),
// each drawn from the unlimited result without replacement.
func diffSubBag(got, full []row.Row, limit int) error {
	if want := min(limit, len(full)); len(got) != want {
		return fmt.Errorf("%d rows, want %d (LIMIT %d of %d)", len(got), want, limit, len(full))
	}
	used := make([]bool, len(full))
next:
	for _, r := range got {
		for k, f := range full {
			if !used[k] && diffSameRow(r, f) {
				used[k] = true
				continue next
			}
		}
		return fmt.Errorf("row %v is not in the unlimited result", r)
	}
	return nil
}

func TestDifferentialCachedScan(t *testing.T) {
	execs := diffExecutors(t)
	g := &diffGen{rng: rand.New(rand.NewSource(diffSeed))}
	type query struct {
		sql, unlimited string
		limit          int
		// expect, when set, maps the rows of unlimited to the rows sql
		// must return (post-aggregation statements); otherwise they are
		// those rows themselves, or for a LIMIT any limit of them.
		expect func([]row.Row) []row.Row
	}
	queries := make([]query, 0, len(diffFixed)+diffQueries+diffPostAgg+diffGroupBy)
	for _, sql := range diffFixed {
		queries = append(queries, query{sql: sql, unlimited: sql})
	}
	for range diffQueries {
		sql, limit := g.statement()
		q := query{sql: sql, unlimited: sql, limit: limit}
		if limit > 0 {
			q.unlimited = sql[:strings.LastIndex(sql, " LIMIT ")]
		}
		queries = append(queries, q)
	}
	// After the rest, so the statements above are the ones this seed has
	// always generated.
	for range diffPostAgg {
		sql, base, expect := g.postAggStatement()
		queries = append(queries, query{sql: sql, unlimited: base, expect: expect})
	}
	for range diffGroupBy {
		sql := g.groupBy()
		queries = append(queries, query{sql: sql, unlimited: sql})
	}

	// Reference results: the default configuration, without LIMIT.
	want := make([][]row.Row, len(queries))
	for i, q := range queries {
		rows, err := execs[0].run(q.unlimited)
		if err != nil {
			t.Fatalf("seed %d query %d on %s: %v\n%s", diffSeed, i, execs[0].name, err, q.unlimited)
		}
		if q.expect != nil {
			rows = q.expect(rows)
		}
		want[i] = diffSorted(rows)
	}

	var wg sync.WaitGroup
	for _, ex := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				if ex.name == "default" && q.limit == 0 && q.expect == nil || ex.grouped && !strings.Contains(q.sql, "GROUP BY") {
					continue // the reference itself, or a statement that shuffles no groups
				}
				got, err := ex.run(q.sql)
				if err == nil && q.limit > 0 {
					err = diffSubBag(got, want[i], q.limit)
				} else if err == nil {
					err = diffSameBag(got, want[i])
				}
				if err != nil {
					t.Errorf("seed %d query %d: %s disagrees with %s: %v\n%s", diffSeed, i, ex.name, execs[0].name, err, q.sql)
				}
			}
			if ex.done != nil {
				if err := ex.done(); err != nil {
					t.Errorf("%s: %v", ex.name, err)
				}
			}
		}()
	}
	wg.Wait()
}
