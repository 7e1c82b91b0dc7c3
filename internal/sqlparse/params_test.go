package sqlparse

import (
	"strings"
	"testing"

	"shark/internal/row"
)

func TestParseParams(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE b = ? AND c IN (?, ?) LIMIT 5")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n := NumParams(stmt); n != 3 {
		t.Fatalf("NumParams = %d, want 3", n)
	}
	sel := stmt.(*SelectStmt)
	if got := sel.Where.String(); !strings.Contains(got, "?") {
		t.Fatalf("where should render placeholders, got %s", got)
	}
}

func TestBindSubstitutesTypedValues(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE b = ? AND c > ? AND d = ?")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	args := row.Row{"it's -- not\\a comment", int64(7), true}
	bound, err := Bind(stmt, args)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	where := bound.(*SelectStmt).Where.String()
	verbatim := false
	WalkExpr(bound.(*SelectStmt).Where, func(x Expr) bool {
		if l, ok := x.(*Literal); ok && l.Value == args[0] {
			verbatim = true
		}
		return true
	})
	if !verbatim || !strings.Contains(where, quoteSQLString(args[0].(string))) {
		t.Fatalf("string arg not carried verbatim: %s", where)
	}
	if !strings.Contains(where, "7") || !strings.Contains(where, "true") {
		t.Fatalf("typed args missing from bound statement: %s", where)
	}
	// The original must be reusable: still parameterized.
	if n := NumParams(stmt); n != 3 {
		t.Fatalf("original statement mutated by Bind: NumParams=%d", n)
	}
	if n := NumParams(bound); n != 0 {
		t.Fatalf("bound statement still has %d params", n)
	}
	// Binding again with different args works off the same AST.
	bound2, err := Bind(stmt, row.Row{"x", int64(1), false})
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if bound2.(*SelectStmt).Where.String() == where {
		t.Fatal("second bind produced identical literals")
	}
}

func TestBindParamsInSubqueryAndCTAS(t *testing.T) {
	stmt, err := Parse("SELECT x FROM (SELECT a AS x FROM t WHERE a > ?) s WHERE x < ?")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n := NumParams(stmt); n != 2 {
		t.Fatalf("NumParams = %d, want 2", n)
	}
	if _, err := Bind(stmt, row.Row{int64(1), int64(10)}); err != nil {
		t.Fatalf("bind: %v", err)
	}

	ctas, err := Parse("CREATE TABLE c AS SELECT a FROM t WHERE a = ?")
	if err != nil {
		t.Fatalf("parse ctas: %v", err)
	}
	if n := NumParams(ctas); n != 1 {
		t.Fatalf("ctas NumParams = %d, want 1", n)
	}
}

func TestBindErrors(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE b = ?")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Bind(stmt, nil); err == nil {
		t.Fatal("want arg-count error for 0 args")
	}
	if _, err := Bind(stmt, row.Row{int64(1), int64(2)}); err == nil {
		t.Fatal("want arg-count error for 2 args")
	}
	if _, err := Bind(stmt, row.Row{[]byte("raw")}); err == nil {
		t.Fatal("want type error for non-model value")
	}
}

func TestNormalize(t *testing.T) {
	a := Normalize("select  a,b from T -- trailing comment\n where x='it''s'")
	b := Normalize("SELECT a , b FROM t WHERE x = 'it''s'")
	if a != b {
		t.Fatalf("normalize mismatch:\n  %q\n  %q", a, b)
	}
	if !strings.Contains(a, "'it''s'") {
		t.Fatalf("string literal not re-quoted stably: %q", a)
	}
	// Placeholders survive normalization (they are the cache-key slots).
	p := Normalize("SELECT a FROM t WHERE b = ?")
	if !strings.Contains(p, "?") {
		t.Fatalf("placeholder lost: %q", p)
	}
	// Different literals produce different keys.
	if Normalize("SELECT 1") == Normalize("SELECT 2") {
		t.Fatal("distinct literals normalized identically")
	}
	// Unlexable text falls back to verbatim.
	if got := Normalize("SELECT $bogus"); got != "SELECT $bogus" {
		t.Fatalf("fallback = %q", got)
	}
	// Backslashes in strings stay stable across a re-normalize.
	s := Normalize(`SELECT 'a\\b'`)
	if Normalize(s) != s {
		t.Fatalf("normalize not idempotent for escapes: %q -> %q", s, Normalize(s))
	}
}

// TestBindLimitParam: `LIMIT ?` is a parameter slot like any other —
// counted in lexical order, resolved by Bind into SelectStmt.Limit —
// and takes only a non-negative int64.
func TestBindLimitParam(t *testing.T) {
	stmt, err := Parse("SELECT x FROM (SELECT a AS x FROM t WHERE a > ? LIMIT ?) s WHERE x < ? LIMIT ?")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n := NumParams(stmt); n != 4 {
		t.Fatalf("NumParams = %d, want 4", n)
	}
	bound, err := Bind(stmt, row.Row{int64(1), int64(20), int64(10), int64(0)})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	outer := bound.(*SelectStmt)
	if inner := outer.From.Sub; outer.Limit != 0 || inner.Limit != 20 || outer.LimitParam != nil || inner.LimitParam != nil {
		t.Fatalf("limits = outer %d / inner %d, want 0 / 20 with no slots left", outer.Limit, inner.Limit)
	}
	if n := NumParams(bound); n != 0 {
		t.Fatalf("bound statement still has %d params", n)
	}
	if sel := stmt.(*SelectStmt); sel.LimitParam == nil || sel.Limit != -1 {
		t.Fatal("original statement mutated by Bind")
	}

	one, err := Parse("SELECT a FROM t LIMIT ?")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, bad := range []row.Row{
		{int64(-1)}, {2.0}, {"1; DROP TABLE t"}, {"3"}, {nil}, {true}, {}, {int64(1), int64(2)},
	} {
		if _, err := Bind(one, bad); err == nil {
			t.Errorf("Bind(LIMIT ?, %v) succeeded, want an error", bad)
		}
	}
	for _, src := range []string{"SELECT a FROM t LIMIT", "SELECT a FROM t LIMIT 'x'", "SELECT a FROM t LIMIT ? ?"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want an error", src)
		}
	}
}

// FuzzBind: for any statement text and argument values, Parse+Bind
// never panics and yields either an error or a tree with no parameter
// slot left for the planner to trip over — none that NumParams counts,
// none that a walk of the bound tree meets — and the statement it was
// given unchanged.
func FuzzBind(f *testing.F) {
	f.Add("SELECT a FROM t WHERE b = ? LIMIT ?", int64(3), "x", 1.5)
	f.Add("SELECT a FROM t LIMIT ?", int64(-1), "1; DROP TABLE t", 0.0)
	f.Add("SELECT x FROM (SELECT a AS x FROM t LIMIT ?) s WHERE x IN (?, ?)", int64(0), "", -2.5)
	f.Add("EXPLAIN SELECT CASE WHEN a > ? THEN ? END FROM t ORDER BY a LIMIT ?", int64(1), "y", 2.0)
	f.Add("CREATE TABLE c AS SELECT a FROM t WHERE a BETWEEN ? AND ? LIMIT ?", int64(9), "z", 3.0)
	f.Add("SELECT -a, COUNT(?) FROM t JOIN (SELECT b FROM u WHERE b LIKE 'x%' AND c IS NOT NULL) s ON t.a = s.b GROUP BY a HAVING SUM(a) > ? ORDER BY 1", int64(4), "w", 0.5)
	f.Fuzz(func(t *testing.T, sql string, i int64, s string, x float64) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		pool := row.Row{i, s, x, nil, i >= 0}
		n := NumParams(stmt)
		args := make(row.Row, n)
		for k := range args {
			args[k] = pool[(k+int(uint64(i)%5))%len(pool)]
		}
		source := renderStatement(stmt)
		bound, err := Bind(stmt, args)
		if got := renderStatement(stmt); got != source || n != NumParams(stmt) {
			t.Fatalf("Bind(%q) mutated its input:\n  %s\n  was %s", sql, got, source)
		}
		if err != nil {
			return
		}
		if left := NumParams(bound); left != 0 {
			t.Fatalf("Bind(%q) left %d parameter slot(s)", sql, left)
		}
		walkStatement(bound, func(q *SelectStmt) {
			if q.LimitParam != nil {
				t.Fatalf("Bind(%q) left a LIMIT placeholder", sql)
			}
		}, func(e *Expr) {
			WalkExpr(*e, func(x Expr) bool {
				if _, ok := x.(*ParamExpr); ok {
					t.Fatalf("Bind(%q) left a placeholder in %s", sql, *e)
				}
				return true
			})
		})
	})
}
