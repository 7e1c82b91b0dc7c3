package sqlparse

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// FuzzParse: for any text, Parse never panics and Normalize is
// idempotent; text that parses still parses after Normalize, to the
// same statement up to identifier case; and an accepted statement,
// rendered as SQL and parsed again, renders the same — a fixed point.
// The seeds are every statement of the planner's golden file.
func FuzzParse(f *testing.F) {
	golden, err := os.Open("../plan/testdata/explain.golden")
	if err != nil {
		f.Fatal(err)
	}
	defer golden.Close()
	for sc := bufio.NewScanner(golden); sc.Scan(); {
		if _, sql, ok := strings.Cut(sc.Text(), ": "); ok && strings.HasPrefix(sc.Text(), "== ") {
			f.Add(sql)
		}
	}
	f.Add("CREATE TABLE c (a BIGINT) TBLPROPERTIES ('k'='v', 'j'='w') STORED AS text LOCATION '/x' AS SELECT a FROM t DISTRIBUTE BY a")
	// Crashers fuzzing found, kept: string literals rendered unescaped;
	// a byte of a multi-byte character lexed as a character of its own;
	// a negative zero DOUBLE rendered as the BIGINT 0; a double negation
	// rendered as a comment.
	f.Add("SELECT 'it''s', a FROM t WHERE b LIKE 'x''%'")
	f.Add("SELECT \xcf")
	f.Add("SELECT-0.")
	f.Add("SELECT - -a")
	f.Fuzz(func(t *testing.T, sql string) {
		norm := Normalize(sql)
		if again := Normalize(norm); again != norm {
			t.Fatalf("Normalize is not idempotent:\n  %q\n  %q\n  %q", sql, norm, again)
		}
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		text := sqlText(stmt)
		fromNorm, err := Parse(norm)
		if err != nil {
			t.Fatalf("%q parses, its normal form %q does not: %v", sql, norm, err)
		}
		if a, b := Normalize(text), Normalize(sqlText(fromNorm)); a != b {
			t.Fatalf("%q and its normal form parse differently:\n  %s\n  %s", sql, a, b)
		}
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q is rendered as %q, which does not parse: %v", sql, text, err)
		}
		if got := sqlText(again); got != text {
			t.Fatalf("rendering %q is not a fixed point:\n  %s\n  %s", sql, text, got)
		}
	})
}

// sqlText renders a statement as SQL: expressions as their String
// forms, every alias after AS, properties in key order.
func sqlText(st Statement) string {
	switch s := st.(type) {
	case *SelectStmt:
		return selectText(s)
	case *ExplainStmt:
		if s.Analyze {
			return "EXPLAIN ANALYZE " + sqlText(s.Stmt)
		}
		return "EXPLAIN " + sqlText(s.Stmt)
	case *DropTableStmt:
		if s.IfExists {
			return "DROP TABLE IF EXISTS " + s.Name
		}
		return "DROP TABLE " + s.Name
	case *CreateTableStmt:
		var b strings.Builder
		b.WriteString("CREATE TABLE ")
		if s.IfNotExists {
			b.WriteString("IF NOT EXISTS ")
		}
		b.WriteString(s.Name)
		if len(s.Cols) > 0 {
			cols := make([]string, len(s.Cols))
			for i, c := range s.Cols {
				cols[i] = c.Name + " " + c.Type.String()
			}
			fmt.Fprintf(&b, " (%s)", strings.Join(cols, ", "))
		}
		if len(s.Props) > 0 {
			var props []string
			for k, v := range s.Props {
				props = append(props, quoteSQLString(k)+"="+quoteSQLString(v))
			}
			slices.Sort(props)
			fmt.Fprintf(&b, " TBLPROPERTIES (%s)", strings.Join(props, ", "))
		}
		if s.Format != "" {
			b.WriteString(" STORED AS " + s.Format)
		}
		if s.Location != "" {
			b.WriteString(" LOCATION " + quoteSQLString(s.Location))
		}
		if s.As != nil {
			b.WriteString(" AS " + selectText(s.As))
		}
		return b.String()
	}
	panic(fmt.Sprintf("sqlText: %T", st))
}

func selectText(s *SelectStmt) string {
	var b strings.Builder
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		switch {
		case it.Star:
			items[i] = "*"
		case it.Alias != "":
			items[i] = it.Expr.String() + " AS " + it.Alias
		default:
			items[i] = it.Expr.String()
		}
	}
	b.WriteString("SELECT " + strings.Join(items, ", "))
	if s.From != nil {
		b.WriteString(" FROM " + refText(s.From))
	}
	for _, j := range s.Joins {
		if j.On == nil {
			b.WriteString(", " + refText(j.Ref))
		} else {
			b.WriteString(" JOIN " + refText(j.Ref) + " ON " + j.On.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + exprsText(s.GroupBy))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = o.Expr.String()
			if o.Desc {
				keys[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	switch {
	case s.LimitParam != nil:
		b.WriteString(" LIMIT ?")
	case s.Limit >= 0:
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	if s.DistributeBy != "" {
		b.WriteString(" DISTRIBUTE BY " + s.DistributeBy)
	}
	return b.String()
}

func refText(r *TableRef) string {
	switch {
	case r.Sub != nil:
		return "(" + selectText(r.Sub) + ") AS " + r.Alias
	case r.Alias != "":
		return r.Name + " AS " + r.Alias
	}
	return r.Name
}

func exprsText(xs []Expr) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.String()
	}
	return strings.Join(out, ", ")
}
