package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shark/internal/exec"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// TestSortAtBothPositions: the engine sorts in one place (exec.sortRows)
// whether the Sort is the root of the statement or sits below it in a
// sub-query, over a cached table or an external one: NULLs first — last
// under DESC — later keys break ties, and rows equal on every key keep
// their input order.
func TestSortAtBothPositions(t *testing.T) {
	e := newEnv(t, exec.Options{})
	schema := row.Schema{{Name: "k", Type: row.TInt}, {Name: "s", Type: row.TString}, {Name: "seq", Type: row.TInt}}
	e.writeDFS(t, "keys", schema, []row.Row{
		{int64(1), "b", int64(0)}, {nil, "a", int64(1)}, {int64(2), nil, int64(2)},
		{int64(1), "a", int64(3)}, {int64(2), "x", int64(4)}, {int64(1), "b", int64(5)},
		{nil, nil, int64(6)}, {int64(2), nil, int64(7)}, {int64(1), "a", int64(8)},
	})
	e.mustExec(t, `CREATE TABLE keys_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM keys`)
	for _, c := range []struct {
		order string
		want  []int64 // seq, in result order
	}{
		{"k DESC, s", []int64{2, 7, 4, 3, 8, 0, 5, 6, 1}},
		{"k, s DESC", []int64{1, 6, 0, 5, 3, 8, 4, 2, 7}},
		{"s", []int64{2, 6, 7, 1, 3, 8, 0, 5, 4}},
	} {
		for _, table := range []string{"keys", "keys_mem"} {
			sorted := fmt.Sprintf("SELECT k, s, seq FROM %s ORDER BY %s", table, c.order)
			for _, sql := range []string{sorted, "SELECT k, s, seq FROM (" + sorted + ") q"} {
				var got []int64
				for _, r := range e.mustExec(t, sql).Rows {
					got = append(got, r[2].(int64))
				}
				if !reflect.DeepEqual(got, c.want) {
					t.Errorf("%s\n  seq order %v, want %v", sql, got, c.want)
				}
			}
		}
	}
}

// TestPostAggregationErrorsStartNoJob: what the post-aggregation
// resolver refuses, it refuses at analysis — a "plan:" error, before
// any task runs — as the same expression without GROUP BY always was.
func TestPostAggregationErrorsStartNoJob(t *testing.T) {
	e := newEnv(t, exec.Options{})
	setupVisits(t, e, 200, true)
	before := e.s.Stats()
	for sql, want := range map[string]string{
		"SELECT countryCode, -countryCode FROM uservisits GROUP BY countryCode":                                      "plan: cannot negate STRING",
		"SELECT visitDate FROM uservisits GROUP BY visitDate HAVING visitDate LIKE 'a%'":                             "plan: LIKE requires a string operand",
		"SELECT countryCode FROM uservisits GROUP BY countryCode HAVING countryCode IN ('US', sourceIP)":             "plan: column sourceIP must appear in GROUP BY or inside an aggregate",
		"SELECT CASE WHEN COUNT(*) > 1 THEN destURL ELSE 'x' END FROM uservisits GROUP BY countryCode":               "plan: column destURL must appear in GROUP BY or inside an aggregate",
		"SELECT countryCode FROM uservisits GROUP BY countryCode HAVING sourceIP LIKE '1%'":                          "plan: column sourceIP must appear in GROUP BY or inside an aggregate",
		"SELECT countryCode, NOPE(COUNT(*)) FROM uservisits GROUP BY countryCode":                                    `plan: unknown function "NOPE"`,
		"SELECT countryCode FROM uservisits GROUP BY countryCode HAVING SUM(adRevenue) IS NOT NULL AND -destURL > 0": "plan: column destURL must appear in GROUP BY or inside an aggregate",
	} {
		if _, err := e.s.Exec(sql); err == nil || err.Error() != want {
			t.Errorf("%s\n  error %v, want %s", sql, err, want)
		}
	}
	if after := e.s.Stats(); after.Tasks != before.Tasks {
		t.Errorf("analysis errors ran %d tasks", after.Tasks-before.Tasks)
	}
}

// TestCacheableAndInputTables pins the two statement-level decisions
// of the result cache where the clause walk matters: derived tables on
// either side of a join are entered, and a call anywhere — HAVING, an
// IN list, a sub-query — is seen.
func TestCacheableAndInputTables(t *testing.T) {
	for _, c := range []struct {
		sql       string
		cacheable bool
		tables    []string
	}{
		{"SELECT a FROM T1", true, []string{"t1"}},
		{"SELECT x FROM (SELECT a AS x FROM t1 WHERE a > 1) s WHERE x < 9", true, []string{"t1"}},
		{"SELECT x FROM (SELECT MYUDF(a) AS x FROM t1) s", false, []string{"t1"}},
		{"SELECT t1.a FROM t1 JOIN (SELECT b FROM t2 JOIN (SELECT c FROM t3) u ON t2.b = u.c) s ON t1.a = s.b", true, []string{"t1", "t2", "t3"}},
		{"SELECT t1.a FROM t1 JOIN (SELECT b FROM t2 WHERE MYUDF(b) > 0) s ON t1.a = s.b", false, []string{"t1", "t2"}},
		{"SELECT t1.a FROM t1 JOIN t2 ON MYUDF(t1.a) = t2.b", false, []string{"t1", "t2"}},
		{"SELECT a, COUNT(*) FROM t1 GROUP BY a HAVING SUM(b) > LENGTH('x')", true, []string{"t1"}},
		{"SELECT a, COUNT(*) FROM t1 GROUP BY a HAVING MYUDF(COUNT(*)) > 1", false, []string{"t1"}},
		{"SELECT a FROM t1 WHERE a IN (1, ABS(b), 3)", true, []string{"t1"}},
		{"SELECT a FROM t1 WHERE a IN (1, MYUDF(b), 3)", false, []string{"t1"}},
		{"SELECT a FROM t1 GROUP BY MYUDF(a)", false, []string{"t1"}},
		{"SELECT a FROM t1 ORDER BY CASE WHEN a > 1 THEN MYUDF(a) ELSE a END", false, []string{"t1"}},
		{"SELECT 1 + 2", true, []string{}},
	} {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		sel := stmt.(*sqlparse.SelectStmt)
		if got := cacheableSelect(sel); got != c.cacheable {
			t.Errorf("cacheableSelect(%s) = %v, want %v", c.sql, got, c.cacheable)
		}
		if got := inputTables(sel); strings.Join(got, ",") != strings.Join(c.tables, ",") {
			t.Errorf("inputTables(%s) = %v, want %v", c.sql, got, c.tables)
		}
	}
}
