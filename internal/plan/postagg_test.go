package plan

import (
	"strings"
	"testing"

	"shark/internal/expr"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// TestPostAggregationExpressions: what follows an Aggregate — the
// SELECT list and HAVING — goes through the same resolver as everything
// else, with group keys and aggregate calls standing for the
// Aggregate's output columns. Every node kind, over a group key (k),
// an aggregate and literals; boolean cases are checked in both
// positions. The query block is
//
//	SELECT <x> FROM uservisits GROUP BY countryCode [HAVING <x>]
//
// so countryCode is output column 0 and the first aggregate column 1.
func TestPostAggregationExpressions(t *testing.T) {
	cat := testCatalog(t)
	for _, c := range []struct {
		x, want string // want: the resolved expression, or the error
		typ     row.Type
	}{
		// leaves
		{"countryCode", "countryCode#0", row.TString},
		{"SUM(adRevenue)", "agg0#1", row.TFloat},
		{"COUNT(*)", "agg0#1", row.TInt},
		{"COUNT(DISTINCT sourceIP)", "agg0#1", row.TInt},
		{"AVG(adRevenue)", "agg0#1", row.TFloat},
		{"MIN(sourceIP)", "agg0#1", row.TString},
		{"MAX(visitDate)", "agg0#1", row.TDate},
		{"7", "7", row.TInt},
		// arithmetic and comparison (constant operands fold)
		{"SUM(adRevenue) + 1", "(agg0#1 + 1)", row.TFloat},
		{"COUNT(*) * 2 - LENGTH(countryCode)", "((agg0#1 * 2) - LENGTH(countryCode#0))", row.TInt},
		{"1 + 2", "3", row.TInt},
		{"countryCode = 'US'", "(countryCode#0 = US)", row.TBool},
		{"SUM(adRevenue) > 10", "(agg0#1 > 10)", row.TBool},
		{"1 < 2", "true", row.TBool},
		// AND / OR / NOT
		{"countryCode = 'US' AND COUNT(*) > 1", "((countryCode#0 = US) AND (agg0#1 > 1))", row.TBool},
		{"countryCode = 'US' OR 1 = 2", "((countryCode#0 = US) OR false)", row.TBool},
		{"NOT (COUNT(*) > 1)", "NOT (agg0#1 > 1)", row.TBool},
		// unary minus: numeric operands only, constants fold
		{"-SUM(adRevenue)", "-agg0#1", row.TFloat},
		{"-COUNT(*)", "-agg0#1", row.TInt},
		{"-(3)", "-3", row.TInt},
		{"-countryCode", "plan: cannot negate STRING", 0},
		{"-MIN(sourceIP)", "plan: cannot negate STRING", 0},
		// BETWEEN
		{"SUM(adRevenue) BETWEEN 1 AND 2", "((agg0#1 >= 1) AND (agg0#1 <= 2))", row.TBool},
		{"countryCode NOT BETWEEN 'A' AND 'B'", "NOT ((countryCode#0 >= A) AND (countryCode#0 <= B))", row.TBool},
		{"5 BETWEEN COUNT(*) AND 9", "((5 >= agg0#1) AND (5 <= 9))", row.TBool},
		// IN
		{"countryCode IN ('US', 'CA')", "countryCode#0 IN (...)", row.TBool},
		{"COUNT(*) NOT IN (1, 2)", "agg0#1 NOT IN (...)", row.TBool},
		{"1 IN (COUNT(*), 2)", "1 IN (...)", row.TBool},
		{"countryCode IN ('US', sourceIP)", "plan: column sourceIP must appear in GROUP BY or inside an aggregate", 0},
		{"sourceIP IN ('a')", "plan: column sourceIP must appear in GROUP BY or inside an aggregate", 0},
		// LIKE: string operands only
		{"countryCode LIKE 'U%'", "countryCode#0 LIKE 'U%'", row.TBool},
		{"MIN(sourceIP) NOT LIKE '1%'", "agg0#1 NOT LIKE '1%'", row.TBool},
		{"'abc' LIKE 'a%'", "abc LIKE 'a%'", row.TBool},
		{"COUNT(*) LIKE 'a%'", "plan: LIKE requires a string operand", 0},
		{"sourceIP LIKE 'a%'", "plan: column sourceIP must appear in GROUP BY or inside an aggregate", 0},
		// IS [NOT] NULL
		{"SUM(adRevenue) IS NOT NULL", "(agg0#1 IS NOT NULL)", row.TBool},
		{"countryCode IS NULL", "(countryCode#0 IS NULL)", row.TBool},
		{"NULL IS NULL", "(NULL IS NULL)", row.TBool},
		// CASE
		{"CASE WHEN SUM(adRevenue) IS NULL THEN 0.0 ELSE SUM(adRevenue) END", "CASE...", row.TFloat},
		{"CASE WHEN countryCode = 'US' THEN 1 WHEN COUNT(*) > 5 THEN 2 END", "CASE...", row.TInt},
		{"CASE WHEN COUNT(*) > 1 THEN sourceIP ELSE 'x' END", "plan: column sourceIP must appear in GROUP BY or inside an aggregate", 0},
		// CAST (a constant operand folds)
		{"CAST(COUNT(*) AS DOUBLE)", "CAST(agg0#1 AS DOUBLE)", row.TFloat},
		{"CAST(countryCode AS BIGINT)", "CAST(countryCode#0 AS BIGINT)", row.TInt},
		{"CAST(2 AS DOUBLE)", "2", row.TFloat},
		// calls
		{"SUBSTR(countryCode, 1, 1)", "SUBSTR(countryCode#0, 1, 1)", row.TString},
		{"ABS(SUM(adRevenue))", "ABS(agg0#1)", row.TFloat},
		{"LENGTH('abc')", "LENGTH(abc)", row.TInt},
		{"NOPE(COUNT(*))", `plan: unknown function "NOPE"`, 0},
		{"SUM(COUNT(*))", "plan: aggregate COUNT not allowed here", 0},
	} {
		positions := []string{"SELECT " + c.x + " FROM uservisits GROUP BY countryCode"}
		if c.typ == row.TBool || strings.HasPrefix(c.want, "plan:") {
			positions = append(positions, "SELECT countryCode FROM uservisits GROUP BY countryCode HAVING "+c.x)
		}
		for _, sql := range positions {
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("parse %q: %v", sql, err)
			}
			n, err := Analyze(cat, stmt.(*sqlparse.SelectStmt))
			if err != nil {
				if err.Error() != c.want {
					t.Errorf("%s\n  error %q, want %q", sql, err, c.want)
				}
				continue
			}
			var got expr.Expr
			if f, ok := n.(*Project).Child.(*Filter); ok && strings.Contains(sql, " HAVING ") {
				got = f.Cond
			} else {
				got = n.(*Project).Exprs[0]
			}
			if got.String() != c.want || got.Type() != c.typ {
				t.Errorf("%s\n  resolved to %s (%s), want %s (%s)", sql, got, got.Type(), c.want, c.typ)
			}
		}
	}

	// What String does not show. A group key that is an expression stands
	// for its output column wherever it appears whole.
	n := analyze(t, cat, `SELECT SUBSTR(sourceIP, 1, 7) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7)
		HAVING SUBSTR(sourceIP, 1, 7) LIKE '1%' AND LENGTH(SUBSTR(sourceIP, 1, 7)) IN (7, COUNT(*))`)
	if got, want := n.(*Project).Child.(*Filter).Cond.String(), "(group0#0 LIKE '1%' AND LENGTH(group0#0) IN (...))"; got != want {
		t.Errorf("HAVING over a group-key expression resolved to %s, want %s", got, want)
	}
	// IN over literals keeps its set and its NOT; over anything else it
	// keeps the list.
	in := func(x string) *expr.In {
		return analyze(t, cat, "SELECT "+x+" FROM uservisits GROUP BY countryCode").(*Project).Exprs[0].(*expr.In)
	}
	if e := in("COUNT(*) NOT IN (1, 2)"); len(e.Set) != 2 || e.List != nil || !e.Invert {
		t.Errorf("COUNT(*) NOT IN (1, 2): set %v list %v invert %v", e.Set, e.List, e.Invert)
	}
	if e := in("1 IN (COUNT(*), 2)"); e.Set != nil || len(e.List) != 2 || e.List[0].String() != "agg0#1" || e.Invert {
		t.Errorf("1 IN (COUNT(*), 2): set %v list %v invert %v", e.Set, e.List, e.Invert)
	}
	if e := in("countryCode NOT IN ('US', MIN(sourceIP))"); e.Set != nil || len(e.List) != 2 || !e.Invert {
		t.Errorf("countryCode NOT IN ('US', MIN(sourceIP)): set %v list %v invert %v", e.Set, e.List, e.Invert)
	}
	// A CASE is never folded, even over literals; its arms resolve.
	cs := analyze(t, cat, "SELECT CASE WHEN 1 = 1 THEN MIN(sourceIP) ELSE countryCode END FROM uservisits GROUP BY countryCode").(*Project).Exprs[0].(*expr.Case)
	if cs.Whens[0].Cond.String() != "true" || cs.Whens[0].Then.String() != "agg0#1" || cs.Else.String() != "countryCode#0" {
		t.Errorf("CASE arms: %s / %s / %s", cs.Whens[0].Cond, cs.Whens[0].Then, cs.Else)
	}
}
