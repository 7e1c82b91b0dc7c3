package plan

import (
	"strings"
	"testing"

	"shark/internal/catalog"
	"shark/internal/expr"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cat.Register(&catalog.Table{
		Name: "rankings",
		Schema: row.Schema{
			{Name: "pageURL", Type: row.TString},
			{Name: "pageRank", Type: row.TInt},
			{Name: "avgDuration", Type: row.TInt},
		},
	}))
	must(cat.Register(&catalog.Table{
		Name: "uservisits",
		Schema: row.Schema{
			{Name: "sourceIP", Type: row.TString},
			{Name: "destURL", Type: row.TString},
			{Name: "visitDate", Type: row.TDate},
			{Name: "adRevenue", Type: row.TFloat},
			{Name: "countryCode", Type: row.TString},
		},
	}))
	return cat
}

func analyze(t *testing.T, cat *catalog.Catalog, sql string) Node {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	n, err := Analyze(cat, stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatalf("analyze %q: %v", sql, err)
	}
	return n
}

func findScan(n Node, table string) *Scan {
	if s, ok := n.(*Scan); ok && strings.EqualFold(s.Table.Name, table) {
		return s
	}
	for _, c := range n.Children() {
		if s := findScan(c, table); s != nil {
			return s
		}
	}
	return nil
}

func TestSimpleProjection(t *testing.T) {
	n := analyze(t, testCatalog(t), "SELECT pageURL, pageRank FROM rankings")
	p, ok := n.(*Project)
	if !ok {
		t.Fatalf("root = %T", n)
	}
	sch := p.Schema()
	if sch[0].Name != "pageURL" || sch[0].Type != row.TString {
		t.Errorf("schema: %v", sch)
	}
	if sch[1].Type != row.TInt {
		t.Errorf("pageRank type: %v", sch[1])
	}
}

func TestColumnPruningAtAnalysis(t *testing.T) {
	n := analyze(t, testCatalog(t), "SELECT pageRank FROM rankings WHERE pageRank > 10")
	s := findScan(n, "rankings")
	if s == nil {
		t.Fatal("scan not found")
	}
	if len(s.NeededCols) != 1 || s.NeededCols[0] != 1 {
		t.Errorf("NeededCols = %v (want just pageRank)", s.NeededCols)
	}
}

func TestStarReadsAll(t *testing.T) {
	n := analyze(t, testCatalog(t), "SELECT * FROM rankings")
	s := findScan(n, "rankings")
	if len(s.NeededCols) != 3 {
		t.Errorf("NeededCols = %v", s.NeededCols)
	}
	if len(n.Schema()) != 3 {
		t.Errorf("output schema: %v", n.Schema())
	}
}

func TestPredicatePushdownToScan(t *testing.T) {
	n := analyze(t, testCatalog(t), "SELECT pageURL FROM rankings WHERE pageRank > 100 AND pageURL LIKE 'http%'")
	s := findScan(n, "rankings")
	if len(s.Filters) != 2 {
		t.Fatalf("pushed filters = %d, want 2", len(s.Filters))
	}
	// no residual Filter node should remain
	cur := n
	for cur != nil {
		if _, ok := cur.(*Filter); ok {
			t.Error("residual filter above scan")
		}
		ch := cur.Children()
		if len(ch) == 0 {
			break
		}
		cur = ch[0]
	}
}

func TestPushdownThroughJoin(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT R.pageRank FROM rankings AS R, uservisits AS UV
		WHERE R.pageURL = UV.destURL AND R.pageRank > 10 AND UV.adRevenue > 5.0`)
	r := findScan(n, "rankings")
	uv := findScan(n, "uservisits")
	if len(r.Filters) != 1 {
		t.Errorf("rankings filters = %v", r.Filters)
	}
	if len(uv.Filters) != 1 {
		t.Errorf("uservisits filters = %v", uv.Filters)
	}
	// the join itself must exist with the equi keys
	var j *Join
	var walk func(Node)
	walk = func(cur Node) {
		if jj, ok := cur.(*Join); ok {
			j = jj
		}
		for _, c := range cur.Children() {
			walk(c)
		}
	}
	walk(n)
	if j == nil {
		t.Fatal("join missing")
	}
	// filter cols shifted to right-side local indices
	cols := expr.Cols(uv.Filters[0])
	if len(cols) != 1 || cols[0] >= len(uv.Schema()) {
		t.Errorf("right filter cols = %v (schema %d wide)", cols, len(uv.Schema()))
	}
}

func TestExplicitJoinOn(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT r.pageRank FROM rankings r JOIN uservisits u ON r.pageURL = u.destURL WHERE u.adRevenue > 1.0`)
	if findScan(n, "rankings") == nil || findScan(n, "uservisits") == nil {
		t.Fatal("scans missing")
	}
}

func TestAggregatePlan(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT sourceIP, SUM(adRevenue) AS rev, COUNT(*) FROM uservisits GROUP BY sourceIP`)
	var agg *Aggregate
	var walk func(Node)
	walk = func(cur Node) {
		if a, ok := cur.(*Aggregate); ok {
			agg = a
		}
		for _, c := range cur.Children() {
			walk(c)
		}
	}
	walk(n)
	if agg == nil {
		t.Fatal("aggregate missing")
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 2 {
		t.Fatalf("agg shape: %d groups, %d aggs", len(agg.GroupBy), len(agg.Aggs))
	}
	if agg.Aggs[0].Kind != AggSum || agg.Aggs[0].Out != row.TFloat {
		t.Errorf("sum spec: %+v", agg.Aggs[0])
	}
	if agg.Aggs[1].Kind != AggCount {
		t.Errorf("count spec: %+v", agg.Aggs[1])
	}
	sch := n.Schema()
	if sch[0].Name != "sourceIP" || sch[1].Name != "rev" {
		t.Errorf("output names: %v", sch.Names())
	}
}

func TestGroupByExpression(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue)
		FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7)`)
	if len(n.Schema()) != 2 {
		t.Errorf("schema: %v", n.Schema())
	}
}

func TestHavingAndOrderBy(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT countryCode, COUNT(*) AS c FROM uservisits
		GROUP BY countryCode HAVING COUNT(*) > 10 ORDER BY c DESC LIMIT 3`)
	if _, ok := n.(*Limit); !ok {
		t.Fatalf("root = %T, want Limit", n)
	}
	srt, ok := n.Children()[0].(*Sort)
	if !ok {
		t.Fatalf("child = %T, want Sort", n.Children()[0])
	}
	if !srt.Keys[0].Desc {
		t.Error("DESC lost")
	}
	// HAVING becomes a Filter above Aggregate
	foundHaving := false
	var walk func(Node)
	walk = func(cur Node) {
		if f, ok := cur.(*Filter); ok {
			if _, ok := f.Child.(*Aggregate); ok {
				foundHaving = true
			}
		}
		for _, c := range cur.Children() {
			walk(c)
		}
	}
	walk(n)
	if !foundHaving {
		t.Error("HAVING filter not above aggregate")
	}
}

func TestOrderByPosition(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT pageURL, pageRank FROM rankings ORDER BY 2 DESC`)
	srt := n.(*Sort)
	col := srt.Keys[0].Expr.(*expr.Col)
	if col.Idx != 1 {
		t.Errorf("order col = %d", col.Idx)
	}
}

func TestPruningExtraction(t *testing.T) {
	cat := testCatalog(t)
	// mark rankings as cached so pruning predicates are extracted —
	// a Mem table pointer is required
	tbl, _ := cat.Get("rankings")
	_ = tbl
	// cannot build a real memtable here without a cluster; pruning is
	// covered end-to-end in the exec package. Here we test the
	// extraction helper directly.
	col := &expr.Col{Idx: 0, Name: "ts", T: row.TInt}
	preds := extractPruning([]expr.Expr{
		&expr.Cmp{Op: expr.Ge, L: col, R: expr.NewConst(int64(10))},
		&expr.Cmp{Op: expr.Lt, L: expr.NewConst(int64(99)), R: col}, // 99 < ts
		&expr.In{E: col, Set: expr.NewInSet([]any{int64(1), int64(2)})},
	})
	if len(preds) != 3 {
		t.Fatalf("preds = %+v", preds)
	}
	if preds[0].Lo.(int64) != 10 || preds[0].Hi != nil {
		t.Errorf("ge pred: %+v", preds[0])
	}
	if preds[1].Lo.(int64) != 99 {
		t.Errorf("flipped pred: %+v", preds[1])
	}
	if len(preds[2].Eq) != 2 {
		t.Errorf("in pred: %+v", preds[2])
	}

	// Literals row.Compare cannot order against the column's values
	// match none of them: an IN keeps the others, or prunes nothing.
	str := &expr.Col{Idx: 1, Name: "s", T: row.TString}
	preds = extractPruning([]expr.Expr{
		&expr.In{E: str, Set: expr.NewInSet([]any{int64(1), int64(2)})},
		&expr.In{E: col, Set: expr.NewInSet([]any{"a", int64(7), 2.5})},
		&expr.Cmp{Op: expr.Eq, L: str, R: expr.NewConst(int64(3))},
	})
	if len(preds) != 1 || preds[0].Col != 0 || len(preds[0].Eq) != 2 {
		t.Errorf("mixed-type preds = %+v, want one IN over ts keeping 7 and 2.5", preds)
	}
}

func TestErrorCases(t *testing.T) {
	cat := testCatalog(t)
	for _, sql := range []string{
		"SELECT nope FROM rankings",
		"SELECT pageRank FROM missing",
		"SELECT pageURL FROM rankings GROUP BY pageRank",                        // col not in group by
		"SELECT SUM(pageURL) FROM rankings",                                     // sum of string
		"SELECT * FROM rankings GROUP BY pageRank",                              // star with agg
		"SELECT pageRank FROM rankings ORDER BY avgDuration",                    // order by non-projected
		"SELECT pageRank FROM rankings HAVING pageRank > 1",                     // having without group
		"SELECT r.pageRank FROM rankings r JOIN uservisits u ON r.pageRank > 1", // non-equi join
		"SELECT pageURL + 1 FROM rankings",                                      // string arithmetic
		"SELECT UNKNOWN_FUNC(pageRank) FROM rankings",
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			continue // parse-level failure also acceptable
		}
		if _, err := Analyze(cat, stmt.(*sqlparse.SelectStmt)); err == nil {
			t.Errorf("Analyze(%q) should fail", sql)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	n := analyze(t, testCatalog(t), "SELECT pageRank + 2 * 3 FROM rankings")
	p := n.(*Project)
	ar, ok := p.Exprs[0].(*expr.Arith)
	if !ok {
		t.Fatalf("expr = %T", p.Exprs[0])
	}
	if _, ok := ar.R.(*expr.Const); !ok {
		t.Errorf("2*3 not folded: %s", ar.R)
	}
}

func TestSubqueryPlan(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT big FROM
		(SELECT pageURL, pageRank AS big FROM rankings WHERE pageRank > 10) sub
		WHERE big < 100`)
	if len(n.Schema()) != 1 || n.Schema()[0].Name != "big" {
		t.Errorf("schema: %v", n.Schema())
	}
	s := findScan(n, "rankings")
	if s == nil {
		t.Fatal("inner scan missing")
	}
	if len(s.Filters) == 0 {
		t.Error("inner filter not pushed to scan")
	}
}

func TestExplainRendering(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT countryCode, COUNT(*) FROM uservisits
		WHERE adRevenue > 1.0 GROUP BY countryCode ORDER BY 2 DESC LIMIT 10`)
	out := Explain(n)
	for _, want := range []string{"Limit", "Sort", "Project", "Aggregate", "Scan"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %s:\n%s", want, out)
		}
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	n := analyze(t, testCatalog(t), "SELECT 1 + 2 AS three")
	p := n.(*Project)
	if p.Schema()[0].Name != "three" {
		t.Errorf("schema: %v", p.Schema())
	}
	if c, ok := p.Exprs[0].(*expr.Const); !ok || c.V.(int64) != 3 {
		t.Errorf("const folding: %v", p.Exprs[0])
	}
}

func TestCountDistinctSpec(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT COUNT(DISTINCT sourceIP) FROM uservisits`)
	var agg *Aggregate
	var walk func(Node)
	walk = func(cur Node) {
		if a, ok := cur.(*Aggregate); ok {
			agg = a
		}
		for _, c := range cur.Children() {
			walk(c)
		}
	}
	walk(n)
	if agg == nil || agg.Aggs[0].Kind != AggCountDistinct {
		t.Fatalf("agg: %+v", agg)
	}
}

func TestDedupAggsAcrossClauses(t *testing.T) {
	n := analyze(t, testCatalog(t), `SELECT countryCode, COUNT(*) FROM uservisits
		GROUP BY countryCode HAVING COUNT(*) > 5 ORDER BY COUNT(*) DESC`)
	var agg *Aggregate
	var walk func(Node)
	walk = func(cur Node) {
		if a, ok := cur.(*Aggregate); ok {
			agg = a
		}
		for _, c := range cur.Children() {
			walk(c)
		}
	}
	walk(n)
	if len(agg.Aggs) != 1 {
		t.Errorf("COUNT(*) duplicated: %d specs", len(agg.Aggs))
	}
}

// TestUnaliasedColumnNames: an unaliased item is named after its
// expression, losing only parentheses that wrap the whole expression —
// never the one that closes a call.
func TestUnaliasedColumnNames(t *testing.T) {
	cat := testCatalog(t)
	for sql, want := range map[string][]string{
		"SELECT COUNT(*), SUM(adRevenue) FROM uservisits":                                         {"COUNT(*)", "SUM(adRevenue)"},
		"SELECT SUBSTR(sourceIP, 1, 7), COUNT(*) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7)": {"SUBSTR(sourceIP, 1, 7)", "COUNT(*)"},
		"SELECT (pageRank + avgDuration), pageRank FROM rankings":                                 {"pageRank + avgDuration", "pageRank"},
		"SELECT (pageRank + 1) * (avgDuration + 2) FROM rankings":                                 {"(pageRank + 1) * (avgDuration + 2)"},
		"SELECT 1 + 2": {"1 + 2"},
	} {
		got := analyze(t, cat, sql).Schema().Names()
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s\n  column names %q, want %q", sql, got, want)
		}
	}
	for in, want := range map[string]string{
		"(a + b)": "a + b", "COUNT(*)": "COUNT(*)", "(a) + (b)": "(a) + (b)", "(f(')'))": "f(')')", "()": "", "(": "(", "": "",
	} {
		if got := compactName(in); got != want {
			t.Errorf("compactName(%q) = %q, want %q", in, got, want)
		}
	}
}
