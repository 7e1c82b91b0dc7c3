package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"shark/internal/columnar"
	"shark/internal/exec"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// extractDur pulls the duration following marker out of a summary line
// ("-- statement: wall=12.3ms rows=97" → 12.3ms for marker "wall=").
func extractDur(t *testing.T, line, marker string) time.Duration {
	t.Helper()
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("line %q missing %q", line, marker)
	}
	rest := line[i+len(marker):]
	if j := strings.IndexAny(rest, " )"); j >= 0 {
		rest = rest[:j]
	}
	d, err := time.ParseDuration(rest)
	if err != nil {
		t.Fatalf("bad duration in %q: %v", line, err)
	}
	return d
}

// TestExplainAnalyzeSkewedJoin runs EXPLAIN ANALYZE over the skewed
// join workload and checks the contract the feature promises: an
// annotated plan tree whose per-node wall times sum to within 10% of
// the measured statement wall time, per-node row counts, and the PDE
// decisions (skew split, adaptive coalesce) taken at run time.
func TestExplainAnalyzeSkewedJoin(t *testing.T) {
	e := newEnv(t, exec.Options{BroadcastThreshold: 1024, TargetPerReducerBytes: 8 << 10})
	defer e.s.Close()
	e.writeDFS(t, "fact", factSchema, genSkewedFact(8000))
	e.writeDFS(t, "dim", dimSchema, genDim())

	res := e.mustExec(t, `EXPLAIN ANALYZE SELECT dim.grp, COUNT(*), SUM(fact.val)
		FROM fact JOIN dim ON fact.k = dim.k GROUP BY dim.grp`)
	if len(res.Schema) != 1 || res.Schema[0].Name != "plan" {
		t.Fatalf("schema = %v, want single plan column", res.Schema)
	}
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].(string))
	}
	text := strings.Join(lines, "\n")
	t.Logf("EXPLAIN ANALYZE:\n%s", text)

	// The tree: every operator line carries wall and rows annotations,
	// and the join/aggregate carry their strategy notes.
	for _, want := range []string{"Join", "Aggregate", "Scan", "wall=", "rows=",
		"adaptive:shuffle-join", "reducers="} {
		if !strings.Contains(text, want) {
			t.Errorf("plan tree missing %q:\n%s", want, text)
		}
	}

	// The summary: attributed per-node time sums to within 10% of the
	// measured statement wall.
	var stmtLine, attrLine, taskLine, pdeLine string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "-- statement:"):
			stmtLine = l
		case strings.HasPrefix(l, "-- attributed:"):
			attrLine = l
		case strings.HasPrefix(l, "-- tasks="):
			taskLine = l
		case strings.HasPrefix(l, "-- pde:"):
			pdeLine = l
		}
	}
	if stmtLine == "" || attrLine == "" || taskLine == "" || pdeLine == "" {
		t.Fatalf("summary lines missing:\n%s", text)
	}
	wall := extractDur(t, stmtLine, "wall=")
	attributed := extractDur(t, attrLine, "attributed: ")
	if wall <= 0 {
		t.Fatalf("statement wall not positive: %v", wall)
	}
	if ratio := float64(attributed) / float64(wall); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("attributed %v vs wall %v: ratio %.2f outside [0.9, 1.1]\n%s",
			attributed, wall, ratio, text)
	}
	if strings.Contains(taskLine, "tasks=0 ") {
		t.Errorf("no tasks attributed: %q", taskLine)
	}

	// The PDE decisions the skewed workload must trigger.
	for _, want := range []string{"skew-split", "adaptive-coalesce"} {
		if !strings.Contains(pdeLine, want) {
			t.Errorf("pde summary missing %q: %q", want, pdeLine)
		}
	}

	// Plain EXPLAIN is unchanged: a plan tree with no measurements.
	plain := e.mustExec(t, `EXPLAIN SELECT COUNT(*) FROM fact`)
	for _, r := range plain.Rows {
		if strings.Contains(r[0].(string), "wall=") {
			t.Errorf("plain EXPLAIN carries measurements: %q", r[0])
		}
	}

	// EXPLAIN ANALYZE is SELECT-only, like EXPLAIN.
	if _, err := e.s.Exec(`EXPLAIN ANALYZE DROP TABLE fact`); err == nil {
		t.Errorf("EXPLAIN ANALYZE DROP succeeded, want error")
	}
}

// TestExplainAnalyzeRowsUnderFusion: operators fused onto a cached scan
// run in one task body with no iterator between them, and still every
// plan node reports exactly the rows it emitted — the counts a
// row-at-a-time pipeline of the same plan reports.
func TestExplainAnalyzeRowsUnderFusion(t *testing.T) {
	w := newSharedWorld(t)
	s := w.session("analyst", false)
	defer s.Close()
	const n = 3000 // k = 0..n-1, grp cycles over four values
	loadTenantTable(t, s, "t", n, 0)

	// explain runs EXPLAIN ANALYZE and returns the rendered lines.
	explain := func(sql string) []string {
		t.Helper()
		res, err := s.Exec("EXPLAIN ANALYZE " + sql)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			lines[i] = r[0].(string)
		}
		return lines
	}
	// rowsOf maps each plan line's operator ("Scan", "Project", …) to
	// its rows= annotation.
	rowsOf := func(lines []string) map[string]int64 {
		got := map[string]int64{}
		for _, l := range lines {
			op, rest, ok := strings.Cut(strings.TrimSpace(l), "(")
			i := strings.Index(rest, " rows=")
			if !ok || i < 0 || strings.HasPrefix(op, "--") {
				continue
			}
			var rows int64
			if _, err := fmt.Sscanf(rest[i:], " rows=%d", &rows); err != nil {
				t.Fatalf("bad rows= in %q: %v", l, err)
			}
			got[op] = rows
		}
		return got
	}
	check := func(name string, got, want map[string]int64) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows per operator = %v, want %v", name, got, want)
		}
	}

	for _, c := range []struct {
		sql  string
		want map[string]int64
	}{
		{`SELECT k, v FROM t_mem WHERE k < 750`, // filter pushed into the scan, projection fused
			map[string]int64{"Scan": 750, "Project": 750}},
		{`SELECT * FROM t_mem WHERE k >= 10 AND grp = 'a'`, // identity projection
			map[string]int64{"Scan": 747, "Project": 747}},
		{`SELECT grp, COUNT(*), AVG(v) FROM t_mem WHERE k < 750 GROUP BY grp`, // fused partial aggregation
			map[string]int64{"Scan": 750, "Aggregate": 4, "Project": 4}},
		{`SELECT k + 1 FROM t_mem WHERE k < 750 LIMIT 5000`,
			map[string]int64{"Scan": 750, "Project": 750, "Limit": 750}},
	} {
		check(c.sql, rowsOf(explain(c.sql)), c.want)
	}

	// Rows are materialized as the consumer pulls, a batch at a time: a
	// LIMIT satisfied by the first batch of a one-partition table never
	// decodes the other two.
	s.DefaultCacheParts = 1
	loadTenantTable(t, s, "single", n, 0)
	check("LIMIT 10 of one partition", rowsOf(explain(`SELECT k, v FROM single_mem LIMIT 10`)),
		map[string]int64{"Scan": columnar.BatchSize, "Project": columnar.BatchSize, "Limit": 10})

	// A Filter node sitting directly on a cached scan — the optimizer
	// pushes every WHERE into the scan, so build the plan by hand —
	// fuses too, and counts apart from the scan below it.
	st, err := sqlparse.Parse(`SELECT k, v FROM t_mem WHERE k < 1500`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Analyze(s.Cat, st.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	project := p.(*plan.Project)
	filter := &plan.Filter{
		Cond:  &expr.Cmp{Op: expr.Ge, L: &expr.Col{Idx: 0, Name: "k", T: row.TInt}, R: expr.NewConst(int64(1000))},
		Child: project.Child,
	}
	project.Child = filter
	out, ns, err := s.Engine.RunAnalyzeCtx(context.Background(), project)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 500 {
		t.Errorf("hand-built Filter plan returned %d rows, want 500", len(out.Rows))
	}
	check("Project(Filter(Scan))", rowsOf(ns.Render()), map[string]int64{"Scan": 1500, "Filter": 500, "Project": 500})
}
