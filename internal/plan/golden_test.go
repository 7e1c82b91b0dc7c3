package plan

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"shark/internal/catalog"
	"shark/internal/data"
	"shark/internal/memtable"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain.golden from the current planner")

// goldenStmt is one statement of TestExplainGolden; args, when set, are
// bound before analysis.
type goldenStmt struct {
	sql  string
	args row.Row
}

// The statements whose plans are pinned, one group per catalog: every
// statement analysed in plan_test.go (the failing ones pin their error
// text), the statements of the six bench/ workloads (copied here as
// strings: bench/ is not importable and must not be), and the fixed
// statements of core.TestDifferentialCachedScan and one of
// core.TestDifferentialJoin.
var goldenGroups = []struct {
	name  string
	cat   func(*testing.T) *catalog.Catalog
	stmts []goldenStmt
}{
	{"plan_test", testCatalog, []goldenStmt{
		{sql: "SELECT pageURL, pageRank FROM rankings"},
		{sql: "SELECT pageRank FROM rankings WHERE pageRank > 10"},
		{sql: "SELECT * FROM rankings"},
		{sql: "SELECT pageURL FROM rankings WHERE pageRank > 100 AND pageURL LIKE 'http%'"},
		{sql: `SELECT R.pageRank FROM rankings AS R, uservisits AS UV
		WHERE R.pageURL = UV.destURL AND R.pageRank > 10 AND UV.adRevenue > 5.0`},
		{sql: `SELECT r.pageRank FROM rankings r JOIN uservisits u ON r.pageURL = u.destURL WHERE u.adRevenue > 1.0`},
		{sql: `SELECT sourceIP, SUM(adRevenue) AS rev, COUNT(*) FROM uservisits GROUP BY sourceIP`},
		{sql: `SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue)
		FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7)`},
		{sql: `SELECT countryCode, COUNT(*) AS c FROM uservisits
		GROUP BY countryCode HAVING COUNT(*) > 10 ORDER BY c DESC LIMIT 3`},
		{sql: `SELECT pageURL, pageRank FROM rankings ORDER BY 2 DESC`},
		{sql: "SELECT pageRank + 2 * 3 FROM rankings"},
		{sql: `SELECT big FROM
		(SELECT pageURL, pageRank AS big FROM rankings WHERE pageRank > 10) sub
		WHERE big < 100`},
		{sql: `SELECT countryCode, COUNT(*) FROM uservisits
		WHERE adRevenue > 1.0 GROUP BY countryCode ORDER BY 2 DESC LIMIT 10`},
		{sql: "SELECT 1 + 2 AS three"},
		{sql: `SELECT COUNT(DISTINCT sourceIP) FROM uservisits`},
		{sql: `SELECT countryCode, COUNT(*) FROM uservisits
		GROUP BY countryCode HAVING COUNT(*) > 5 ORDER BY COUNT(*) DESC`},
		{sql: "SELECT COUNT(*), SUM(adRevenue) FROM uservisits"},
		{sql: "SELECT SUBSTR(sourceIP, 1, 7), COUNT(*) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7)"},
		{sql: "SELECT (pageRank + avgDuration), pageRank FROM rankings"},
		{sql: "SELECT (pageRank + 1) * (avgDuration + 2) FROM rankings"},
		{sql: "SELECT 1 + 2"},
		// TestErrorCases
		{sql: "SELECT nope FROM rankings"},
		{sql: "SELECT pageRank FROM missing"},
		{sql: "SELECT pageURL FROM rankings GROUP BY pageRank"},
		{sql: "SELECT SUM(pageURL) FROM rankings"},
		{sql: "SELECT * FROM rankings GROUP BY pageRank"},
		{sql: "SELECT pageRank FROM rankings ORDER BY avgDuration"},
		{sql: "SELECT pageRank FROM rankings HAVING pageRank > 1"},
		{sql: "SELECT r.pageRank FROM rankings r JOIN uservisits u ON r.pageRank > 1"},
		{sql: "SELECT pageURL + 1 FROM rankings"},
		{sql: "SELECT UNKNOWN_FUNC(pageRank) FROM rankings"},
	}},
	{"bench", benchCatalog, []goldenStmt{
		// scan_agg
		{sql: `SELECT pageURL, pageRank FROM rankings_mem WHERE pageRank > 1000`},
		{sql: `SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits_mem GROUP BY SUBSTR(sourceIP, 1, 7)`},
		{sql: `SELECT countryCode, COUNT(*), AVG(duration) FROM uservisits_mem WHERE adRevenue > 500 GROUP BY countryCode`},
		// shuffle_join
		{sql: `SELECT uservisits_mem.sourceIP, AVG(rankings_mem.pageRank) AS avg_rank, SUM(uservisits_mem.adRevenue) AS totalRevenue
FROM rankings_mem, uservisits_mem
WHERE rankings_mem.pageURL = uservisits_mem.destURL
AND uservisits_mem.visitDate BETWEEN Date('2000-01-15') AND Date('2000-01-22')
GROUP BY uservisits_mem.sourceIP`},
		{sql: `SELECT sourceIP, SUM(adRevenue) FROM uservisits_mem GROUP BY sourceIP`},
		// serve_point, and its oracle's superset statement
		{sql: `SELECT cdn, COUNT(*), AVG(buffering_ms) FROM sessions_mem WHERE country = ? AND session_day = ? GROUP BY cdn`,
			args: row.Row{"US", int64(15340)}},
		{sql: `SELECT cdn, COUNT(*), AVG(buffering_ms) FROM sessions_mem WHERE country = 'US' AND session_day = Date('2012-01-01') GROUP BY cdn`},
		{sql: `SELECT country, session_day, cdn, COUNT(*), AVG(buffering_ms) FROM sessions_mem GROUP BY country, session_day, cdn`},
		// serve_fetch
		{sql: `SELECT * FROM sessions_mem WHERE country = ?`, args: row.Row{"BR"}},
		{sql: `SELECT * FROM sessions_mem`},
		// load_spill (the SELECT of each CTAS, and the read back)
		{sql: `SELECT * FROM uservisits`},
		{sql: `SELECT countryCode, COUNT(*), SUM(adRevenue) FROM uv_disk GROUP BY countryCode`},
		// ml_iter
		{sql: `SELECT * FROM points_mem`},
	}},
	{"differential", diffCatalog, []goldenStmt{
		{sql: `SELECT id, SUBSTR(s_raw, 40, NULL), SUBSTR(s_raw, 2, NULL), SUBSTR(s_raw, 0, -1), SUBSTR(s_dict, -40, 2), SUBSTR(s_raw, -3), SUBSTR(s_dict, 3, 0) FROM t`},
		{sql: `SELECT id, SUBSTR('10.20.30.40', i_dict, i_pack % 5), SUBSTR(s_raw, id % 12 - 6, id % 5 - 1), LENGTH(SUBSTR(s_raw, 7)) FROM t`},
		{sql: `SELECT id, YEAR(d - id * 3), MONTH(d + id), DAY(d + id), ABS(i_raw), ABS(f_raw - 500.0), ABS(i_pack) FROM t`},
		{sql: `SELECT SUBSTR(s_raw, 1, 2), COUNT(*), SUM(f_raw), MIN(SUBSTR(s_raw, 3)), MAX(LENGTH(s_dict)) FROM t GROUP BY SUBSTR(s_raw, 1, 2)`},
		{sql: `SELECT MONTH(d + id), COUNT(*), COUNT(DISTINCT DAY(d + id)) FROM t WHERE LENGTH(s_raw) > 9 OR ABS(i_dict) = 3 GROUP BY MONTH(d + id)`},
		{sql: `SELECT i_pack, COUNT(*) FROM t WHERE i_pack < 0 OR i_pack > 900 GROUP BY i_pack`},
		// core.TestDifferentialJoin: a BIGINT key joined to a DOUBLE one
		{sql: `SELECT t.id, u.uid FROM t JOIN u ON t.i_pack = u.k_f`},
	}},
}

// cachedTable is a catalog entry the planner treats as memstore-cached
// (it extracts pruning predicates for it); nothing reads the table.
func cachedTable(name string, schema row.Schema) *catalog.Table {
	return &catalog.Table{Name: name, Schema: schema, Mem: &memtable.Table{}}
}

func registerAll(t *testing.T, tables ...*catalog.Table) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, tbl := range tables {
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func benchCatalog(t *testing.T) *catalog.Catalog {
	return registerAll(t,
		cachedTable("rankings_mem", data.RankingsSchema),
		cachedTable("uservisits_mem", data.UserVisitsSchema),
		&catalog.Table{Name: "uservisits", Schema: data.UserVisitsSchema, File: "data/uservisits"},
		cachedTable("uv_disk", data.UserVisitsSchema),
		cachedTable("sessions_mem", data.SessionsSchema),
		cachedTable("points_mem", data.PointsSchema(10)),
	)
}

func diffCatalog(t *testing.T) *catalog.Catalog {
	return registerAll(t, cachedTable("t", row.Schema{
		{Name: "id", Type: row.TInt}, {Name: "i_raw", Type: row.TInt}, {Name: "i_rle", Type: row.TInt},
		{Name: "i_pack", Type: row.TInt}, {Name: "i_dict", Type: row.TInt}, {Name: "f_raw", Type: row.TFloat},
		{Name: "f_rle", Type: row.TFloat}, {Name: "s_raw", Type: row.TString}, {Name: "s_dict", Type: row.TString},
		{Name: "b", Type: row.TBool}, {Name: "d", Type: row.TDate}, {Name: "allnull", Type: row.TInt},
	}), cachedTable("u", row.Schema{
		{Name: "uid", Type: row.TInt}, {Name: "k_int", Type: row.TInt}, {Name: "k_str", Type: row.TString},
		{Name: "k_f", Type: row.TFloat}, {Name: "w", Type: row.TFloat}, {Name: "tag", Type: row.TString},
	}))
}

// renderPlan is what the golden file holds for one statement: the
// output column names, plan.Explain, and — Explain does not print them
// — each cached scan's pruning predicates.
func renderPlan(cat *catalog.Catalog, s goldenStmt) string {
	st, err := sqlparse.Parse(s.sql)
	if err == nil && s.args != nil {
		st, err = sqlparse.Bind(st, s.args)
	}
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	n, err := Analyze(cat, st.(*sqlparse.SelectStmt))
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "columns: %q\n%s", n.Schema().Names(), Explain(n))
	var walk func(Node)
	walk = func(n Node) {
		if sc, ok := n.(*Scan); ok {
			for _, p := range sc.Pruning {
				eq := make([]string, len(p.Eq))
				for i, v := range p.Eq {
					eq[i] = row.FormatValue(v)
				}
				sort.Strings(eq) // an IN set's members come in map order
				fmt.Fprintf(&b, "prune %s: col=%d lo=%v hi=%v eq=%v\n", sc.Table.Name, p.Col, p.Lo, p.Hi, eq)
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return b.String()
}

// TestExplainGolden: nothing that planned before the expression layer
// was unified plans differently. testdata/explain.golden was written by
// the planner of the commit before that change; -update rewrites it.
func TestExplainGolden(t *testing.T) {
	var b strings.Builder
	for _, g := range goldenGroups {
		cat := g.cat(t)
		for _, s := range g.stmts {
			fmt.Fprintf(&b, "== %s: %s\n", g.name, strings.Join(strings.Fields(s.sql), " "))
			if s.args != nil {
				fmt.Fprintf(&b, "args: %v\n", s.args)
			}
			b.WriteString(renderPlan(cat, s))
		}
	}
	const path = "testdata/explain.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("plan differs from %s at line %d:\n  got  %s\n  want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("plan output has %d lines, %s has %d", len(gl), path, len(wl))
}
