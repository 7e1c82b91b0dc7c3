package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"shark/internal/catalog"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/mr"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// Tests of what crosses the shuffle between the map and reduce sides of
// a hash aggregate (partial-aggregate blocks) and of a join (keyed
// rows), end to end.

// hiveRows runs sql on the Hive/MapReduce baseline over e's DFS files:
// each named table is the file writeDFS made for it.
func hiveRows(t *testing.T, e *testEnv, sql string, tables map[string]row.Schema) []row.Row {
	t.Helper()
	cat := catalog.New()
	for name, schema := range tables {
		meta, err := e.fs.Stat("data/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Register(&catalog.Table{Name: name, Schema: schema, File: "data/" + name, Format: dfs.Text, EstRows: meta.TotalRows()}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Analyze(cat, st.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	hive := mr.NewHive(mr.NewEngine(e.s.Ctx.Cluster, e.fs, filepath.Join(t.TempDir(), "mr")), mr.HiveOptions{})
	res, err := hive.Run(p)
	if err != nil {
		t.Fatalf("hive: %v\n%s", err, sql)
	}
	return res.Rows
}

// TestJoinNullKeysUnderEveryStrategy: NULL equals no key, itself
// included, and every pair of rows with equal keys joins, however the
// join runs — map join or shuffle join, under every strategy mode, and
// co-partitioned. Both sides hold NULL keys and duplicate non-NULL keys
// (many-to-many). In one case the left side has more rows under every
// key, so a shuffle join builds each bucket on the right and a map
// join broadcasts the right; the other case mirrors it.
func TestJoinNullKeysUnderEveryStrategy(t *testing.T) {
	tables := map[string]row.Schema{
		"l": {{Name: "k", Type: row.TString}, {Name: "v", Type: row.TInt}},
		"r": {{Name: "k", Type: row.TString}, {Name: "w", Type: row.TInt}},
	}
	larger := []row.Row{{nil, int64(1)}, {"a", int64(2)}, {nil, int64(3)}, {"a", int64(4)}, {"a", int64(5)},
		{"b", int64(6)}, {"b", int64(7)}, {"b", int64(8)}, {"c", int64(9)}}
	smaller := []row.Row{{nil, int64(10)}, {"a", int64(20)}, {"a", int64(30)}, {"b", int64(40)}, {nil, int64(50)}}
	const join = `SELECT l.k, l.v, r.w FROM l JOIN r ON l.k = r.k`
	for _, tc := range []struct {
		name string
		l, r []row.Row
	}{{"left larger", larger, smaller}, {"right larger", smaller, larger}} {
		env := func(opts exec.Options) *testEnv {
			e := newEnv(t, opts)
			t.Cleanup(e.s.Close)
			e.writeDFS(t, "l", tables["l"], tc.l)
			e.writeDFS(t, "r", tables["r"], tc.r)
			return e
		}
		e := env(exec.Options{})
		want := diffSorted(hiveRows(t, e, join, tables))
		if len(want) != 9 {
			t.Fatalf("%s: hive joins %v, want the 3×2 + 3×1 pairs of non-NULL keys", tc.name, want)
		}
		check := func(name string, e *testEnv, sql string) {
			t.Helper()
			res := e.mustExec(t, sql)
			if err := diffSameBag(res.Rows, want); err != nil {
				t.Errorf("%s, %s (%v): %v", tc.name, name, res.Stats.JoinStrategies, err)
			}
		}
		for _, mode := range []exec.StrategyMode{exec.StrategyStaticAdaptive, exec.StrategyAdaptive, exec.StrategyStatic} {
			for _, threshold := range []int64{1, 0} { // 1 byte: always a shuffle join; 0: the default, a map join here
				e := env(exec.Options{JoinStrategy: mode, BroadcastThreshold: threshold})
				check(fmt.Sprintf("%s, broadcast threshold %d", mode, threshold), e, join)
				if n := e.mustExec(t, `SELECT COUNT(*) FROM l JOIN r ON l.k = r.k`).Rows[0][0]; n != int64(len(want)) {
					t.Errorf("%s, %s, broadcast threshold %d: COUNT(*) = %v, want %d", tc.name, mode, threshold, n, len(want))
				}
			}
		}
		e.mustExec(t, `CREATE TABLE lc TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM l DISTRIBUTE BY k`)
		e.mustExec(t, `CREATE TABLE rc TBLPROPERTIES ("shark.cache"="true", "copartition"="lc") AS SELECT * FROM r DISTRIBUTE BY k`)
		check("co-partitioned", e, `SELECT lc.k, lc.v, rc.w FROM lc JOIN rc ON lc.k = rc.k`)
	}
}

// TestJoinMixedNumericKeys: a BIGINT key joins a DOUBLE key of equal
// value, as a WHERE compares them — in the ON and the implicit form,
// under every strategy mode as a map join and as a shuffle join, over
// cached and DFS tables, and in the Hive baseline.
func TestJoinMixedNumericKeys(t *testing.T) {
	tables := map[string]row.Schema{
		"a": {{Name: "i", Type: row.TInt}},
		"b": {{Name: "f", Type: row.TFloat}},
	}
	want := []row.Row{{int64(3), 3.0}}
	env := func(opts exec.Options) *testEnv {
		e := newEnv(t, opts)
		t.Cleanup(e.s.Close)
		e.writeDFS(t, "a", tables["a"], []row.Row{{int64(3)}, {int64(4)}, {nil}})
		e.writeDFS(t, "b", tables["b"], []row.Row{{3.0}, {4.5}, {nil}})
		e.mustExec(t, `CREATE TABLE a_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM a`)
		e.mustExec(t, `CREATE TABLE b_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM b`)
		return e
	}
	const (
		on       = `SELECT a.i, b.f FROM a JOIN b ON a.i = b.f`
		implicit = `SELECT a.i, b.f FROM a, b WHERE b.f = a.i`
		cached   = `SELECT a_mem.i, b_mem.f FROM a_mem JOIN b_mem ON a_mem.i = b_mem.f`
	)
	e := env(exec.Options{})
	for _, sql := range []string{on, implicit} {
		if err := diffSameBag(hiveRows(t, e, sql, tables), want); err != nil {
			t.Errorf("hive: %v\n%s", err, sql)
		}
	}
	for _, mode := range []exec.StrategyMode{exec.StrategyStaticAdaptive, exec.StrategyAdaptive, exec.StrategyStatic} {
		for _, threshold := range []int64{1, 0} { // 1 byte: always a shuffle join; 0: the default, a map join here
			e := env(exec.Options{JoinStrategy: mode, BroadcastThreshold: threshold})
			for _, sql := range []string{on, implicit, cached} {
				res := e.mustExec(t, sql)
				if err := diffSameBag(res.Rows, want); err != nil {
					t.Errorf("%s, broadcast threshold %d (%v): %v\n%s", mode, threshold, res.Stats.JoinStrategies, err, sql)
				}
			}
		}
	}
}

// TestNullGroupIsNotAString: the NULL group and a group whose string
// key happens to spell a NULL marker are two groups, in a cached table,
// a DFS table and the Hive baseline alike.
func TestNullGroupIsNotAString(t *testing.T) {
	schema := row.Schema{{Name: "k", Type: row.TString}, {Name: "v", Type: row.TFloat}}
	e := newEnv(t, exec.Options{})
	defer e.s.Close()
	e.writeDFS(t, "t_ext", schema, []row.Row{{"\x00null\x00", 5.0}, {nil, 1.0}})
	e.mustExec(t, `CREATE TABLE t TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM t_ext`)
	want := diffSorted([]row.Row{{nil, int64(1), 1.0}, {"\x00null\x00", int64(1), 5.0}})
	const sql = `SELECT k, COUNT(*), SUM(v) FROM %s GROUP BY k`
	for _, table := range []string{"t", "t_ext"} {
		if err := diffSameBag(e.mustExec(t, fmt.Sprintf(sql, table)).Rows, want); err != nil {
			t.Errorf("%s: %v", table, err)
		}
	}
	if err := diffSameBag(hiveRows(t, e, fmt.Sprintf(sql, "t_ext"), map[string]row.Schema{"t_ext": schema}), want); err != nil {
		t.Errorf("hive: %v", err)
	}
}

// TestFloatAggregatesBitIdentical: float SUM and AVG over a
// six-partition table are, bit for bit, what the engine computed before
// partial aggregates crossed the shuffle as column blocks (recorded
// below). Each group's partial sums are added in the same order — map
// partition order within its bucket — starting from the first.
func TestFloatAggregatesBitIdentical(t *testing.T) {
	e := newEnv(t, exec.Options{})
	defer e.s.Close()
	schema := row.Schema{{Name: "g", Type: row.TInt}, {Name: "f", Type: row.TFloat}}
	rng := rand.New(rand.NewSource(29))
	rows := make([]row.Row, 4200)
	for i := range rows {
		rows[i] = row.Row{int64(i % 7), rng.Float64()*1000 - 300}
	}
	e.writeDFS(t, "f_ext", schema, rows)
	e.mustExec(t, `CREATE TABLE f TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM f_ext`)
	tbl, err := e.s.Cat.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.Mem.NumPartitions(); n != 6 {
		t.Fatalf("the table has %d partitions, want 6", n)
	}
	// Recorded: group → SUM bits, AVG bits; group -1 is the global aggregate.
	want := map[int64][2]uint64{
		-1: {0x4129ad46bde1681d, 0x40690a826e15da14},
		0:  {0x40fc6dc5ad873a4f, 0x4068425d977da266},
		1:  {0x40fea236d05e47d5, 0x406a2405d08710ec},
		2:  {0x40fb9525f37af399, 0x406789835f213d19},
		3:  {0x40fe1f0b2b937a54, 0x4069b4172f6cc7f6},
		4:  {0x40fcffbc78a6fecf, 0x4068beebec139f69},
		5:  {0x40ff4a3a9c8406bd, 0x406ab365370dad01},
		6:  {0x40fc5c113cec4b4e, 0x40683341e8e4f1c1},
	}
	got := map[int64][2]uint64{}
	for _, r := range e.mustExec(t, `SELECT g, SUM(f), AVG(f) FROM f GROUP BY g`).Rows {
		got[r[0].(int64)] = [2]uint64{math.Float64bits(r[1].(float64)), math.Float64bits(r[2].(float64))}
	}
	r := e.mustExec(t, `SELECT SUM(f), AVG(f) FROM f`).Rows[0]
	got[-1] = [2]uint64{math.Float64bits(r[0].(float64)), math.Float64bits(r[1].(float64))}
	if len(got) != len(want) {
		t.Errorf("%d groups, want %d", len(got), len(want))
	}
	for g, w := range want {
		if got[g] != w {
			t.Errorf("group %d: SUM, AVG bits %#x, want %#x", g, got[g], w)
		}
	}
}

// TestAggregateSurvivesWorkerLossBeforeReduce kills a worker holding
// map output after the map stage of a group-by has run and before its
// reduce stage: the reduce tasks' fetches fail, the scheduler rebuilds
// the lost blocks from lineage, and the answer is the same.
func TestAggregateSurvivesWorkerLossBeforeReduce(t *testing.T) {
	e := newEnv(t, exec.Options{})
	defer e.s.Close()
	setupVisits(t, e, 3000, true)
	const sql = `SELECT sourceIP, COUNT(*), SUM(adRevenue), MAX(destURL) FROM uservisits GROUP BY sourceIP`
	want := diffSorted(e.mustExec(t, sql).Rows)
	tr, err := e.s.Query(sql) // compiles: runs the map stage, not the reduce
	if err != nil {
		t.Fatal(err)
	}
	shuffles := rdd.LineageShuffleIDs(tr.RDD)
	if len(shuffles) != 1 {
		t.Fatalf("the result's lineage holds shuffles %v, want the aggregate's one", shuffles)
	}
	victim := e.s.Ctx.Tracker().Locations(shuffles[0])[0]
	failures := e.s.Ctx.Scheduler().Metrics().FetchFailures.Load()
	e.s.Ctx.Cluster.Kill(victim)
	defer e.s.Ctx.Cluster.Restart(victim)
	got, err := tr.RDD.CollectCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]row.Row, len(got))
	for i, v := range got {
		rows[i] = v.(row.Row)
	}
	if err := diffSameBag(rows, want); err != nil {
		t.Error(err)
	}
	if e.s.Ctx.Scheduler().Metrics().FetchFailures.Load() == failures {
		t.Error("no fetch failed: the killed worker held no map output, and the test proves nothing")
	}
}

// TestCachedKernelsMatchHive: each statement over a cached table
// returns what the Hive baseline returns reading its text file. The
// 16 KB DFS blocks cut the table into partitions of a few hundred rows,
// shorter than a batch, so the kernels' buffers are too; the NULLs of a
// built-in's result, of a failed CAST and of a NULL literal meet them in
// arithmetic. f holds alternating runs of 0 and -0, which run-length
// encoding must keep apart (row.FormatValue prints -0).
func TestCachedKernelsMatchHive(t *testing.T) {
	e := newEnv(t, exec.Options{})
	schema := row.Schema{{Name: "id", Type: row.TInt}, {Name: "f", Type: row.TFloat}, {Name: "s", Type: row.TString}}
	rows := make([]row.Row, 1000)
	for i := range rows {
		s := any(fmt.Sprintf("%d", i))
		if i%3 == 1 {
			s = fmt.Sprintf("not a number, row %d of a long enough line", i)
		} else if i%7 == 0 {
			s = nil
		}
		rows[i] = row.Row{int64(i), []float64{0, math.Copysign(0, -1)}[i/10%2], s}
	}
	e.writeDFS(t, "z", schema, rows)
	e.mustExec(t, `CREATE TABLE z_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM z`)
	for _, q := range []string{
		`SELECT id, CAST(f AS STRING) FROM %s ORDER BY id`,
		`SELECT id, LENGTH(s) + 1 FROM %s ORDER BY id`,
		`SELECT id, CAST(s AS BIGINT) * 2 FROM %s ORDER BY id`,
		`SELECT id, YEAR(NULL) + 1 FROM %s ORDER BY id`,
	} {
		got := e.mustExec(t, fmt.Sprintf(q, "z_mem")).Rows
		want := hiveRows(t, e, fmt.Sprintf(q, "z"), map[string]row.Schema{"z": schema})
		if len(got) != len(want) || len(got) != len(rows) {
			t.Fatalf("%s: %d rows, Hive %d, want %d", q, len(got), len(want), len(rows))
		}
		for i := range got {
			if got[i][1] != want[i][1] {
				t.Fatalf("%s: row %d: %#v, Hive %#v", q, i, got[i][1], want[i][1])
			}
		}
	}
	for i, r := range e.mustExec(t, `SELECT id, CAST(f AS STRING) FROM z_mem ORDER BY id`).Rows {
		if r[1] != row.FormatValue(rows[i][1]) {
			t.Fatalf("row %d: %v, stored %v", i, r[1], rows[i][1])
		}
	}
}
