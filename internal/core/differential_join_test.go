package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shark/internal/catalog"
	"shark/internal/cluster"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/mr"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
	"shark/internal/sqlparse"
)

// The differential test for joins: seeded statements joining the
// differential table t to a second table u on int, string and mixed
// int/float keys — NULL keys, a hot key and keys that never match among
// them — with filters reading both sides, projected expressions and
// GROUP BY above the join. Each runs under every join strategy as a map
// join and as a shuffle join, with adaptive execution off, over a disk
// shuffle, and on a cluster whose join blocks spill, and must bag-equal
// the Hive/MapReduce baseline.

const (
	joinSeed    = 20132
	joinURows   = 300
	joinQueries = 48
)

var joinUSchema = row.Schema{
	{Name: "uid", Type: row.TInt},
	{Name: "k_int", Type: row.TInt},
	{Name: "k_str", Type: row.TString},
	{Name: "k_f", Type: row.TFloat},
	{Name: "w", Type: row.TFloat},
	{Name: "tag", Type: row.TString},
}

// joinURowsData draws u's keys from t's own values (as the DFS file
// spells them), so that they match: a tenth NULL, a tenth never
// matching, a fifth one hot key, and a few rows keyed by a frequent
// string of t.
func joinURowsData() []row.Row {
	rng := rand.New(rand.NewSource(joinSeed))
	src := diffRowsData()
	col := diffSchema.Index
	hot := diffTextRow(17, src[17])
	out := make([]row.Row, joinURows)
	for i := range out {
		j := rng.Intn(len(src))
		from := diffTextRow(j, src[j])
		var kInt, kStr, kF any
		switch r := rng.Intn(10); {
		case r == 0: // NULL keys
		case r == 1:
			kInt, kStr, kF = int64(5_000_000+i), fmt.Sprintf("none-%d", i), 0.5+float64(i)
		case r <= 3:
			from = hot
			fallthrough
		default:
			kInt, kStr = from[col("i_pack")], from[col("s_raw")]
			if f, ok := from[col("f_raw")].(float64); ok && i%2 == 0 {
				kInt = int64(f) // a whole f_raw's value in half the rows
			}
			if x, ok := kInt.(int64); ok {
				kF = float64(x)
			}
		}
		if i%37 == 0 {
			kStr = "beta" // an s_dict value: a few thousand pairs
		}
		w := any(float64(rng.Intn(1000)) / 2)
		if rng.Intn(6) == 0 {
			w = nil
		}
		out[i] = row.Row{int64(i), kInt, kStr, kF, w, []string{"alpha", "ab", "z", ""}[rng.Intn(4)]}
	}
	return out
}

// joinFixed are statements run ahead of the generated ones: t joined
// to itself, the filtered side building from blocks of each of t's map
// tasks, dictionary-coded strings among their columns.
var joinFixed = []string{
	`SELECT a.id, b.id, a.s_dict, b.s_raw, a.f_raw FROM t a JOIN t b ON a.i_pack = b.i_pack WHERE a.id % 2 = 0`,
	`SELECT a.s_dict, COUNT(*), SUM(b.f_raw), MIN(a.s_raw) FROM t a JOIN t b ON a.i_pack = b.i_pack WHERE a.id % 3 = 0 GROUP BY a.s_dict`,
}

func (g *diffGen) joinKey() string {
	return g.pick(
		"t.i_pack = u.k_int", "u.k_int = t.i_pack", "t.id = u.k_int", // int
		"t.s_raw = u.k_str", "u.k_str = t.s_dict", // string
		"t.i_pack = u.k_f", "t.f_raw = u.k_int", "u.k_f = t.i_dict", // mixed int/float
	)
}

// joinPred is a predicate over both sides of the join.
func (g *diffGen) joinPred() string {
	return g.pick(
		"t.i_pack > u.w", "u.w + t.f_raw > 700", "t.s_dict <> u.tag",
		"(u.tag LIKE 'a%' OR t.i_dict = 7)", "(t.b AND u.w < 300)",
		"(u.k_int IS NOT NULL AND t.f_rle IS NULL)", "LENGTH(u.tag) + t.i_dict > 8",
		"NOT (u.uid % 3 = t.id % 3)", "u.uid < 40", // one side's, pushed to its scan: tasks with no rows
	)
}

func (g *diffGen) joinStatement() string {
	key := g.joinKey()
	var where []string
	if g.rng.Intn(3) > 0 {
		where = append(where, g.joinPred())
	}
	from := "t JOIN u ON " + key
	if g.rng.Intn(3) == 0 {
		from, where = "t, u", append(where, key)
	}
	items, groupBy := []string{"t.id", "u.uid"}, ""
	if g.rng.Intn(2) == 0 {
		for range 1 + g.rng.Intn(3) {
			items = append(items, g.pick("t.i_pack + u.k_int", "u.w * 2 + t.f_raw", "SUBSTR(u.tag, 1, 1)",
				"t.s_dict", "u.k_str", "u.k_f", "t.d", "CONCAT(u.tag, t.s_dict)", "t.i_dict - u.uid"))
		}
	} else {
		key := g.pick("u.tag", "t.i_dict", "t.s_dict", "u.k_int % 5", "SUBSTR(u.k_str, 1, 3)", "t.b")
		items, groupBy = []string{key, "COUNT(*)"}, " GROUP BY "+key
		for range 1 + g.rng.Intn(2) {
			items = append(items, g.pick("SUM(u.w)", "AVG(t.f_raw)", "MIN(t.s_raw)", "MAX(u.uid)",
				"COUNT(DISTINCT t.i_dict)", "SUM(t.i_pack)", "MAX(u.k_f)"))
		}
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", strings.Join(items, ", "), from)
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql + groupBy
}

// joinExecutors returns the configurations every join statement runs
// under, the Hive baseline first.
func joinExecutors(t *testing.T) []diffExecutor {
	fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]row.Schema{"data/join/t": diffSchema, "data/join/u": joinUSchema}
	write := func(file string, rows []row.Row, dress func(int, row.Row) row.Row) {
		w, err := fs.Create(file, dfs.Text, files[file])
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if err := w.Write(dress(i, r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("data/join/t", diffRowsData(), diffTextRow)
	write("data/join/u", joinURowsData(), func(_ int, r row.Row) row.Row { return r })

	newCtx := func(cfg cluster.Config) *rdd.Context {
		cl := cluster.New(cfg)
		t.Cleanup(cl.Close)
		return rdd.NewContext(cl, shuffle.NewService(cl, shuffle.Memory, t.TempDir()), rdd.Options{})
	}
	ctx := newCtx(cluster.Config{Workers: 3, Slots: 2, WorkerDiskBytes: -1})
	// Join blocks spill through their codec: the shuffle budget holds
	// almost nothing.
	spillCtx := newCtx(cluster.Config{Workers: 3, Slots: 2, WorkerDiskBytes: -1, WorkerShuffleBytes: 2 << 10})

	on := func(ctx *rdd.Context, name string, opts exec.Options) diffExecutor {
		s := NewSessionNamed(ctx, fs, catalog.New(), name, opts)
		t.Cleanup(s.Close)
		for _, tbl := range []string{"t", "u"} {
			if err := s.RegisterExternal(tbl+"_src", "data/join/"+tbl, files["data/join/"+tbl]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec(fmt.Sprintf(`CREATE TABLE %s TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM %[1]s_src`, tbl)); err != nil {
				t.Fatal(err)
			}
		}
		return diffExecutor{name: name, run: func(sql string) ([]row.Row, error) {
			res, err := s.Exec(sql)
			if err != nil {
				return nil, err
			}
			return res.Rows, nil
		}}
	}

	hiveCat := catalog.New()
	for file, schema := range files {
		meta, err := fs.Stat(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := hiveCat.Register(&catalog.Table{Name: filepath.Base(file), Schema: schema, File: file, Format: dfs.Text, EstRows: meta.TotalRows()}); err != nil {
			t.Fatal(err)
		}
	}
	hive := mr.NewHive(mr.NewEngine(ctx.Cluster, fs, filepath.Join(t.TempDir(), "mrshuffle")), mr.HiveOptions{})
	execs := []diffExecutor{{name: "hive", run: func(sql string) ([]row.Row, error) {
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
	}}}
	for _, mode := range []exec.StrategyMode{exec.StrategyStaticAdaptive, exec.StrategyAdaptive, exec.StrategyStatic} {
		for _, threshold := range []int64{1, 1 << 30} { // 1 byte: a shuffle join; 1 GiB: a map join
			execs = append(execs, on(ctx, fmt.Sprintf("%s/broadcast<%d", mode, threshold),
				exec.Options{JoinStrategy: mode, BroadcastThreshold: threshold}))
		}
	}
	execs = append(execs, on(ctx, "static", exec.Options{DisableAdaptiveExec: true}),
		on(ctx, "static/shuffle-join", exec.Options{DisableAdaptiveExec: true, BroadcastThreshold: 1}))
	diskCtx := diskShuffleCtx(t)
	execs = append(execs, on(diskCtx, "disk-shuffle", exec.Options{BroadcastThreshold: 1}),
		on(diskCtx, "disk-shuffle/static", exec.Options{DisableAdaptiveExec: true, BroadcastThreshold: 1}))
	spilled := on(spillCtx, "spilled-shuffle", exec.Options{BroadcastThreshold: 1})
	spilled.done = func() error {
		if spillCtx.Shuffle.Metrics().SpilledReads.Load() == 0 {
			return fmt.Errorf("no shuffle bucket was read back from disk")
		}
		return nil
	}
	return append(execs, spilled)
}

func TestDifferentialJoin(t *testing.T) {
	execs := joinExecutors(t)
	g := &diffGen{rng: rand.New(rand.NewSource(joinSeed))}
	queries := append([]string(nil), joinFixed...)
	for range joinQueries {
		queries = append(queries, g.joinStatement())
	}
	want := make([][]row.Row, len(queries))
	matched := 0
	for i := range queries {
		rows, err := execs[0].run(queries[i])
		if err != nil {
			t.Fatalf("seed %d query %d on %s: %v\n%s", joinSeed, i, execs[0].name, err, queries[i])
		}
		if len(rows) > 0 {
			matched++
		}
		want[i] = diffSorted(rows)
	}
	if matched < len(queries)*3/4 {
		t.Errorf("only %d of %d statements return rows: the generator proves little", matched, len(queries))
	}
	var wg sync.WaitGroup
	for _, ex := range execs[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, sql := range queries {
				got, err := ex.run(sql)
				if err == nil {
					err = diffSameBag(got, want[i])
				}
				if err != nil {
					t.Errorf("seed %d query %d: %s disagrees with %s: %v\n%s", joinSeed, i, ex.name, execs[0].name, err, sql)
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
