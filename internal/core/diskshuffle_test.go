package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"shark/internal/cluster"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// TestDiskShuffleQueries runs SQL (including aggregates and
// COUNT DISTINCT) over a disk-mode shuffle: partial-aggregate blocks
// must round-trip the on-disk bucket format.
func TestDiskShuffleQueries(t *testing.T) {
	c := cluster.New(cluster.Config{Workers: 4, Slots: 2})
	t.Cleanup(c.Close)
	svc := shuffle.NewService(c, shuffle.Disk, t.TempDir())
	ctx := rdd.NewContext(c, svc, rdd.Options{})
	fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	e := &testEnv{s: NewSession(ctx, fs, exec.Options{}), fs: fs}
	setupVisits(t, e, 2000, true)

	res := e.mustExec(t, `SELECT countryCode, COUNT(*) AS c, SUM(adRevenue),
		AVG(adRevenue), MIN(adRevenue), MAX(adRevenue), COUNT(DISTINCT destURL)
		FROM uservisits GROUP BY countryCode ORDER BY countryCode`)
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].(int64)
		if r[6].(int64) <= 0 || r[6].(int64) > 200 {
			t.Errorf("distinct urls out of range: %v", r[6])
		}
	}
	if total != 2000 {
		t.Errorf("total = %d", total)
	}

	// join through disk shuffle too
	e.writeDFS(t, "rankings_ext", rankingsSchema, genRankings(300))
	e.mustExec(t, `CREATE TABLE rankings TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM rankings_ext`)
	res = e.mustExec(t, `SELECT COUNT(*) FROM rankings JOIN uservisits ON rankings.pageURL = uservisits.destURL`)
	if res.Rows[0][0].(int64) <= 0 {
		t.Errorf("join count = %v", res.Rows[0][0])
	}
}

// TestDiskShuffleMalformedBucketRecomputed: a disk-shuffle bucket file
// that does not decode — valid rows of the wrong shape, or cut short —
// is a lost map output. The reduce side's fetch fails, the scheduler
// re-runs the map tasks that wrote the files, and the query returns
// what it returns over an intact shuffle.
func TestDiskShuffleMalformedBucketRecomputed(t *testing.T) {
	c := cluster.New(cluster.Config{Workers: 2, Slots: 2})
	t.Cleanup(c.Close)
	dir := t.TempDir()
	ctx := rdd.NewContext(c, shuffle.NewService(c, shuffle.Disk, dir), rdd.Options{})
	fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive mode pre-shuffles the left side before the right side's
	// map tasks run, and a one-byte broadcast threshold keeps the
	// shuffle join, so the right side's filter sees the left side's
	// bucket files on disk and the reduce side reads them back.
	opts := exec.Options{JoinStrategy: exec.StrategyAdaptive, BroadcastThreshold: 1}
	e := &testEnv{s: NewSession(ctx, fs, opts), fs: fs}
	setupVisits(t, e, 2000, true)
	e.writeDFS(t, "rankings_ext", rankingsSchema, genRankings(300))
	e.mustExec(t, `CREATE TABLE rankings TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM rankings_ext`)

	wrongShape := append([]byte{'P'}, binary.AppendUvarint(nil, 1)...)
	wrongShape = row.EncodeBinary(wrongShape, row.Row{int64(1)})
	wrongShape = row.EncodeBinary(wrongShape, row.Row{int64(2)}) // no value-kind tag
	var armed atomic.Bool
	var once sync.Once
	spoiled := 0
	spoil := func() {
		files, err := filepath.Glob(filepath.Join(dir, "bucket-*"))
		if err != nil {
			panic(err)
		}
		sort.Strings(files)
		for i, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				panic(err)
			}
			if i == 0 {
				data = wrongShape
			} else {
				data = data[:len(data)/2]
			}
			if err := os.WriteFile(f, data, 0o644); err != nil {
				panic(err)
			}
			spoiled++
		}
	}
	if err := e.s.RegisterUDF("SPOIL", row.TBool, 1, 1, func([]any) any {
		if armed.Load() {
			once.Do(spoil)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT COUNT(*), SUM(rankings.pageRank) FROM rankings JOIN uservisits
		ON rankings.pageURL = uservisits.destURL WHERE SPOIL(uservisits.destURL)`
	want := e.mustExec(t, q)
	m := ctx.Scheduler().Metrics()
	reruns := m.MapStageReruns.Load()
	armed.Store(true)
	got := e.mustExec(t, q)
	if spoiled < 2 {
		t.Fatalf("spoiled %d bucket files, want the left side's", spoiled)
	}
	if m.MapStageReruns.Load() == reruns {
		t.Error("no map task re-ran after its bucket files were spoiled")
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || want.Rows[0][0].(int64) == 0 {
		t.Errorf("over spoiled bucket files: %v, want %v", got.Rows, want.Rows)
	}
}

// TestAggregateEmptyMapTasks: a map task that finds no group — a WHERE
// matching nothing in its partition, an empty join partition — shuffles
// no block, so a disk shuffle and a spilling memory shuffle read back
// only blocks of at least one group, and agree with a memory shuffle.
func TestAggregateEmptyMapTasks(t *testing.T) {
	schema := row.Schema{{Name: "k", Type: row.TInt}, {Name: "g", Type: row.TString}, {Name: "v", Type: row.TFloat}}
	rows := make([]row.Row, 3000)
	for i := range rows {
		rows[i] = row.Row{int64(i / 600), fmt.Sprintf("g%d", i%37), float64(i)}
	}
	env := func(cfg cluster.Config, mode shuffle.Mode) (*testEnv, *shuffle.Service) {
		c := cluster.New(cfg)
		t.Cleanup(c.Close)
		svc := shuffle.NewService(c, mode, t.TempDir())
		fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		e := &testEnv{s: NewSession(rdd.NewContext(c, svc, rdd.Options{}), fs, exec.Options{}), fs: fs}
		e.writeDFS(t, "t_ext", schema, rows)
		e.mustExec(t, `CREATE TABLE t TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM t_ext`)
		return e, svc
	}
	ref, _ := env(cluster.Config{Workers: 4, Slots: 2}, shuffle.Memory)
	disk, _ := env(cluster.Config{Workers: 4, Slots: 2}, shuffle.Disk)
	spill, spillSvc := env(cluster.Config{Workers: 4, Slots: 2, WorkerDiskBytes: -1, WorkerShuffleBytes: 1 << 10}, shuffle.Memory)
	for _, sql := range []string{
		`SELECT g, COUNT(*), SUM(v), MIN(g), COUNT(DISTINCT k) FROM t WHERE k = 0 GROUP BY g`,
		`SELECT g, COUNT(*) FROM t_ext WHERE k = 4 GROUP BY g`,
		`SELECT g, COUNT(*) FROM t WHERE k < 0 GROUP BY g`,
		`SELECT COUNT(*), SUM(v) FROM t WHERE k < 0`,
		`SELECT a.g, COUNT(*), MAX(b.v) FROM t a JOIN t b ON a.g = b.g WHERE a.k = 0 AND b.k = 1 GROUP BY a.g`,
		`SELECT a.g, COUNT(*) FROM t a JOIN t b ON a.g = b.g WHERE a.k < 0 GROUP BY a.g`,
	} {
		want := diffSorted(ref.mustExec(t, sql).Rows)
		for name, e := range map[string]*testEnv{"disk shuffle": disk, "spilled shuffle": spill} {
			res, err := e.s.Exec(sql)
			if err != nil {
				t.Errorf("%s: %v\n%s", name, err, sql)
				continue
			}
			if err := diffSameBag(res.Rows, want); err != nil {
				t.Errorf("%s: %v\n%s", name, err, sql)
			}
		}
	}
	if spillSvc.Metrics().SpilledReads.Load() == 0 {
		t.Error("no shuffle bucket was read back from disk")
	}
}
