// Package harness implements the experiment runners that regenerate
// every table and figure of the paper's evaluation section (§6), plus
// the ablation benchmarks docs/ARCHITECTURE.md calls out. Each experiment sets up
// a Shark environment (Spark-profiled cluster, memstore) and a Hive
// environment (Hadoop-profiled cluster, MapReduce over DFS), both over
// one shared simulated DFS, runs the paper's queries, and reports the
// per-system runtimes.
package harness

import (
	"fmt"
	"os"
	"time"

	"shark/internal/catalog"
	"shark/internal/cluster"
	"shark/internal/core"
	"shark/internal/data"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/mr"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
	"shark/internal/sqlparse"
)

// Scale sizes the generated datasets and the simulated cluster. The
// paper's row counts are scaled down proportionally; group
// cardinalities and distributions are preserved.
type Scale struct {
	Rankings    int
	UserVisits  int
	Lineitem    int // "100 GB" dataset
	LineitemBig int // "1 TB" dataset
	Supplier    int
	Sessions    int
	MLPoints    int
	MLDim       int
	MLIters     int

	Workers int
	Slots   int
	// WorkerMemoryBytes bounds each Shark worker's block store
	// (0 = unbounded). Threaded into the simulated cluster so every
	// experiment can run under memory pressure.
	WorkerMemoryBytes int64
	// WorkerDiskBytes sizes each Shark worker's local-disk spill tier
	// (0 = disabled, negative = unbounded) — the abl_storage sweep and
	// any experiment run with shark-bench -disk exercise it.
	WorkerDiskBytes int64
	// Reps is how many timed repetitions to average (after one
	// discarded warm-up, mirroring §6.1).
	Reps int
}

// SmallScale is CI-sized: every experiment finishes in seconds.
func SmallScale() Scale {
	return Scale{
		Rankings: 20000, UserVisits: 60000,
		Lineitem: 40000, LineitemBig: 120000, Supplier: 4000,
		Sessions: 40000, MLPoints: 20000, MLDim: 10, MLIters: 3,
		Workers: 4, Slots: 2, Reps: 1,
	}
}

// DefaultScale is benchmark-sized.
func DefaultScale() Scale {
	return Scale{
		Rankings: 150000, UserVisits: 400000,
		Lineitem: 250000, LineitemBig: 1000000, Supplier: 20000,
		Sessions: 250000, MLPoints: 100000, MLDim: 10, MLIters: 5,
		Workers: 8, Slots: 2, Reps: 2,
	}
}

// LargeScale is soak-sized: several times the default data volumes on
// a wider cluster, for trajectory runs on real hardware rather than
// CI (minutes, not seconds).
func LargeScale() Scale {
	return Scale{
		Rankings: 500000, UserVisits: 1500000,
		Lineitem: 800000, LineitemBig: 3000000, Supplier: 60000,
		Sessions: 800000, MLPoints: 300000, MLDim: 10, MLIters: 5,
		Workers: 16, Slots: 2, Reps: 3,
	}
}

// Env is one experiment's world: a shared DFS, a Spark-profiled
// cluster running the Shark session, and a Hadoop-profiled cluster
// running the Hive executor.
type Env struct {
	Scale Scale
	FS    *dfs.FS

	SharkCluster *cluster.Cluster
	Shark        *core.Session

	HadoopCluster *cluster.Cluster
	MR            *mr.Engine
	HiveCat       *catalog.Catalog

	dir     string
	ownsDir bool
}

// world is the Shark side of an experiment: a Spark-profiled cluster
// with a shuffle service and an RDD context over it.
type world struct {
	cl  *cluster.Cluster
	ctx *rdd.Context
}

// newWorld builds a cluster of the scale's shape with the given
// per-worker memory and disk budgets. dir roots its spill and shuffle
// files; "" leaves both to the defaults (temp dir, in-memory only).
func newWorld(sc Scale, memBytes, diskBytes int64, mode shuffle.Mode, dir string) *world {
	cfg := cluster.Config{
		Workers:           sc.Workers,
		Slots:             sc.Slots,
		Profile:           cluster.SparkProfile(),
		WorkerMemoryBytes: memBytes,
		WorkerDiskBytes:   diskBytes,
	}
	shuffleDir := ""
	if dir != "" {
		cfg.SpillDir, shuffleDir = dir+"/spill", dir+"/shuffle"
	}
	cl := cluster.New(cfg)
	return &world{cl: cl, ctx: rdd.NewContext(cl, shuffle.NewService(cl, mode, shuffleDir), rdd.Options{})}
}

// close tears the cluster down, snapshotting its dispatcher/cache
// metrics into the running experiment's report under label.
func (w *world) close(label string) {
	noteClusterMetrics(label, w.ctx)
	w.cl.Close()
}

// NewEnv builds an environment. opts tunes the Shark engine.
func NewEnv(sc Scale, opts exec.Options) (*Env, error) {
	return newEnv(sc, opts, shuffle.Memory)
}

// newEnv is NewEnv with the Shark side's shuffle mode chosen
// (abl_shuffle runs it on disk).
func newEnv(sc Scale, opts exec.Options, mode shuffle.Mode) (*Env, error) {
	dir, err := os.MkdirTemp("", "shark-bench-*")
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(dfs.Config{Dir: dir + "/dfs", BlockSize: 512 << 10})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}

	w := newWorld(sc, sc.WorkerMemoryBytes, sc.WorkerDiskBytes, mode, dir)

	hadoopCl := cluster.New(cluster.Config{Workers: sc.Workers, Slots: sc.Slots, Profile: cluster.HadoopProfile()})
	eng := mr.NewEngine(hadoopCl, fs, dir+"/mrshuffle")

	return &Env{
		Scale:         sc,
		FS:            fs,
		SharkCluster:  w.cl,
		Shark:         core.NewSession(w.ctx, fs, opts),
		HadoopCluster: hadoopCl,
		MR:            eng,
		HiveCat:       catalog.New(),
		dir:           dir,
		ownsDir:       true,
	}, nil
}

// Close tears the environment down, snapshotting the Shark cluster's
// dispatcher/cache metrics into the running experiment's report.
func (e *Env) Close() {
	noteClusterMetrics("shark env", e.Shark.Ctx)
	e.SharkCluster.Close()
	e.HadoopCluster.Close()
	if e.ownsDir {
		os.RemoveAll(e.dir)
	}
}

// GenTable writes a generated table to the DFS (text format, like the
// benchmarks' raw inputs) and registers it in both catalogs.
func (e *Env) GenTable(name string, schema row.Schema, gen func(func(row.Row) error) error) error {
	n, err := data.WriteFile(e.FS, "data/"+name, dfs.Text, schema, gen)
	if err != nil {
		return err
	}
	t := &catalog.Table{Name: name, Schema: schema, File: "data/" + name, Format: dfs.Text, EstRows: n}
	if err := e.Shark.Cat.Register(&catalog.Table{Name: t.Name, Schema: t.Schema, File: t.File, Format: t.Format, EstRows: t.EstRows}); err != nil {
		return err
	}
	return e.HiveCat.Register(t)
}

// CacheTable loads an external table into Shark's memstore under
// name+"_mem" (optionally DISTRIBUTE BY a column).
func (e *Env) CacheTable(name, distributeBy string, props map[string]string) error {
	sql := fmt.Sprintf(`CREATE TABLE %s_mem TBLPROPERTIES ("shark.cache"="true"%s) AS SELECT * FROM %s`,
		name, propsSQL(props), name)
	if distributeBy != "" {
		sql += " DISTRIBUTE BY " + distributeBy
	}
	_, err := e.Shark.Exec(sql)
	return err
}

func propsSQL(props map[string]string) string {
	out := ""
	for k, v := range props {
		out += fmt.Sprintf(`, "%s"="%s"`, k, v)
	}
	return out
}

// SharkQuery runs a SQL query on the Shark session.
func (e *Env) SharkQuery(sql string) (*core.Result, error) {
	return e.Shark.Exec(sql)
}

// HiveQuery runs a SQL query through the Hive/MapReduce executor.
// tunedReducers > 0 fixes the reduce count ("Hive (tuned)"); 0 uses
// Hive's auto estimate.
func (e *Env) HiveQuery(sql string, tunedReducers int) (*mr.Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("harness: hive query must be SELECT")
	}
	p, err := plan.Analyze(e.HiveCat, sel)
	if err != nil {
		return nil, err
	}
	h := mr.NewHive(e.MR, mr.HiveOptions{NumReduces: tunedReducers})
	return h.Run(p)
}

// TimeShark times a Shark query: one discarded warm-up, then the mean
// of Scale.Reps runs (§6.1 methodology).
func (e *Env) TimeShark(sql string) (float64, *core.Result, error) {
	res, err := e.SharkQuery(sql)
	if err != nil {
		return 0, nil, err
	}
	reps := e.Scale.Reps
	if reps < 1 {
		reps = 1
	}
	var total time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		res, err = e.SharkQuery(sql)
		if err != nil {
			return 0, nil, err
		}
		total += time.Since(start)
	}
	return total.Seconds() / float64(reps), res, nil
}

// TimeHive times a Hive query (single run — MR jobs are slow and
// deterministic in cost).
func (e *Env) TimeHive(sql string, tunedReducers int) (float64, *mr.Result, error) {
	start := time.Now()
	res, err := e.HiveQuery(sql, tunedReducers)
	if err != nil {
		return 0, nil, err
	}
	return time.Since(start).Seconds(), res, nil
}

// timeIt measures one function call in seconds.
func timeIt(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}
