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
	"strings"
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

	dir string
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

// emitFunc receives a generator's rows one at a time.
type emitFunc = func(row.Row) error

// dataset is one generated table: its schema and its internal/data
// generator, both sized from the Scale.
type dataset struct {
	schema func(Scale) row.Schema
	gen    func(Scale, emitFunc) error
}

func fixedSchema(s row.Schema) func(Scale) row.Schema {
	return func(Scale) row.Schema { return s }
}

// datasets is the one place a table name is tied to its shape. An
// experiment that wants a table at another size adjusts its Scale
// (fig7's 1 TB run sets Lineitem = LineitemBig) rather than writing
// its own generator.
var datasets = map[string]dataset{
	"rankings":   {fixedSchema(data.RankingsSchema), func(sc Scale, emit emitFunc) error { return data.Rankings(sc.Rankings, emit) }},
	"uservisits": {fixedSchema(data.UserVisitsSchema), func(sc Scale, emit emitFunc) error { return data.UserVisits(sc.UserVisits, sc.Rankings, emit) }},
	"lineitem":   {fixedSchema(data.LineitemSchema), func(sc Scale, emit emitFunc) error { return data.Lineitem(sc.Lineitem, sc.Supplier, emit) }},
	"supplier":   {fixedSchema(data.SupplierSchema), func(sc Scale, emit emitFunc) error { return data.Supplier(sc.Supplier, emit) }},
	"sessions":   {fixedSchema(data.SessionsSchema), func(sc Scale, emit emitFunc) error { return data.Sessions(sc.Sessions, 30, 50, emit) }},
	"points":     {func(sc Scale) row.Schema { return data.PointsSchema(sc.MLDim) }, func(sc Scale, emit emitFunc) error { return data.Points(sc.MLPoints, sc.MLDim, emit) }},
	"fact":       {fixedSchema(pdeFactSchema), pdeFact},
	"dim":        {fixedSchema(pdeDimSchema), pdeDim},
}

// newEnv builds an environment whose Shark side runs opts over the
// given shuffle mode, then creates tables in order: each names a
// dataset; a "_mem" suffix also caches it under that name. On any
// error the half-built environment is torn down.
func newEnv(sc Scale, opts exec.Options, mode shuffle.Mode, tables ...string) (*Env, error) {
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

	e := &Env{
		Scale:         sc,
		FS:            fs,
		SharkCluster:  w.cl,
		Shark:         core.NewSession(w.ctx, fs, opts),
		HadoopCluster: hadoopCl,
		MR:            eng,
		HiveCat:       catalog.New(),
		dir:           dir,
	}
	for _, t := range tables {
		if err := e.addTable(t); err != nil {
			e.Close()
			return nil, fmt.Errorf("harness: table %s: %w", t, err)
		}
	}
	return e, nil
}

// addTable generates one dataset into the DFS (text format, like the
// benchmarks' raw inputs), registers it in both catalogs and, for a
// "_mem" name, caches it.
func (e *Env) addTable(t string) error {
	name, cache := strings.CutSuffix(t, "_mem")
	ds, ok := datasets[name]
	if !ok {
		return fmt.Errorf("unknown dataset %q", name)
	}
	schema := ds.schema(e.Scale)
	n, err := data.WriteFile(e.FS, "data/"+name, dfs.Text, schema, func(emit emitFunc) error { return ds.gen(e.Scale, emit) })
	if err != nil {
		return err
	}
	for _, cat := range []*catalog.Catalog{e.Shark.Cat, e.HiveCat} {
		err := cat.Register(&catalog.Table{Name: name, Schema: schema, File: "data/" + name, Format: dfs.Text, EstRows: n})
		if err != nil {
			return err
		}
	}
	if cache {
		return e.CacheTable(name)
	}
	return nil
}

// Close tears the environment down, snapshotting the Shark cluster's
// dispatcher/cache metrics into the running experiment's report.
func (e *Env) Close() {
	noteClusterMetrics("shark env", e.Shark.Ctx)
	e.SharkCluster.Close()
	e.HadoopCluster.Close()
	os.RemoveAll(e.dir)
}

// CacheTable loads an external table into Shark's memstore under
// name+"_mem".
func (e *Env) CacheTable(name string) error {
	_, err := e.Shark.Exec(fmt.Sprintf(
		`CREATE TABLE %s_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM %[1]s`, name))
	return err
}

// registerSelectiveUDF registers name as a boolean UDF keeping 1
// string in 100 (those ending in "77") — a selectivity no static
// optimizer can see (paper §6.3.2: 1000 of 10M suppliers).
func (e *Env) registerSelectiveUDF(name string) error {
	return e.Shark.RegisterUDF(name, row.TBool, 1, 1, func(args []any) any {
		s, _ := args[0].(string)
		return strings.HasSuffix(s, "77")
	})
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

// timeRounds is the §6.1 methodology: one discarded warm-up call of f,
// then rounds timed calls, returned as seconds in call order.
func timeRounds(rounds int, f func() error) ([]float64, error) {
	if err := f(); err != nil {
		return nil, err
	}
	secs := make([]float64, rounds)
	for i := range secs {
		var err error
		if secs[i], err = timeIt(f); err != nil {
			return nil, err
		}
	}
	return secs, nil
}

// TimeShark times a Shark query: one discarded warm-up, then the mean
// of Scale.Reps runs.
func (e *Env) TimeShark(sql string) (float64, *core.Result, error) {
	var res *core.Result
	secs, err := timeRounds(max(e.Scale.Reps, 1), func() (err error) {
		res, err = e.Shark.Exec(sql)
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	var total float64
	for _, s := range secs {
		total += s
	}
	return total / float64(len(secs)), res, nil
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
