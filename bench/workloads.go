package main

import (
	"context"
	"database/sql"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"shark"
	"shark/internal/data"
	"shark/internal/ml"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/server"

	_ "shark/driver" // registers the "shark" database/sql driver
)

// The fixed environment of every workload. Constants, not derived from
// the machine: the numbers must mean the same thing on every box.
const (
	clusterWorkers = 4
	clusterSlots   = 1
	mlDim          = 10
	mlIters        = 10
	mlRate         = 0.0001
)

// workload is one named benchmark input: how to set it up and why it
// is there. The why sentences are repeated in BENCHMARK.json.
type workload struct {
	name    string
	why     string
	clients int // closed-loop clients; never more than the box has cores
	setup   func(e *env, scale float64) error
}

var workloads = []*workload{
	{name: "scan_agg", clients: 1, setup: setupScanAgg,
		why: "cached-table selection and two group-bys: memstore decode, expression eval and partial aggregation do the work, shuffle and results are tiny"},
	{name: "shuffle_join", clients: 1, setup: setupShuffleJoin,
		why: "Pavlo join plus a one-group-per-row aggregate: shuffle write/fetch, hash join, PDE decisions and a large result dominate, scan is the minority"},
	{name: "serve_point", clients: 2, setup: setupServePoint,
		why: "map-pruned dashboard statements through database/sql and a loopback shark-server: fixed per-statement cost dominates, data-path layers do little"},
	{name: "serve_fetch", clients: 2, setup: setupServeFetch,
		why: "wide 12k-row result fully scanned through the driver: result encode, Fetch batching and driver decode are most of the op"},
	{name: "load_spill", clients: 1, setup: setupLoadSpill,
		why: "CTAS into memory then into the disk tier and a group-by read back from disk: the write side of the column store, DFS text decode and catalog churn"},
	{name: "ml_iter", clients: 1, setup: setupMLIter,
		why: "sql2rdd feature extraction, cache, then ten logistic-regression iterations: RDD scheduler, cached-partition reuse and the gradient kernel"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is one workload's world after set-up: the cluster, the session
// that loaded it, the statements of a round and what the layer probes
// need to know about its data.
type env struct {
	w    *workload
	seed int64
	dir  string

	cl   *shark.Cluster
	sess *shark.Session // embedded session, or the loader on a served cluster
	srv  *server.Server
	db   *sql.DB

	stmts []*stmt
	// twins maps each table name a SELECT reads to the DFS text file
	// holding the same rows; the Hive oracle runs on these.
	twins map[string]twin
	// probeTable is the cached table the memtable/columnar probes read
	// (empty when the workload keeps none resident); probeRows is a
	// sample of the workload's base rows with probeSchema.
	probeTable  string
	probeRows   []row.Row
	probeSchema row.Schema
	// logregRef is the single-goroutine reference model (ml_iter).
	logregRef ml.Vector
	// holdTables, when set, creates the tables a round creates and
	// drops, so the stand-alone probes can plan the round's SELECTs
	// outside a round; the returned func drops them again.
	holdTables func() (release func(), err error)

	closers []func()
}

type twin struct {
	file   string
	schema row.Schema
}

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
	os.RemoveAll(e.dir)
}

// scaled sizes a table; the smoke test runs every workload at 1/50.
func scaled(n int, scale float64) int {
	m := int(float64(n) * scale)
	if m < 400 {
		m = 400
	}
	return m
}

func clusterConfig(dir string) shark.ClusterConfig {
	return shark.ClusterConfig{Workers: clusterWorkers, SlotsPerWorker: clusterSlots, DataDir: dir}
}

// openEmbedded boots a private cluster with one session on it. The
// result cache stays off: with it on, a repeated statement measures a
// map lookup.
func (e *env) openEmbedded(cfg shark.ClusterConfig) error {
	cl, err := shark.NewCluster(cfg)
	if err != nil {
		return err
	}
	e.cl = cl
	e.closers = append(e.closers, cl.Close)
	sess, err := cl.NewSession(shark.SessionConfig{Name: "bench"})
	if err != nil {
		return err
	}
	e.sess = sess
	e.closers = append(e.closers, sess.Close)
	return nil
}

// openServed boots an in-process shark-server on a loopback listener,
// a loader session on its shared catalog and a database/sql pool.
func (e *env) openServed() error {
	srv, err := server.New(server.Config{Cluster: clusterConfig(e.dir)})
	if err != nil {
		return err
	}
	e.srv, e.cl = srv, srv.Cluster()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Cluster().Close()
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	e.closers = append(e.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	})
	sess, err := e.cl.NewSession(shark.SessionConfig{Name: "loader", SharedCatalog: true})
	if err != nil {
		return err
	}
	e.sess = sess
	e.closers = append(e.closers, sess.Close)
	db, err := sql.Open("shark", ln.Addr().String()+"?catalog=shared&session=client")
	if err != nil {
		return err
	}
	db.SetMaxOpenConns(e.w.clients + 2)
	db.SetMaxIdleConns(e.w.clients + 2)
	e.db = db
	e.closers = append(e.closers, func() { db.Close() })
	return nil
}

// loadTable writes rows to the DFS as a text table, optionally caches
// it under name+"_mem", and records the DFS file as the oracle's twin
// of whichever name the statements read.
func (e *env) loadTable(name string, schema row.Schema, rows []row.Row, cache bool) error {
	if err := e.sess.LoadRows(name, schema, rows); err != nil {
		return err
	}
	if e.twins == nil {
		e.twins = make(map[string]twin)
	}
	tw := twin{file: "data/" + e.sess.Tag + "/" + name, schema: schema}
	e.twins[name] = tw
	if !cache {
		return nil
	}
	e.twins[name+"_mem"] = tw
	_, err := e.sess.Exec(fmt.Sprintf(
		`CREATE TABLE %s_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM %s`, name, name))
	return err
}

func (e *env) setProbe(table string, schema row.Schema, rows []row.Row) {
	const maxProbeRows = 1 << 16
	if len(rows) > maxProbeRows {
		rows = rows[:maxProbeRows]
	}
	e.probeTable, e.probeSchema, e.probeRows = table, schema, rows
}

func setupScanAgg(e *env, scale float64) error {
	if err := e.openEmbedded(clusterConfig(e.dir)); err != nil {
		return err
	}
	nRank, nVisits := scaled(75000, scale), scaled(110000, scale)
	if err := e.loadTable("rankings", data.RankingsSchema, genRankings(e.seed, nRank), true); err != nil {
		return err
	}
	visits := genUserVisits(e.seed, nVisits, nRank)
	if err := e.loadTable("uservisits", data.UserVisitsSchema, visits, true); err != nil {
		return err
	}
	e.setProbe("uservisits_mem", data.UserVisitsSchema, visits)
	e.stmts = []*stmt{
		selectStmt("sel", fmt.Sprintf(`SELECT pageURL, pageRank FROM rankings_mem WHERE pageRank > %d`, selThreshold(e.seed)), nil),
		selectStmt("agg1k", `SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits_mem GROUP BY SUBSTR(sourceIP, 1, 7)`, nil),
		selectStmt("cntf", `SELECT countryCode, COUNT(*), AVG(duration) FROM uservisits_mem WHERE adRevenue > 500 GROUP BY countryCode`, nil),
	}
	return nil
}

func setupShuffleJoin(e *env, scale float64) error {
	if err := e.openEmbedded(clusterConfig(e.dir)); err != nil {
		return err
	}
	nRank, nVisits := scaled(40000, scale), scaled(40000, scale)
	if err := e.loadTable("rankings", data.RankingsSchema, genRankings(e.seed, nRank), true); err != nil {
		return err
	}
	visits := genUserVisits(e.seed, nVisits, nRank)
	if err := e.loadTable("uservisits", data.UserVisitsSchema, visits, true); err != nil {
		return err
	}
	e.setProbe("uservisits_mem", data.UserVisitsSchema, visits)
	e.stmts = []*stmt{
		selectStmt("join", `SELECT uservisits_mem.sourceIP, AVG(rankings_mem.pageRank) AS avg_rank, SUM(uservisits_mem.adRevenue) AS totalRevenue
FROM rankings_mem, uservisits_mem
WHERE rankings_mem.pageURL = uservisits_mem.destURL
AND uservisits_mem.visitDate BETWEEN Date('2000-01-15') AND Date('2000-01-22')
GROUP BY uservisits_mem.sourceIP`, nil),
		selectStmt("agg_hc", `SELECT sourceIP, SUM(adRevenue) FROM uservisits_mem GROUP BY sourceIP`, nil),
	}
	return nil
}

func (e *env) loadSessions(scale float64) error {
	if err := e.openServed(); err != nil {
		return err
	}
	n := scaled(100000, scale)
	sessions := genSessions(e.seed, n, n/50+1)
	if err := e.loadTable("sessions", data.SessionsSchema, sessions, true); err != nil {
		return err
	}
	e.setProbe("sessions_mem", data.SessionsSchema, sessions)
	return nil
}

func setupServePoint(e *env, scale float64) error {
	if err := e.loadSessions(scale); err != nil {
		return err
	}
	params := dashParams(e.seed)
	const dash = `SELECT cdn, COUNT(*), AVG(buffering_ms) FROM sessions_mem WHERE country = %s AND session_day = %s GROUP BY cdn`
	// The literal twin asks about the table's first (country, day): its
	// rows open the first partition whatever the seed, so the statement
	// always scans exactly one.
	lit := row.Row{sessionCountries[0], sessionBaseDay()}
	byParam := selectStmt("dash_param", fmt.Sprintf(dash, "?", "?"), params)
	byParam.dateArgs = []int{1}
	byParam.superset = `SELECT country, session_day, cdn, COUNT(*), AVG(buffering_ms) FROM sessions_mem GROUP BY country, session_day, cdn`
	byParam.pick = func(rows []row.Row, args row.Row) []row.Row {
		var out []row.Row
		for _, r := range rows {
			if r[0] == args[0] && r[1] == args[1] {
				out = append(out, r[2:])
			}
		}
		return out
	}
	e.stmts = []*stmt{
		byParam,
		selectStmt("dash_lit", fmt.Sprintf(dash, "'"+lit[0].(string)+"'", "Date('"+row.FormatDate(lit[1].(int64))+"')"), nil),
	}
	return nil
}

func setupServeFetch(e *env, scale float64) error {
	if err := e.loadSessions(scale); err != nil {
		return err
	}
	fetch := selectStmt("fetch_wide", `SELECT * FROM sessions_mem WHERE country = ?`, fetchParams(e.seed))
	fetch.superset = `SELECT * FROM sessions_mem`
	country := data.SessionsSchema.Index("country")
	fetch.pick = func(rows []row.Row, args row.Row) []row.Row {
		var out []row.Row
		for _, r := range rows {
			if r[country] == args[0] {
				out = append(out, r)
			}
		}
		return out
	}
	e.stmts = []*stmt{fetch}
	return nil
}

func setupLoadSpill(e *env, scale float64) error {
	cfg := clusterConfig(e.dir)
	cfg.WorkerDiskBytes = -1
	if err := e.openEmbedded(cfg); err != nil {
		return err
	}
	n := scaled(8000, scale)
	visits := genUserVisits(e.seed, n, n)
	if err := e.loadTable("uservisits", data.UserVisitsSchema, visits, false); err != nil {
		return err
	}
	e.twins["uv_disk"] = e.twins["uservisits"]
	e.setProbe("", data.UserVisitsSchema, visits)
	rowsIn := func(table string) func(*env) error {
		return func(e *env) error {
			t, err := e.sess.Cat.Get(table)
			if err != nil {
				return err
			}
			if t.Mem == nil || t.Mem.TotalRows() != int64(n) {
				return fmt.Errorf("%s: cached table holds %d rows, want %d", table, t.EstRows, n)
			}
			return nil
		}
	}
	gone := func(table string) func(*env) error {
		return func(e *env) error {
			if e.sess.Cat.Exists(table) {
				return fmt.Errorf("%s still in the catalog after DROP", table)
			}
			return nil
		}
	}
	e.stmts = []*stmt{
		ddlStmt("ctas_mem", `CREATE TABLE uv_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM uservisits`, rowsIn("uv_mem")),
		ddlStmt("drop", `DROP TABLE uv_mem`, gone("uv_mem")),
		ddlStmt("ctas_disk", `CREATE TABLE uv_disk TBLPROPERTIES ("shark.cache"="DISK_ONLY") AS SELECT * FROM uservisits`, rowsIn("uv_disk")),
		selectStmt("agg_disk", `SELECT countryCode, COUNT(*), SUM(adRevenue) FROM uv_disk GROUP BY countryCode`, nil),
		ddlStmt("drop", `DROP TABLE uv_disk`, gone("uv_disk")),
	}
	e.holdTables = func() (func(), error) {
		if _, err := e.sess.Exec(e.stmts[2].sql); err != nil {
			return nil, err
		}
		return func() { e.sess.Exec(e.stmts[4].sql) }, nil
	}
	return nil
}

func setupMLIter(e *env, scale float64) error {
	if err := e.openEmbedded(clusterConfig(e.dir)); err != nil {
		return err
	}
	n := scaled(80000, scale)
	points := genPoints(e.seed, n, mlDim)
	schema := data.PointsSchema(mlDim)
	if err := e.loadTable("points", schema, points, true); err != nil {
		return err
	}
	e.setProbe("points_mem", schema, points)
	e.logregRef = logregReference(points, mlDim, mlIters, mlRate)
	const featureSQL = `SELECT * FROM points_mem`
	e.stmts = []*stmt{
		{id: "sql2rdd", kind: kindCustom, layer: "core.Query", sql: featureSQL, run: func(c *client, op int) (digest, time.Duration, error) {
			start := time.Now()
			tr, err := c.e.sess.Query(featureSQL)
			if err != nil {
				return digest{}, 0, err
			}
			c.points = tr.MapRows(func(v shark.RowView) any {
				p, err := ml.RowToLabeledPoint(v.Row)
				if err != nil {
					rdd.Fail(err)
				}
				return p
			}).Cache()
			// Counting materializes the cache, so the round's first
			// visible result is "n points are resident".
			got, err := c.points.Count()
			if err != nil {
				return digest{}, 0, err
			}
			if got != int64(n) {
				return digest{}, 0, fmt.Errorf("sql2rdd cached %d points, want %d", got, n)
			}
			return digest{rows: n}, time.Since(start), nil
		}},
		{id: "logreg", kind: kindCustom, layer: "ml.LogisticRegression", run: func(c *client, op int) (digest, time.Duration, error) {
			defer c.points.Uncache()
			timer := &ml.IterTimer{}
			w, err := ml.LogisticRegression(c.points, mlDim, mlIters, mlRate, timer)
			if err != nil {
				return digest{}, 0, err
			}
			c.iterTimes = append(c.iterTimes, timer.Durations...)
			if err := sameVector(w, c.e.logregRef); err != nil {
				return digest{}, 0, err
			}
			return digest{rows: len(w)}, 0, nil
		}},
	}
	return nil
}

// newEnv creates the run directory for one set-up of w and runs it.
func newEnv(w *workload, seed int64, scale float64, root string, n int) (*env, error) {
	dir := filepath.Join(root, fmt.Sprintf("run-%d-%d", os.Getpid(), n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, dir: dir}
	if err := w.setup(e, scale); err != nil {
		e.close()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return e, nil
}
