package shark_test

import (
	"fmt"
	"strings"
	"testing"

	"shark"
	"shark/ml"
)

func newSession(t *testing.T, cc shark.ClusterConfig, sc shark.SessionConfig) *shark.Session {
	t.Helper()
	if cc.Workers == 0 {
		cc.Workers = 4
	}
	cl, err := shark.NewCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	s, err := cl.NewSession(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

var logsSchema = shark.Schema{
	{Name: "url", Type: shark.TString},
	{Name: "status", Type: shark.TInt},
	{Name: "bytes", Type: shark.TInt},
	{Name: "day", Type: shark.TDate},
}

func loadLogs(t *testing.T, s *shark.Session, n int) {
	t.Helper()
	rows := make([]shark.Row, n)
	for i := 0; i < n; i++ {
		status := int64(200)
		if i%10 == 0 {
			status = 404
		}
		rows[i] = shark.Row{
			fmt.Sprintf("/p/%d", i%50),
			status,
			int64(i % 1000),
			int64(15000 + i/100),
		}
	}
	if err := s.LoadRows("logs", logsSchema, rows); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	s := newSession(t, shark.ClusterConfig{}, shark.SessionConfig{})
	loadLogs(t, s, 5000)

	if _, err := s.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`SELECT status, COUNT(*) AS n FROM logs_mem GROUP BY status ORDER BY n DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].(int64) != 200 || res.Rows[0][1].(int64) != 4500 {
		t.Errorf("top group = %v", res.Rows[0])
	}
}

// TestPublicWorkerMemoryBytesOption: with per-worker memory below the
// cached table's footprint (the table's single columnar partition is
// ~24KB), SQL over the memstore still answers correctly — the
// partition simply stays cold and is recomputed per query — and no
// worker's store ever exceeds its bound.
func TestPublicWorkerMemoryBytesOption(t *testing.T) {
	const capBytes = 20 << 10
	s := newSession(t, shark.ClusterConfig{WorkerMemoryBytes: capBytes}, shark.SessionConfig{})
	loadLogs(t, s, 5000)
	if _, err := s.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the cold partition recomputes every pass
		res, err := s.Exec(`SELECT status, COUNT(*) AS n FROM logs_mem GROUP BY status ORDER BY n DESC`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 || res.Rows[0][0].(int64) != 200 || res.Rows[0][1].(int64) != 4500 {
			t.Fatalf("pass %d: rows = %v", i, res.Rows)
		}
	}
	for i := 0; i < s.Cluster.NumWorkers(); i++ {
		if b := s.Cluster.Worker(i).Store().ApproxBytes(); b > capBytes {
			t.Errorf("worker %d holds %d bytes over the %d-byte bound", i, b, capBytes)
		}
	}
	// The partition is too large to ever be admitted, but each of the
	// two SELECT passes rebuilt it from lineage — and that pressure
	// must be visible in the metrics.
	if got := s.Ctx.Scheduler().Metrics().CacheRecomputes.Load(); got < 2 {
		t.Errorf("CacheRecomputes = %d, want ≥2 (one per query pass)", got)
	}
}

// TestPublicStorageLevels: the same over-budget table, cached
// MEMORY_AND_DISK through the public knobs, answers from the disk
// tier instead of recomputing — the storage-level cliff the unbounded
// baseline never sees and the eviction-only path pays in recomputes.
func TestPublicStorageLevels(t *testing.T) {
	const capBytes = 20 << 10
	s := newSession(t, shark.ClusterConfig{
		WorkerMemoryBytes: capBytes,
		WorkerDiskBytes:   -1, // unbounded local disk
	}, shark.SessionConfig{StorageLevel: shark.StorageMemoryAndDisk})
	loadLogs(t, s, 5000)
	if _, err := s.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := s.Exec(`SELECT status, COUNT(*) AS n FROM logs_mem GROUP BY status ORDER BY n DESC`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 || res.Rows[0][0].(int64) != 200 || res.Rows[0][1].(int64) != 4500 {
			t.Fatalf("pass %d: rows = %v", i, res.Rows)
		}
	}
	ds := s.Cluster.DiskStats()
	if ds.SpilledBlocks == 0 || ds.DiskHits == 0 {
		t.Errorf("disk tier unused: %+v", ds)
	}
	m := s.Ctx.Scheduler().Metrics()
	if got := m.CacheRecomputes.Load(); got != 0 {
		t.Errorf("CacheRecomputes = %d; the spilled partition should be read back, not rebuilt", got)
	}
	if got := m.DiskHits.Load(); got == 0 {
		t.Error("no DiskHits despite the partition living on disk")
	}
	for i := 0; i < s.Cluster.NumWorkers(); i++ {
		if b := s.Cluster.Worker(i).Store().ApproxBytes(); b > capBytes {
			t.Errorf("worker %d holds %d bytes over the %d-byte bound", i, b, capBytes)
		}
	}
}

// TestPublicShuffleBudget: with a separate shuffle budget, a
// shuffle-heavy query beside a cached table does not evict the
// table's partitions under the cache budget.
func TestPublicShuffleBudget(t *testing.T) {
	s := newSession(t, shark.ClusterConfig{
		WorkerMemoryBytes:  256 << 10,
		WorkerShuffleBytes: 1 << 10,
		WorkerDiskBytes:    -1,
	}, shark.SessionConfig{})
	loadLogs(t, s, 4000)
	if _, err := s.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`SELECT status, COUNT(*) FROM logs_mem GROUP BY status`); err != nil {
		t.Fatal(err) // warm the cache
	}
	evictionsBefore := s.Cluster.Metrics().CacheEvictions.Load()
	// A high-cardinality group-by: lots of pinned shuffle bytes, well
	// over the 1KB shuffle budget.
	res, err := s.Exec(`SELECT url, SUM(bytes) FROM logs_mem GROUP BY url`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("group count = %d, want 50", len(res.Rows))
	}
	if got := s.Cluster.Metrics().CacheEvictions.Load(); got != evictionsBefore {
		t.Errorf("shuffle-heavy query evicted %d cached partitions despite the split budget",
			got-evictionsBefore)
	}
}

func TestPublicSql2RddAndML(t *testing.T) {
	s := newSession(t, shark.ClusterConfig{}, shark.SessionConfig{})
	loadLogs(t, s, 3000)
	tr, err := s.Query(`SELECT bytes, status FROM logs`)
	if err != nil {
		t.Fatal(err)
	}
	points := tr.MapRows(func(r shark.RowView) any {
		label := -1.0
		if r.GetInt("status") != 200 {
			label = 1.0
		}
		return ml.LabeledPoint{X: ml.Vector{float64(r.GetInt("bytes")) / 1000}, Y: label}
	}).Cache()
	w, err := ml.LogisticRegression(points, 1, 3, 0.001, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 {
		t.Fatalf("weights = %v", w)
	}
}

func TestPublicFaultInjection(t *testing.T) {
	s := newSession(t, shark.ClusterConfig{Workers: 5}, shark.SessionConfig{})
	loadLogs(t, s, 4000)
	if _, err := s.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`); err != nil {
		t.Fatal(err)
	}
	before, err := s.Exec(`SELECT COUNT(*) FROM logs_mem`)
	if err != nil {
		t.Fatal(err)
	}
	s.Cluster.Kill(2)
	after, err := s.Exec(`SELECT COUNT(*) FROM logs_mem`)
	if err != nil {
		t.Fatal(err)
	}
	if before.Rows[0][0] != after.Rows[0][0] {
		t.Errorf("count changed after failure: %v vs %v", before.Rows[0][0], after.Rows[0][0])
	}
	s.Cluster.Restart(2)
	if _, err := s.Exec(`SELECT COUNT(*) FROM logs_mem`); err != nil {
		t.Fatal(err)
	}
}

func TestPublicUDF(t *testing.T) {
	s := newSession(t, shark.ClusterConfig{}, shark.SessionConfig{})
	loadLogs(t, s, 1000)
	err := s.RegisterUDF("IS_API", shark.TBool, 1, 1, func(args []any) any {
		u, _ := args[0].(string)
		return strings.HasPrefix(u, "/p/1")
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`SELECT COUNT(*) FROM logs WHERE IS_API(url)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) == 0 {
		t.Error("UDF matched nothing")
	}
}

func TestPublicDiskShuffleOption(t *testing.T) {
	s := newSession(t, shark.ClusterConfig{DiskShuffle: true}, shark.SessionConfig{})
	loadLogs(t, s, 2000)
	res, err := s.Exec(`SELECT url, COUNT(*), COUNT(DISTINCT bytes) FROM logs GROUP BY url`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Errorf("groups = %d", len(res.Rows))
	}
}

func TestPublicSpeculationOption(t *testing.T) {
	s := newSession(t, shark.ClusterConfig{Workers: 4, Speculation: true}, shark.SessionConfig{})
	loadLogs(t, s, 2000)
	if _, err := s.Exec(`SELECT COUNT(*) FROM logs`); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExplain(t *testing.T) {
	s := newSession(t, shark.ClusterConfig{}, shark.SessionConfig{})
	loadLogs(t, s, 100)
	res, err := s.Exec(`EXPLAIN SELECT url, COUNT(*) FROM logs WHERE status = 200 GROUP BY url`)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range res.Rows {
		text.WriteString(r[0].(string))
	}
	if !strings.Contains(text.String(), "Aggregate") {
		t.Errorf("explain output: %s", text.String())
	}
}
