// Package shark is the public API of this reproduction of
// "Shark: SQL and Rich Analytics at Scale" (Xin et al., SIGMOD 2013):
// a SQL engine over a Spark-like RDD substrate with in-memory columnar
// storage, partial DAG execution (PDE), mid-query fault tolerance, and
// first-class machine learning over query results.
//
// The API separates the shared compute substrate from the per-client
// view: a Cluster owns the simulated workers, DFS, shuffle service and
// block stores; any number of Sessions attach to it concurrently, each
// with its own catalog view (or a shared one) and engine options.
// Statements from concurrent sessions run as separate scheduler jobs
// that fair-share the cluster, and every statement is cancellable via
// ExecContext / QueryContext.
//
// Quick start (one cluster, any number of sessions):
//
//	cl, _ := shark.NewCluster(shark.ClusterConfig{Workers: 8})
//	defer cl.Close()
//	etl, _ := cl.NewSession(shark.SessionConfig{Name: "etl"})
//	defer etl.Close() // releases only etl's tables, not the cluster
//	etl.LoadRows("logs", schema, rows)
//	etl.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`)
//	dash, _ := cl.NewSession(shark.SessionConfig{Name: "dash"})
//	go etl.Exec(longScanSQL)
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	res, err := dash.ExecContext(ctx, shortQuerySQL) // cancellable
package shark

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shark/internal/catalog"
	"shark/internal/cluster"
	"shark/internal/core"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// Re-exported fundamental types.
type (
	// Row is one result or input tuple.
	Row = row.Row
	// Schema describes columns.
	Schema = row.Schema
	// Field is one column definition.
	Field = row.Field
	// Type is a column type.
	Type = row.Type
	// Result is a materialized statement result.
	Result = core.Result
	// TableRDD is a query result as a live distributed dataset
	// (the sql2rdd bridge).
	TableRDD = core.TableRDD
	// RowView is schema-aware row access for TableRDD.MapRows. Its Row
	// is a scratch row, refilled after each call: read it in the call,
	// Clone it to keep it.
	RowView = core.RowView
	// RDD is a resilient distributed dataset.
	RDD = rdd.RDD
	// EngineOptions tunes the execution engine: join strategy,
	// adaptive-execution knobs (BroadcastThreshold, SkewFactor,
	// TargetPerReducerBytes, DisableAdaptiveExec — see docs/PDE.md),
	// and ablation switches.
	EngineOptions = exec.Options
	// QueryStats describes what the engine did for a query.
	QueryStats = exec.QueryStats
	// SessionStats snapshots a session's cluster activity: jobs,
	// tasks, task-time, cache hits / remote hits / disk hits /
	// recomputes, and the evictions of partitions the session cached.
	SessionStats = rdd.SessionStats
	// StorageLevel selects which tiers (memory / local disk) a cached
	// table's partitions may occupy.
	StorageLevel = cluster.StorageLevel
	// DiskTierStats aggregates the per-worker disk spill tiers.
	DiskTierStats = cluster.DiskTierStats
)

// ErrClosed marks work issued against a closed Session or Cluster:
// ExecContext/QueryContext after Session.Close (or after the cluster
// under the session was shut down) and NewSession on a closed cluster
// all return errors wrapping it. Check with errors.Is — a long-lived
// server drains by closing sessions concurrently with in-flight
// statements and needs to tell "closed" from statement failure.
var ErrClosed = core.ErrClosed

// Storage levels for cached tables.
const (
	// StorageMemoryOnly keeps cached partitions in worker memory;
	// eviction victims are dropped and rebuilt from remote copies or
	// lineage (the default).
	StorageMemoryOnly = cluster.MemoryOnly
	// StorageMemoryAndDisk spills eviction victims to the worker's
	// local disk tier and reads them back on a miss.
	StorageMemoryAndDisk = cluster.MemoryAndDisk
	// StorageDiskOnly materializes cached partitions straight to the
	// disk tier, leaving worker memory to hotter tables.
	StorageDiskOnly = cluster.DiskOnly
)

// Column types.
const (
	TInt    = row.TInt
	TFloat  = row.TFloat
	TString = row.TString
	TBool   = row.TBool
	TDate   = row.TDate
)

// Join strategy modes.
const (
	StrategyStaticAdaptive = exec.StrategyStaticAdaptive
	StrategyAdaptive       = exec.StrategyAdaptive
	StrategyStatic         = exec.StrategyStatic
)

// ClusterConfig sizes a shared simulated cluster.
type ClusterConfig struct {
	// Workers is the number of simulated nodes (default 8).
	Workers int
	// SlotsPerWorker is concurrent tasks per node (default 2).
	SlotsPerWorker int
	// DataDir backs the simulated DFS and shuffle spills; a temp
	// directory is created when empty.
	DataDir string
	// DiskShuffle stores shuffle map outputs on disk instead of in
	// worker memory (ablation; default memory).
	DiskShuffle bool
	// Speculation enables backup tasks for stragglers.
	Speculation bool
	// WorkerMemoryBytes bounds each simulated worker's block store:
	// cached table partitions (and cached results) are LRU-evicted
	// under pressure and recovered from the disk tier, remote cache
	// reads or lineage recomputation. Each lost partition is charged to
	// the session that cached the table (SessionStats.Evictions), and a
	// reclaimed result is credited back to its session's
	// ResultCacheBytes quota. 0 = unbounded.
	WorkerMemoryBytes int64
	// WorkerDiskBytes sizes each worker's local-disk spill tier:
	// MEMORY_AND_DISK eviction victims (and over-budget shuffle
	// buckets) land there instead of being dropped. 0 disables the
	// tier; negative = unbounded disk.
	WorkerDiskBytes int64
	// WorkerShuffleBytes gives pinned shuffle outputs a separate
	// budget so a shuffle-heavy job cannot starve the cache: pinned
	// bytes stop counting against WorkerMemoryBytes and the coldest
	// buckets spill to disk when the budget overflows. 0 keeps the
	// shared accounting.
	WorkerShuffleBytes int64
}

// Cluster is a shared Shark compute substrate: simulated workers with
// slots and block stores, a DFS, and a shuffle service. Sessions
// attach to it with NewSession; their statements run as concurrent,
// fair-shared, cancellable scheduler jobs.
type Cluster struct {
	cl     *cluster.Cluster
	fs     *dfs.FS
	svc    *shuffle.Service
	rddCtx *rdd.Context
	shared *catalog.Catalog
	tmpDir string

	// sharedPlans is the plan cache shared by every shared-catalog
	// session: one session's parse warms its peers, and the catalog
	// version in each key makes any session's DDL invalidate all of
	// them at once. Private-catalog sessions get private caches.
	sharedPlans *core.PlanCache

	// resultCaches routes cluster block-store evictions back to the
	// owning session's result-cache accounting, keyed by block-key
	// prefix.
	rcMu         sync.RWMutex
	resultCaches map[string]*core.ResultCache

	mu          sync.Mutex
	closed      bool
	nextSession int
	// sessionNames enforces distinct session tags per cluster, keyed
	// case-insensitively: the tag keys job attribution, scoped
	// teardown (catalog Owner stamps) and DFS path scoping (which
	// lowercases), so two live sessions must never share one in any
	// case variant.
	sessionNames map[string]bool
}

// NewCluster boots a shared simulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	dir := cfg.DataDir
	tmp := ""
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "shark-*")
		if err != nil {
			return nil, fmt.Errorf("shark: %w", err)
		}
		tmp = dir
	}
	cl := cluster.New(cluster.Config{
		Workers:            cfg.Workers,
		Slots:              cfg.SlotsPerWorker,
		Profile:            cluster.SparkProfile(),
		WorkerMemoryBytes:  cfg.WorkerMemoryBytes,
		WorkerDiskBytes:    cfg.WorkerDiskBytes,
		WorkerShuffleBytes: cfg.WorkerShuffleBytes,
		SpillDir:           dir + "/spill",
	})
	fs, err := dfs.New(dfs.Config{Dir: dir + "/dfs"})
	if err != nil {
		cl.Close()
		if tmp != "" {
			os.RemoveAll(tmp)
		}
		return nil, err
	}
	mode := shuffle.Memory
	if cfg.DiskShuffle {
		mode = shuffle.Disk
	}
	svc := shuffle.NewService(cl, mode, dir+"/shuffle")
	rddCtx := rdd.NewContext(cl, svc, rdd.Options{Speculation: cfg.Speculation})
	c := &Cluster{
		cl:           cl,
		fs:           fs,
		svc:          svc,
		rddCtx:       rddCtx,
		shared:       catalog.New(),
		tmpDir:       tmp,
		sharedPlans:  core.NewPlanCache(0),
		resultCaches: make(map[string]*core.ResultCache),
		sessionNames: make(map[string]bool),
	}
	// When the store LRU reclaims a session's cached result for
	// hotter data, credit the bytes back to that session's quota. The
	// RDD context subscribed above for session eviction attribution;
	// registration is additive, so both hear every event.
	cl.OnEviction(func(ev cluster.Eviction) {
		c.rcMu.RLock()
		var rc *core.ResultCache
		for prefix, cache := range c.resultCaches {
			if strings.HasPrefix(ev.Key, prefix) {
				rc = cache
				break
			}
		}
		c.rcMu.RUnlock()
		if rc != nil {
			rc.ReleaseEvicted(ev.Key, ev.Spilled)
		}
	})
	return c, nil
}

// SessionConfig shapes one session's view of a shared cluster.
type SessionConfig struct {
	// Name tags the session in job attribution and Stats; a name
	// already used on the cluster is rejected. Auto-generated when
	// empty.
	Name string
	// SharedCatalog attaches the session to the cluster's shared
	// metastore (tables visible across all shared-catalog sessions)
	// instead of a private catalog.
	SharedCatalog bool
	// Priority is the session's fair-share weight (<=0 reads as 1). A
	// freed slot runs the queued task whose job has the smallest
	// (running+1)/weight ratio, so backlogged sessions hold slots in proportion to their
	// priorities (on 8 slots, jobs at 1:2:4 settle at 1:2:5 running
	// tasks) — and a higher priority gets correspondingly lower
	// latency on a contended cluster.
	Priority int
	// MaxConcurrentJobs caps how many of the session's statements may
	// execute at once (0 = unlimited). Excess ExecContext/QueryContext
	// calls wait in a FIFO admission queue before dispatching any
	// tasks; cancelling a waiting call's context releases it
	// immediately. Session.Stats() reports AdmissionWaits and
	// AdmittedJobs.
	MaxConcurrentJobs int
	// Engine tunes this session's execution engine independently of
	// other sessions.
	Engine EngineOptions
	// StorageLevel is the default storage level for tables this
	// session caches with "shark.cache"="true" (per-table
	// TBLPROPERTIES levels override it).
	StorageLevel StorageLevel
	// ResultCacheBytes > 0 opts the session into the result cache:
	// deterministic read-only statements cache their whole results as
	// evictable blocks in the cluster's tiered stores, up to this
	// many bytes, keyed on (statement, args, engine options,
	// input-table versions) so any write to an input invalidates.
	ResultCacheBytes int64
	// DisablePlanCache turns statement plan caching off for this
	// session (ablation and debugging; default on).
	DisablePlanCache bool
}

// NewSession attaches a session to the shared cluster. Closing the
// session releases only its own tables; closing the cluster is a
// separate, explicit step.
func (c *Cluster) NewSession(cfg SessionConfig) (*Session, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: cluster is shut down", ErrClosed)
	}
	name := cfg.Name
	if name == "" {
		// Auto-generate, skipping names the user already claimed.
		for name == "" || c.sessionNames[strings.ToLower(name)] {
			c.nextSession++
			name = fmt.Sprintf("session-%d", c.nextSession)
		}
	} else {
		// The tag scopes DFS paths ("data/<tag>/", lowercased for
		// warehouse files), so slashes would nest one session's
		// namespace inside another's and case variants would collide
		// on disk.
		if strings.ContainsAny(name, "/\\") {
			c.mu.Unlock()
			return nil, fmt.Errorf("shark: session name %q must not contain path separators", name)
		}
		if c.sessionNames[strings.ToLower(name)] {
			c.mu.Unlock()
			return nil, fmt.Errorf("shark: session name %q already in use on this cluster", name)
		}
	}
	c.sessionNames[strings.ToLower(name)] = true
	c.mu.Unlock()
	cat := catalog.New()
	if cfg.SharedCatalog {
		cat = c.shared
	}
	cs := core.NewSessionNamed(c.rddCtx, c.fs, cat, name, cfg.Engine)
	cs.DefaultStorageLevel = cfg.StorageLevel
	cs.Priority = cfg.Priority
	cs.MaxConcurrentJobs = cfg.MaxConcurrentJobs
	switch {
	case cfg.DisablePlanCache:
		cs.Plans = nil
	case cfg.SharedCatalog:
		cs.Plans = c.sharedPlans
	}
	if cfg.ResultCacheBytes > 0 {
		rc := core.NewResultCache(c.cl, name, cfg.ResultCacheBytes)
		cs.Results = rc
		c.rcMu.Lock()
		c.resultCaches[rc.BlockKeyPrefix()] = rc
		c.rcMu.Unlock()
	}
	return &Session{Session: cs, Cluster: c}, nil
}

// Close shuts the cluster down: outstanding tasks are abandoned and
// temporary state is removed. Sessions still attached become unusable.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.cl.Close()
	if c.tmpDir != "" {
		os.RemoveAll(c.tmpDir)
	}
}

// NumWorkers returns the configured worker count.
func (c *Cluster) NumWorkers() int { return c.cl.NumWorkers() }

// TotalSlots returns the cluster-wide slot count.
func (c *Cluster) TotalSlots() int { return c.cl.TotalSlots() }

// AliveWorkers returns the IDs of live workers.
func (c *Cluster) AliveWorkers() []int { return c.cl.AliveWorkers() }

// Worker returns worker i (block-store introspection for tests and
// tools).
func (c *Cluster) Worker(i int) *cluster.Worker { return c.cl.Worker(i) }

// Metrics returns the dispatcher counters (steals, locality,
// evictions, spills, cancellations).
func (c *Cluster) Metrics() *cluster.DispatchMetrics { return c.cl.Metrics() }

// TasksLaunched returns the total number of tasks handed to workers.
func (c *Cluster) TasksLaunched() int64 { return c.cl.TasksLaunched() }

// SchedulerMetrics returns the RDD scheduler counters (stage timings,
// speculation, mid-partition cancellations).
func (c *Cluster) SchedulerMetrics() *rdd.Metrics { return c.rddCtx.Scheduler().Metrics() }

// DiskStats aggregates the per-worker disk spill tiers (spilled
// blocks/bytes, disk hits, disk evictions).
func (c *Cluster) DiskStats() DiskTierStats { return c.cl.DiskTierStats() }

// ShuffleMetrics returns the shuffle service counters (fetch calls,
// fetched pairs, spilled-bucket reads).
func (c *Cluster) ShuffleMetrics() *shuffle.ServiceMetrics { return c.svc.Metrics() }

// Backlog returns the dispatcher's instantaneous queue depth: tasks
// queued or pending, not yet running.
func (c *Cluster) Backlog() int64 { return c.cl.Backlog() }

// SetTaskObserver installs fn to be called with every successful
// task's service time — the feed for per-task latency histograms.
// Pass nil to remove. The observer runs on scheduler goroutines and
// must be fast and non-blocking.
func (c *Cluster) SetTaskObserver(fn func(time.Duration)) {
	c.rddCtx.Scheduler().SetTaskObserver(fn)
}

// Kill simulates a node failure, wiping the worker's local state and
// notifying the scheduler's bookkeeping.
func (c *Cluster) Kill(id int) {
	c.cl.Kill(id)
	c.rddCtx.NotifyWorkerLost(id)
}

// Restart brings a failed node back (empty, as a fresh node).
func (c *Cluster) Restart(id int) { c.cl.Restart(id) }

// Session is a connected Shark client attached to a Cluster. Exec /
// ExecContext run SQL; Query / QueryContext bridge to RDDs; Stats
// reports the session's share of cluster activity.
type Session struct {
	*core.Session
	// Cluster is the substrate the session runs on.
	Cluster *Cluster
	// closed latches the first Close: a second Close (a connection
	// handler racing a server drain) must not free the session's name
	// again — another session may have claimed it in between.
	closed atomic.Bool
}

// Close releases the session's tables (evicting its memstore blocks)
// and frees its name for reuse; the cluster and its other sessions are
// untouched. Closing is idempotent and safe to race with Cluster.Close
// and with in-flight statements (which fail with ErrClosed).
func (s *Session) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.Session.Close()
	if rc := s.Session.Results; rc != nil {
		s.Cluster.rcMu.Lock()
		delete(s.Cluster.resultCaches, rc.BlockKeyPrefix())
		s.Cluster.rcMu.Unlock()
		rc.Close()
	}
	s.Cluster.mu.Lock()
	delete(s.Cluster.sessionNames, strings.ToLower(s.Tag))
	s.Cluster.mu.Unlock()
}

// LoadRows writes rows into the DFS as a text table and registers it
// in the catalog — the ingestion path for examples and tests. The DFS
// path is scoped by session tag so concurrent sessions can load the
// same table name independently.
func (s *Session) LoadRows(table string, schema Schema, rows []Row) error {
	file := "data/" + s.Tag + "/" + table
	w, err := s.FS.Create(file, dfs.Text, schema)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return s.RegisterExternal(table, file, schema)
}
