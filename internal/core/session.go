// Package core implements the Shark session — the paper's primary
// contribution assembled: SQL text is parsed, analyzed against the
// metastore, optimized, and executed either on the Shark RDD engine
// (with PDE, columnar memstore and map pruning) or handed to callers
// as an RDD for mixed SQL + machine-learning pipelines (sql2rdd, §4).
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shark/internal/catalog"
	"shark/internal/columnar"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/expr"
	"shark/internal/memtable"
	"shark/internal/obs"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
	"shark/internal/sqlparse"
)

// Session is a connected Shark client: a catalog view plus an engine
// over a (possibly shared) execution context. Many sessions may share
// one rdd.Context/cluster; each runs its statements as separate
// scheduler jobs tagged with the session's Tag, so scheduling is
// fair-shared across them and metrics are attributable per session.
type Session struct {
	Ctx    *rdd.Context
	FS     *dfs.FS
	Cat    *catalog.Catalog
	Engine *exec.Engine

	// Tag names the session in scheduler job attribution and
	// SessionStats.
	Tag string

	// Priority is the session's fair-share weight (<=0 reads as 1):
	// every statement's cluster tasks carry it, and under weighted
	// fair scheduling backlogged sessions hold slots in proportion to
	// their priorities.
	Priority int

	// MaxConcurrentJobs caps how many of the session's statements may
	// execute at once (0 = unlimited). Excess statements wait in a
	// FIFO admission queue before dispatching any tasks; cancelling a
	// waiting statement's context releases its place immediately.
	MaxConcurrentJobs int

	// DefaultCacheParts is the partition count used when caching
	// tables. DISTRIBUTE BY loads use it as the hash-partition count
	// (0 = 4 × cluster slots); plain cached CTAS repartitions the
	// source round-robin to it when set (0 = keep the source
	// partitioning, e.g. one partition per DFS block).
	DefaultCacheParts int

	// DefaultStorageLevel is the storage level cached tables persist
	// at when TBLPROPERTIES names none ("shark.cache"="true").
	// Per-table levels override it: "shark.cache"="MEMORY_AND_DISK"
	// (or "DISK_ONLY"), or a separate "shark.storageLevel" property.
	DefaultStorageLevel rdd.StorageLevel

	// Plans caches parsed (and, for parameterless SELECTs, analyzed)
	// statements keyed on normalized text + engine options + catalog
	// version. Sessions attached to a shared catalog share one
	// instance so invalidation-by-version covers all of them. nil
	// disables plan caching.
	Plans *PlanCache

	// Results, when non-nil, caches whole results of deterministic
	// read-only statements in the cluster's block stores under a
	// per-session byte quota. Opt-in.
	Results *ResultCache

	// mu guards created — the tables this session registered, in
	// order; Close drops exactly these, never another session's —
	// and optsFP, the lazily rendered engine-options fingerprint.
	mu      sync.Mutex
	created []string
	optsFP  string

	// closed latches on the first Close; later statements fail fast
	// with ErrClosed instead of racing the teardown.
	closed atomic.Bool
}

// ErrClosed marks a statement issued on a closed session (or one
// whose cluster has been shut down). Callers distinguish it from
// statement failures with errors.Is.
var ErrClosed = errors.New("shark: session closed")

// nextSessionTag numbers auto-tagged sessions process-wide.
var nextSessionTag atomic.Int64

// NewSession assembles a session with a private catalog over an
// execution context, auto-generating its tag.
func NewSession(ctx *rdd.Context, fs *dfs.FS, opts exec.Options) *Session {
	return NewSessionNamed(ctx, fs, catalog.New(),
		fmt.Sprintf("session-%d", nextSessionTag.Add(1)), opts)
}

// NewSessionNamed assembles a session over an execution context with
// an explicit catalog (pass a shared catalog for a shared metastore
// view, or a fresh one for namespace isolation) and session tag.
func NewSessionNamed(ctx *rdd.Context, fs *dfs.FS, cat *catalog.Catalog, tag string, opts exec.Options) *Session {
	return &Session{
		Ctx:    ctx,
		FS:     fs,
		Cat:    cat,
		Tag:    tag,
		Engine: exec.New(ctx, cat, fs, opts),
		Plans:  NewPlanCache(0),
	}
}

// register adds a table to the session's catalog stamped with the
// session's tag as owner and records it for scoped teardown.
func (s *Session) register(t *catalog.Table) error {
	t.Owner = s.Tag
	if err := s.Cat.Register(t); err != nil {
		return err
	}
	s.noteCreated(t.Name)
	return nil
}

// noteCreated records a table this session registered.
func (s *Session) noteCreated(name string) {
	s.mu.Lock()
	s.created = append(s.created, name)
	s.mu.Unlock()
}

// forgetCreated removes a dropped table from the session's ownership
// list.
func (s *Session) forgetCreated(name string) {
	s.mu.Lock()
	keep := s.created[:0]
	for _, n := range s.created {
		if !strings.EqualFold(n, name) {
			keep = append(keep, n)
		}
	}
	s.created = keep
	s.mu.Unlock()
}

// Close releases the session's state: every table it registered is
// dropped from its catalog (evicting the session's memstore blocks
// from worker memory). On a shared cluster this never touches the
// cluster itself or other sessions' tables — the atomic owner-checked
// drop guards against deleting a table another session re-created
// under a name this session once used. Closing is idempotent: only
// the first Close tears down, and concurrent ExecContext calls fail
// with ErrClosed instead of racing it.
func (s *Session) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	names := s.created
	s.created = nil
	s.mu.Unlock()
	for _, n := range names {
		s.Cat.DropOwned(n, s.Tag)
	}
	// Remove the session's scoped DFS files (LoadRows ingests under
	// data/<tag>/, CTAS-to-DFS writes under warehouse/<tag>/): a
	// long-lived cluster must not leak DFS space per closed session,
	// and a later session reusing the name must be able to load the
	// same table names. Unscoped paths (e.g. harness-generated shared
	// inputs) are untouched.
	s.FS.DeletePrefix("data/" + s.Tag + "/")
	s.FS.DeletePrefix("warehouse/" + strings.ToLower(s.Tag) + "/")
	// Free the session's metrics aggregate and RDD-ownership entries;
	// a long-lived cluster must not accumulate per-session state.
	s.Ctx.ReleaseSession(s.Tag)
}

// Stats snapshots what the cluster has done for this session: jobs,
// tasks and task-time, cache hits / remote hits / recomputes,
// evictions of partitions the session materialized, admission-control
// activity (waits, admitted jobs), and mid-partition cancellations.
func (s *Session) Stats() rdd.SessionStats {
	return s.Ctx.SessionStats(s.Tag)
}

// checkOpen fails fast when the session — or the cluster under it —
// has been closed, before any parse or job admission work.
func (s *Session) checkOpen() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.Ctx.Cluster.Closed() {
		return fmt.Errorf("%w: cluster is shut down", ErrClosed)
	}
	return nil
}

// startJob opens the scheduler job for one statement, applying the
// session's Priority (fair-share weight) and MaxConcurrentJobs
// (admission cap). It blocks while the session is at its cap; a
// cancelled gctx releases the admission wait with an error wrapping
// the cancellation, before any job exists or any task is dispatched.
func (s *Session) startJob(gctx context.Context) (*rdd.Job, error) {
	return s.Ctx.StartJobCfg(gctx, s.Tag, rdd.JobConfig{
		Weight:            s.Priority,
		MaxConcurrentJobs: s.MaxConcurrentJobs,
	})
}

// releaseStatementShuffles frees the shuffle map outputs a finished
// statement's job pinned in worker memory, keeping every shuffle still
// reachable from a live RDD: the lineage of any cached table in the
// session's catalog (shared catalogs cover other sessions' tables) and
// any RDD handed back to the caller (sql2rdd). Without this, each
// join- or aggregate-bearing statement leaks its map outputs into
// worker memory for the life of the cluster.
func (s *Session) releaseStatementShuffles(job *rdd.Job, retained *rdd.RDD) {
	keep := make(map[int]bool)
	add := func(r *rdd.RDD) {
		for _, id := range rdd.LineageShuffleIDs(r) {
			keep[id] = true
		}
	}
	for _, name := range s.Cat.List() {
		if t, err := s.Cat.Get(name); err == nil && t.Mem != nil {
			add(t.Mem.RDD)
		}
	}
	if retained != nil {
		add(retained)
	}
	s.Ctx.ReleaseJobShuffles(job, keep)
}

func (s *Session) cacheParts() int {
	if s.DefaultCacheParts > 0 {
		return s.DefaultCacheParts
	}
	return 4 * s.Ctx.Cluster.TotalSlots()
}

// Result is a materialized statement result. Body holds a query's
// result column-major, as the engine's final stage left it; Rows is the
// body boxed, filled only for embedded callers (Exec*, not
// ExecBodyCtx). DDL statements return a Result with an informational
// message and neither.
type Result struct {
	Schema  row.Schema
	Rows    []row.Row
	Body    *columnar.Body
	Stats   exec.QueryStats
	Message string
}

// Exec parses and executes one SQL statement.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes one SQL statement as one scheduler
// job tagged with the session, carrying the session's Priority as its
// fair-share weight and honoring MaxConcurrentJobs admission control.
// Cancelling gctx aborts the statement — its queued tasks are dropped,
// running tasks abort cooperatively at the next mid-partition
// checkpoint, a statement still waiting for admission is released
// without dispatching anything, and the returned error wraps
// context.Canceled — while the session stays fully usable for
// subsequent statements. When the statement completes, shuffle map
// outputs it pinned in worker memory are unregistered unless a live
// RDD (a cached table's lineage) still depends on them.
func (s *Session) ExecContext(gctx context.Context, sql string) (*Result, error) {
	return s.ExecArgsCtx(gctx, sql, nil)
}

// execStatement runs one fully bound statement as a scheduler job. p
// carries the statement's cache identity when it came through the
// parse cache (nil for internal callers), letting runSelect reuse and
// publish analyzed plans.
func (s *Session) execStatement(gctx context.Context, stmt sqlparse.Statement, p *Prepared) (*Result, error) {
	job, err := s.startJob(gctx)
	if err != nil {
		return nil, err
	}
	defer func() {
		s.Ctx.FinishJob(job)
		s.releaseStatementShuffles(job, nil)
	}()
	gctx = rdd.WithJob(gctx, job)
	switch t := stmt.(type) {
	case *sqlparse.SelectStmt:
		return s.runSelect(gctx, t, p)
	case *sqlparse.CreateTableStmt:
		return s.runCreate(gctx, t)
	case *sqlparse.DropTableStmt:
		if !s.Cat.Drop(t.Name) && !t.IfExists {
			return nil, fmt.Errorf("core: unknown table %q", t.Name)
		}
		s.forgetCreated(t.Name)
		return &Result{Message: fmt.Sprintf("dropped %s", t.Name)}, nil
	case *sqlparse.ExplainStmt:
		if t.Analyze {
			return s.runExplainAnalyze(gctx, t)
		}
		return s.runExplain(t)
	}
	return nil, fmt.Errorf("core: unsupported statement %T", stmt)
}

func (s *Session) runSelect(gctx context.Context, sel *sqlparse.SelectStmt, prep *Prepared) (*Result, error) {
	tr := obs.FromContext(gctx)
	// Parameterless SELECTs can reuse the analyzed plan: analysis
	// reads the AST and compilation reads the plan, so one cached
	// plan serves concurrent executions. Parameterized statements
	// bind a fresh tree per execution and re-analyze (the AST reuse
	// already skipped lex/parse).
	var cacheKey string
	if s.Plans != nil && prep != nil && prep.numParams == 0 {
		cacheKey = s.planKey(prep.norm)
		if e, ok := s.Plans.lookup(cacheKey); ok && e.plan != nil {
			return s.runPlan(gctx, tr, e.plan)
		}
	}
	sp := tr.StartSpan("analyze/plan")
	p, err := plan.Analyze(s.Cat, sel)
	sp.End()
	if err != nil {
		return nil, err
	}
	if cacheKey != "" {
		s.Plans.insert(&planEntry{key: cacheKey, stmt: sel, plan: p})
	}
	return s.runPlan(gctx, tr, p)
}

func (s *Session) runPlan(gctx context.Context, tr *obs.Trace, p plan.Node) (*Result, error) {
	esp := tr.StartSpan("execute")
	res, err := s.Engine.RunBodyCtx(gctx, p)
	esp.End()
	if err != nil {
		return nil, err
	}
	esp.AddRows(int64(res.Body.Len))
	return &Result{Schema: res.Schema, Body: res.Body, Stats: res.Stats}, nil
}

// planResult is a plan's text as a one-column result, a line a row.
func planResult(lines []string) *Result {
	body := &columnar.Body{}
	body.Add(columnar.Window{N: len(lines), Vecs: []columnar.Vec{{Kind: columnar.VecStr, Mask: -1, Strs: lines, Owned: true}}})
	return &Result{Schema: row.Schema{{Name: "plan", Type: row.TString}}, Body: body}
}

// runExplainAnalyze executes the wrapped SELECT with per-node
// profiling and returns the plan tree annotated with measured wall
// time, row counts, cache traffic and PDE decisions. The per-node
// wall times are the master's sequential blocking segments, so their
// sum tracks the statement's wall time; the summary footer reports
// both so the attribution quality is visible.
func (s *Session) runExplainAnalyze(gctx context.Context, e *sqlparse.ExplainStmt) (*Result, error) {
	sel, ok := e.Stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: EXPLAIN ANALYZE supports SELECT only")
	}
	// Profile under a local trace when the caller (embedded session)
	// attached none, so task/fetch counts appear in the report either
	// way. The server path shares the statement's existing trace.
	tr := obs.FromContext(gctx)
	if tr == nil {
		tr = obs.NewTrace(s.Tag, "EXPLAIN ANALYZE")
		gctx = obs.WithTrace(gctx, tr)
	}
	before := tr.Snapshot()
	p, err := plan.Analyze(s.Cat, sel)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, ns, err := s.Engine.RunAnalyzeCtx(gctx, p)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	after := tr.Snapshot()

	lines := ns.Render()
	add := func(line string) { lines = append(lines, line) }
	attributed := ns.TotalWall()
	pct := 0.0
	if wall > 0 {
		pct = 100 * float64(attributed) / float64(wall)
	}
	add(fmt.Sprintf("-- statement: wall=%s rows=%d",
		wall.Round(time.Microsecond), len(res.Rows)))
	add(fmt.Sprintf("-- attributed: %s (%.0f%% of wall)",
		attributed.Round(time.Microsecond), pct))
	add(fmt.Sprintf("-- tasks=%d shuffle_fetches=%d (%d rows)",
		after.Tasks-before.Tasks,
		after.FetchCalls-before.FetchCalls,
		after.FetchRows-before.FetchRows))
	decisions := after.Decisions[len(before.Decisions):]
	if len(decisions) == 0 {
		add("-- pde: none")
	} else {
		add("-- pde: " + strings.Join(decisions, ", "))
	}
	return planResult(lines), nil
}

func (s *Session) runExplain(e *sqlparse.ExplainStmt) (*Result, error) {
	sel, ok := e.Stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT only")
	}
	p, err := plan.Analyze(s.Cat, sel)
	if err != nil {
		return nil, err
	}
	return planResult(strings.Split(strings.TrimRight(plan.Explain(p), "\n"), "\n")), nil
}

func (s *Session) runCreate(gctx context.Context, ct *sqlparse.CreateTableStmt) (*Result, error) {
	if s.Cat.Exists(ct.Name) {
		if ct.IfNotExists {
			return &Result{Message: fmt.Sprintf("table %s exists", ct.Name)}, nil
		}
		return nil, fmt.Errorf("core: table %q already exists", ct.Name)
	}
	if ct.As == nil {
		return s.createExternal(ct)
	}
	return s.createAsSelect(gctx, ct)
}

// createExternal registers a DFS-backed table.
func (s *Session) createExternal(ct *sqlparse.CreateTableStmt) (*Result, error) {
	if len(ct.Cols) == 0 || ct.Location == "" {
		return nil, fmt.Errorf("core: external table needs columns and LOCATION")
	}
	schema := make(row.Schema, len(ct.Cols))
	for i, c := range ct.Cols {
		schema[i] = row.Field{Name: c.Name, Type: c.Type}
	}
	format := dfs.Text
	if strings.EqualFold(ct.Format, "BINARY") {
		format = dfs.Binary
	}
	meta, err := s.FS.Stat(ct.Location)
	if err != nil {
		return nil, err
	}
	if len(meta.Schema) != len(schema) {
		return nil, fmt.Errorf("core: file %s has %d columns, DDL declares %d",
			ct.Location, len(meta.Schema), len(schema))
	}
	err = s.register(&catalog.Table{
		Name:    ct.Name,
		Schema:  schema,
		File:    ct.Location,
		Format:  format,
		Props:   ct.Props,
		EstRows: meta.TotalRows(),
	})
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created external table %s (%d rows)", ct.Name, meta.TotalRows())}, nil
}

// cacheLevel resolves a CTAS's storage level from TBLPROPERTIES:
// "shark.cache" accepts "true" (the session's default level) or a
// level name directly ("MEMORY_ONLY" / "MEMORY_AND_DISK" /
// "DISK_ONLY"); a "shark.storageLevel" property overrides either.
// cached=false when the table is not cached at all.
func (s *Session) cacheLevel(props map[string]string) (level rdd.StorageLevel, cached bool) {
	v := props["shark.cache"]
	switch {
	case strings.EqualFold(v, "true"):
		level, cached = s.DefaultStorageLevel, true
	default:
		level, cached = rdd.ParseStorageLevel(v)
	}
	if !cached {
		return 0, false
	}
	// The parser lowercases TBLPROPERTIES keys; accept the verbatim
	// spelling too for programmatic callers.
	for _, k := range []string{"shark.storagelevel", "shark.storageLevel"} {
		if lv, ok := rdd.ParseStorageLevel(props[k]); ok {
			level = lv
			break
		}
	}
	return level, true
}

// createAsSelect runs CTAS. With TBLPROPERTIES("shark.cache"="true")
// — or a storage level name, e.g. "shark.cache"="MEMORY_AND_DISK" —
// the result is loaded into the memstore at that level (optionally
// DISTRIBUTE BY for co-partitioning); otherwise it is written to a
// DFS file.
func (s *Session) createAsSelect(gctx context.Context, ct *sqlparse.CreateTableStmt) (*Result, error) {
	sel := ct.As
	p, err := plan.Analyze(s.Cat, sel)
	if err != nil {
		return nil, err
	}
	schema := p.Schema()

	level, cached := s.cacheLevel(ct.Props)
	if !cached {
		return s.ctasToDFS(gctx, ct, p, schema)
	}

	mem, err := s.loadCached(gctx, ct, p, level)
	if err != nil {
		return nil, err
	}
	entry := &catalog.Table{
		Name:            ct.Name,
		Schema:          schema,
		Mem:             mem,
		Props:           ct.Props,
		EstRows:         mem.TotalRows(),
		DistKey:         sel.DistributeBy,
		CopartitionWith: ct.Props["copartition"],
	}
	if err := s.register(entry); err != nil {
		mem.Drop()
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("cached table %s (%d rows, %d partitions, %d bytes, %s)",
		ct.Name, mem.TotalRows(), mem.NumPartitions(), mem.TotalBytes(), level)}, nil
}

// loadCached loads a cached CTAS's result into the memstore. SELECT *
// of an external table stores the table's blocks, each parsed straight
// into columns, as its partitions; any other result is loaded from its
// rows, DISTRIBUTEd BY a column when asked.
func (s *Session) loadCached(gctx context.Context, ct *sqlparse.CreateTableStmt, p plan.Node, level rdd.StorageLevel) (*memtable.Table, error) {
	sel, schema, opts := ct.As, p.Schema(), memtable.LoadOptions{Level: level}
	if sel.DistributeBy == "" {
		blocks, err := s.Engine.BlockPartitions(p)
		if err != nil {
			return nil, err
		}
		if n := s.DefaultCacheParts; blocks != nil && (n <= 0 || blocks.NumPartitions() == n) {
			return memtable.LoadColumnar(gctx, ct.Name, schema, blocks, opts)
		}
	}
	// Build the row RDD for loading. Sort/Limit at the top of a CTAS
	// is unusual; run through the engine and parallelize when present.
	srcRDD, err := s.planToRDD(gctx, p)
	if err != nil {
		return nil, err
	}
	if sel.DistributeBy == "" {
		if n := s.DefaultCacheParts; n > 0 && srcRDD.NumPartitions() != n {
			srcRDD = repartitionRows(srcRDD, n)
		}
		return memtable.LoadWith(gctx, ct.Name, schema, srcRDD, opts)
	}
	keyCol := schema.Index(sel.DistributeBy)
	if keyCol < 0 {
		return nil, fmt.Errorf("core: DISTRIBUTE BY column %q not in result", sel.DistributeBy)
	}
	numParts := s.cacheParts()
	if other := ct.Props["copartition"]; other != "" {
		ot, err := s.Cat.Get(other)
		if err != nil {
			return nil, fmt.Errorf("core: copartition target: %w", err)
		}
		if ot.Mem == nil || ot.Mem.Partitioner == nil {
			return nil, fmt.Errorf("core: copartition target %q is not a distributed cached table", other)
		}
		numParts = ot.Mem.NumPartitions()
	}
	return memtable.LoadDistributedWith(gctx, ct.Name, schema, srcRDD, keyCol, numParts, opts)
}

func (s *Session) ctasToDFS(gctx context.Context, ct *sqlparse.CreateTableStmt, p plan.Node, schema row.Schema) (*Result, error) {
	res, err := s.Engine.RunCtx(gctx, p)
	if err != nil {
		return nil, err
	}
	format := dfs.Text
	if strings.EqualFold(ct.Format, "BINARY") {
		format = dfs.Binary
	}
	// Scope the warehouse path by session tag: on a shared cluster two
	// sessions with private catalogs may CTAS the same table name.
	file := "warehouse/" + strings.ToLower(s.Tag+"/"+ct.Name)
	w, err := s.FS.Create(file, format, schema)
	if err != nil {
		return nil, err
	}
	for _, r := range res.Rows {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	err = s.register(&catalog.Table{
		Name:    ct.Name,
		Schema:  schema,
		File:    file,
		Format:  format,
		Props:   ct.Props,
		EstRows: int64(len(res.Rows)),
	})
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created table %s (%d rows on DFS)", ct.Name, len(res.Rows))}, nil
}

// repartitionRows redistributes a row RDD into n partitions with
// synthetic round-robin keys — for cache loads whose source
// partitioning (e.g. one partition per DFS block) does not match the
// session's requested cache parallelism.
func repartitionRows(src *rdd.RDD, n int) *rdd.RDD {
	pairs := src.MapPartitions(func(_ *rdd.TaskContext, part int, in rdd.Iter) rdd.Iter {
		i := int64(0)
		base := int64(part) << 32
		return rdd.FuncIter(func() (any, bool) {
			v, ok := in.Next()
			if !ok {
				return nil, false
			}
			p := shuffle.Pair{K: base + i, V: v}
			i++
			return p, true
		})
	})
	return pairs.PartitionBy(shuffle.HashPartitioner{N: n}).
		Map(func(v any) any { return v.(shuffle.Pair).V })
}

// planToRDD lowers a plan to a row RDD without materializing at the
// master, for CTAS loads and sql2rdd. Top-level Sort/Limit still
// require materialization.
func (s *Session) planToRDD(gctx context.Context, p plan.Node) (*rdd.RDD, error) {
	switch p.(type) {
	case *plan.Limit, *plan.Sort:
		res, err := s.Engine.RunCtx(gctx, p)
		if err != nil {
			return nil, err
		}
		data := make([]any, len(res.Rows))
		for i, r := range res.Rows {
			data[i] = r
		}
		return s.Ctx.Parallelize(data, s.Ctx.Cluster.TotalSlots()), nil
	}
	return s.Engine.CompileToRDDCtx(gctx, p)
}

// TableRDD is a query result as a live RDD plus its schema — the
// sql2rdd bridge of §4.1.
type TableRDD struct {
	RDD    *rdd.RDD
	Schema row.Schema
}

// RowView wraps a row with its schema for by-name access (Listing 1's
// row.getInt("age") style).
type RowView struct {
	Row    row.Row
	Schema row.Schema
}

// GetInt returns an integer column by name (0 when NULL or absent).
func (v RowView) GetInt(name string) int64 {
	i := v.Schema.Index(name)
	if i < 0 || v.Row[i] == nil {
		return 0
	}
	n, _ := row.AsInt(v.Row[i])
	return n
}

// GetFloat returns a float column by name.
func (v RowView) GetFloat(name string) float64 {
	i := v.Schema.Index(name)
	if i < 0 || v.Row[i] == nil {
		return 0
	}
	f, _ := row.AsFloat(v.Row[i])
	return f
}

// GetStr returns a string column by name.
func (v RowView) GetStr(name string) string {
	i := v.Schema.Index(name)
	if i < 0 || v.Row[i] == nil {
		return ""
	}
	s, _ := v.Row[i].(string)
	return s
}

// MapRows transforms each result row through f with schema-aware
// access, returning a new RDD — the feature-extraction step of the §4
// SQL-to-ML pipeline.
func (t *TableRDD) MapRows(f func(RowView) any) *rdd.RDD {
	schema := t.Schema.Clone()
	return t.RDD.Map(func(v any) any {
		return f(RowView{Row: v.(row.Row), Schema: schema})
	})
}

// Cache marks the underlying RDD for in-memory caching.
func (t *TableRDD) Cache() *TableRDD {
	t.RDD.Cache()
	return t
}

// Query compiles a SELECT and returns its result as a TableRDD without
// collecting it, so ML code can keep processing in the cluster.
func (s *Session) Query(sql string) (*TableRDD, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a context: the compilation-time work
// (PDE pre-shuffles, subquery materializations) runs as a session-
// tagged job honoring the session's Priority and MaxConcurrentJobs,
// and honors cancellation. Actions on the returned TableRDD run as
// their own jobs later; shuffles its lineage still reads stay
// registered, while the statement's other map outputs are freed.
func (s *Session) QueryContext(gctx context.Context, sql string) (*TableRDD, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: sql2rdd requires a SELECT")
	}
	if n := sqlparse.NumParams(sel); n > 0 {
		return nil, fmt.Errorf("%w: sql2rdd takes no arguments, statement has %d parameter(s)", ErrBind, n)
	}
	p, err := plan.Analyze(s.Cat, sel)
	if err != nil {
		return nil, err
	}
	job, err := s.startJob(gctx)
	if err != nil {
		return nil, err
	}
	var retained *rdd.RDD
	defer func() {
		s.Ctx.FinishJob(job)
		s.releaseStatementShuffles(job, retained)
	}()
	r, err := s.planToRDD(rdd.WithJob(gctx, job), p)
	if err != nil {
		return nil, err
	}
	retained = r
	return &TableRDD{RDD: r, Schema: p.Schema()}, nil
}

// RegisterUDF installs a scalar UDF usable from SQL.
func (s *Session) RegisterUDF(name string, ret row.Type, minArgs, maxArgs int, fn func(args []any) any) error {
	return s.Cat.RegisterUDF(&expr.UDF{
		Name: name, Ret: ret, MinArgs: minArgs, MaxArgs: maxArgs, RetFromArg: -1, Fn: fn,
	})
}

// RegisterExternal registers a DFS file as a table.
func (s *Session) RegisterExternal(name, file string, schema row.Schema) error {
	meta, err := s.FS.Stat(file)
	if err != nil {
		return err
	}
	return s.register(&catalog.Table{
		Name:    name,
		Schema:  schema,
		File:    file,
		Format:  meta.Format,
		EstRows: meta.TotalRows(),
	})
}
