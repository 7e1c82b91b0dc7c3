package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"shark/internal/columnar"
	"shark/internal/dfs"
	"shark/internal/expr"
	"shark/internal/memtable"
	"shark/internal/pde"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
	"shark/internal/sqlparse"
	"shark/internal/wire"
)

// layerMetric declares one per-layer metric. The name's first segment
// is the module it measures. BENCHMARK.json repeats this table and the
// smoke test holds the two together.
type layerMetric struct{ name, unit, better string }

// statementIDs are the statements client.stmt_ms_p50.<id> reports, over
// all workloads; a workload reports 0 for a statement it never runs,
// as it does for every metric of a module it never enters (driver,
// server and wire on the embedded workloads, ml outside ml_iter).
var statementIDs = []string{"sel", "agg1k", "cntf", "join", "agg_hc", "dash_param", "dash_lit", "fetch_wide",
	"ctas_mem", "ctas_disk", "agg_disk", "drop", "sql2rdd", "logreg"}

var layerMetrics = func() []layerMetric {
	var out []layerMetric
	lower := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit, "lower"})
		}
	}
	higher := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit, "higher"})
		}
	}
	for _, id := range statementIDs {
		lower("ms", "client.stmt_ms_p50."+id)
	}
	higher("count", "client.samples")
	lower("ratio", "client.failed_frac")
	lower("ms", "client.op_p90_ms")
	lower("us", "driver.prepare_us")
	lower("ms", "driver.query_ms_p50")
	lower("ns/row", "driver.scan_ns_per_row")
	lower("us", "server.select1_us")
	lower("1/op", "server.fetch_batches_per_op")
	lower("us", "wire.roundtrip_us")
	lower("ns/row", "wire.encode_rows_ns_per_row", "wire.decode_rows_ns_per_row")
	lower("B/row", "wire.bytes_per_row")
	lower("1/row", "wire.encode_allocs_per_row")
	lower("us", "sqlparse.parse_us", "sqlparse.normalize_us", "sqlparse.bind_us")
	lower("count", "sqlparse.parse_allocs")
	lower("us", "plan.analyze_us")
	lower("count", "plan.analyze_allocs")
	lower("us", "core.prepare_us", "core.select1_us", "core.exec_overhead_us")
	higher("ratio", "core.plancache_hit_ratio")
	lower("1/op", "core.admission_waits_per_op")
	lower("ms", "exec.run_ms_per_op")
	for _, k := range operatorKinds {
		lower("ratio", "exec.op_wall_frac."+k)
	}
	lower("B/op", "exec.shuffle_bytes_per_op")
	lower("1/op", "exec.scanned_parts_per_op")
	higher("1/op", "exec.pruned_parts_per_op")
	lower("1/op", "exec.result_rows_per_op")
	lower("ns/row", "expr.eval_ns_per_row", "expr.compiled_ns_per_row")
	lower("ns/row", "columnar.build_ns_per_row")
	lower("ns/cell", "columnar.decode_ns_per_cell")
	lower("B/row", "columnar.bytes_per_row")
	lower("ns/row", "columnar.marshal_ns_per_row", "columnar.unmarshal_ns_per_row")
	higher("rows/s", "memtable.scan_rows_per_s")
	lower("us", "memtable.prune_us")
	higher("rows/s", "memtable.load_rows_per_s")
	lower("MB", "memtable.total_mb")
	lower("ns/row", "row.encode_bin_ns_per_row", "row.decode_bin_ns_per_row", "row.decode_text_ns_per_row", "row.hash_ns_per_row")
	higher("rows/s", "dfs.read_text_rows_per_s", "dfs.write_rows_per_s")
	lower("B/row", "dfs.bytes_per_row")
	lower("ns/pair", "shuffle.write_ns_per_pair", "shuffle.fetch_ns_per_pair")
	lower("1/op", "shuffle.fetch_calls_per_op", "shuffle.fetched_pairs_per_op", "shuffle.spilled_reads_per_op")
	lower("us", "pde.plan_reduce_us")
	higher("1/op", "pde.broadcast_conversions_per_op")
	lower("1/op", "pde.skew_splits_per_op")
	higher("1/op", "pde.adaptive_coalesces_per_op")
	lower("us", "rdd.empty_job_us")
	lower("1/op", "rdd.stages_per_op", "rdd.tasks_per_op")
	lower("ms/op", "rdd.task_time_ms_per_op")
	higher("ratio", "rdd.cache_hit_ratio")
	lower("1/op", "rdd.task_retries_per_op")
	lower("us", "cluster.task_p50_us")
	higher("ratio", "cluster.slot_busy_frac")
	lower("1/op", "cluster.steals_per_op")
	higher("ratio", "cluster.locality_hit_ratio")
	lower("1/op", "cluster.disk_hits_per_op")
	lower("B/op", "cluster.bytes_spilled_per_op")
	lower("1/op", "cluster.evictions_per_op")
	lower("ms", "ml.first_iter_ms", "ml.logreg_iter_ms_p50")
	lower("ratio", "runtime.gc_cpu_frac")
	lower("1/op", "runtime.num_gc_per_op", "runtime.mallocs_per_op")
	higher("ratio", "trace.coverage_frac")
	lower("ratio", "trace.overhead_frac")
	return out
}()

// counters snapshots the public accessors whose deltas over the timed
// phase become per-op counts.
type counters struct {
	steals, localityHits, localityMisses, evictions, bytesSpilled, diskHits   int64
	stages, tasks, retries, cacheHits, remoteHits, cacheDiskHits, recomputes  int64
	broadcasts, skewSplits, coalesces, fetchCalls, fetchedPairs, spilledReads int64
	planHits, planMisses, admissionWaits                                      int64
}

func snapshot(p *prepared) counters {
	e := p.e
	d, s, sh := e.cl.Metrics(), e.cl.SchedulerMetrics(), e.cl.ShuffleMetrics()
	c := counters{
		steals: d.Steals.Load(), localityHits: d.LocalityHits.Load(), localityMisses: d.LocalityMisses.Load(),
		evictions: d.CacheEvictions.Load(), bytesSpilled: e.cl.DiskStats().BytesSpilled, diskHits: e.cl.DiskStats().DiskHits,
		stages: s.StagesRun.Load(), tasks: s.TasksLaunched.Load(), retries: s.TaskRetries.Load(),
		cacheHits: s.CacheHits.Load(), remoteHits: s.RemoteCacheHits.Load(), cacheDiskHits: s.DiskHits.Load(), recomputes: s.CacheRecomputes.Load(),
		broadcasts: s.BroadcastConversions.Load(), skewSplits: s.SkewSplits.Load(), coalesces: s.AdaptiveCoalesces.Load(),
		fetchCalls: sh.FetchCalls.Load(), fetchedPairs: sh.FetchedPairs.Load(), spilledReads: sh.SpilledReads.Load(),
	}
	if e.sess.Plans != nil {
		c.planHits, c.planMisses = e.sess.Plans.Stats()
	}
	c.admissionWaits = e.sess.Stats().AdmissionWaits
	for _, cl := range p.clients {
		if cl.tag != "" {
			c.admissionWaits += e.sess.Ctx.SessionStats(cl.tag).AdmissionWaits
		}
	}
	return c
}

// taskTimes collects every task's service time through the cluster's
// task observer; it runs on scheduler goroutines, so it only appends.
type taskTimes struct {
	mu sync.Mutex
	us []float64
}

func (t *taskTimes) observe(d time.Duration) {
	t.mu.Lock()
	t.us = append(t.us, us(d))
	t.mu.Unlock()
}

// timeCall returns how long f took, in nanoseconds.
func timeCall(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0))
}

// sample calls f at least atLeast times, then until it has run `calls`
// times or the budget is spent, and returns each call's nanoseconds.
func sample(budget time.Duration, atLeast, calls int, f func()) []float64 {
	var out []float64
	deadline := time.Now().Add(budget)
	for len(out) < atLeast || len(out) < calls && time.Now().Before(deadline) {
		out = append(out, timeCall(f))
	}
	return out
}

// mallocsPer counts heap allocations per call of f over n calls.
func mallocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

const probeCalls = 200

// prober runs the stand-alone layer probes on the workload's own
// statements and rows and files their results under the metric names.
type prober struct {
	p      *prepared
	e      *env
	rep    *replay
	budget time.Duration
	m      map[string]metric
	units  map[string]string
	err    error
}

func (pr *prober) set(name string, v float64) {
	unit, ok := pr.units[name]
	if !ok {
		panic("layers: metric " + name + " is not declared in layerMetrics")
	}
	pr.m[name] = metric{v, unit}
}

func (pr *prober) fail(err error) {
	if err != nil && pr.err == nil {
		pr.err = err
	}
}

// p50 samples f and returns the median call in nanoseconds.
func (pr *prober) p50(f func()) float64 { return median(sample(pr.budget, 3, probeCalls, f)) }

// selects lists the statements that compile to a SELECT plan, sql2rdd's
// included.
func (pr *prober) selects() []*stmt {
	var out []*stmt
	for _, s := range pr.e.stmts {
		if s.sql != "" && s.kind != kindDDL {
			out = append(out, s)
		}
	}
	return out
}

func (pr *prober) frontEnd() {
	var texts []string
	type bindable struct {
		st   sqlparse.Statement
		args row.Row
	}
	var binds []bindable
	for _, s := range pr.e.stmts {
		if s.sql == "" {
			continue
		}
		texts = append(texts, s.sql)
		if len(s.args) > 0 {
			st, err := sqlparse.Parse(s.sql)
			if err != nil {
				pr.fail(err)
				return
			}
			binds = append(binds, bindable{st, s.args[0]})
		}
	}
	n := float64(len(texts))
	parseAll := func() {
		for _, t := range texts {
			if _, err := sqlparse.Parse(t); err != nil {
				pr.fail(err)
			}
		}
	}
	pr.set("sqlparse.parse_us", pr.p50(parseAll)/n/1e3)
	pr.set("sqlparse.parse_allocs", mallocsPer(50, parseAll)/n)
	pr.set("sqlparse.normalize_us", pr.p50(func() {
		for _, t := range texts {
			sqlparse.Normalize(t)
		}
	})/n/1e3)
	if len(binds) > 0 {
		pr.set("sqlparse.bind_us", pr.p50(func() {
			for _, b := range binds {
				if _, err := sqlparse.Bind(b.st, b.args); err != nil {
					pr.fail(err)
				}
			}
		})/float64(len(binds))/1e3)
	}

	var sels []*sqlparse.SelectStmt
	for _, s := range pr.selects() {
		st, err := sqlparse.Parse(s.sql)
		if err == nil && len(s.args) > 0 {
			st, err = sqlparse.Bind(st, s.args[0])
		}
		if err != nil {
			pr.fail(err)
			return
		}
		sels = append(sels, st.(*sqlparse.SelectStmt))
	}
	if len(sels) == 0 {
		return
	}
	analyzeAll := func() {
		for _, sel := range sels {
			if _, err := plan.Analyze(pr.e.sess.Cat, sel); err != nil {
				pr.fail(err)
			}
		}
	}
	pr.set("plan.analyze_us", pr.p50(analyzeAll)/float64(len(sels))/1e3)
	pr.set("plan.analyze_allocs", mallocsPer(50, analyzeAll)/float64(len(sels)))
}

func (pr *prober) coreAndExec() {
	sess := pr.e.sess
	first := pr.selects()[0]
	pr.set("core.prepare_us", pr.p50(func() {
		if _, err := sess.Prepare(first.sql); err != nil {
			pr.fail(err)
		}
	})/1e3)
	one, err := sess.Prepare("SELECT 1")
	if err != nil {
		pr.fail(err)
		return
	}
	onePlan, err := analyze(pr.e, nil, 0, 0, "SELECT 1", nil)
	if err != nil {
		pr.fail(err)
		return
	}
	// What core adds around the engine — plan-cache lookup, job
	// admission and bookkeeping — is ExecPreparedCtx minus Engine.RunCtx
	// on the same plan. The one-row plan keeps the engine's share small
	// enough for the difference to be measurable, and pairing the calls
	// cancels drift between them.
	var whole, engine []float64
	sample(pr.budget, 3, probeCalls, func() {
		whole = append(whole, timeCall(func() {
			if _, err := sess.ExecPreparedCtx(context.Background(), one, nil); err != nil {
				pr.fail(err)
			}
		}))
		engine = append(engine, timeCall(func() {
			if _, err := sess.Engine.RunCtx(context.Background(), onePlan); err != nil {
				pr.fail(err)
			}
		}))
	})
	diffs := make([]float64, len(whole))
	for i := range whole {
		diffs[i] = whole[i] - engine[i]
	}
	pr.set("core.select1_us", median(whole)/1e3)
	pr.set("core.exec_overhead_us", median(diffs)/1e3)

	var runMS float64
	for _, s := range pr.selects() {
		pl, err := analyze(pr.e, nil, 0, 0, s.sql, s.argsFor(0))
		if err != nil {
			pr.fail(err)
			return
		}
		// A whole statement is the one probe a slice of the budget
		// cannot repeat often; it runs at least ten times.
		runMS += median(sample(pr.budget, 10, probeCalls, func() {
			if _, _, err := runPlan(pr.e, pl, false); err != nil {
				pr.fail(err)
			}
		})) / 1e6
	}
	pr.set("exec.run_ms_per_op", runMS)
}

// rowExprs collects the expressions the round evaluates once per
// scanned row of the probe table: filters pushed into its scan and the
// expressions of the operator reading that scan directly.
func rowExprs(n plan.Node, schema row.Schema, out *[]expr.Expr, scan **plan.Scan) {
	isProbe := func(c plan.Node) *plan.Scan {
		sc, ok := c.(*plan.Scan)
		if !ok || len(sc.Table.Schema) != len(schema) {
			return nil
		}
		for i, f := range sc.Table.Schema {
			if f.Name != schema[i].Name {
				return nil
			}
		}
		if *scan != nil && !slices.Equal((*scan).NeededCols, sc.NeededCols) {
			return nil // one projection of the probe rows serves every expression
		}
		return sc
	}
	if sc := isProbe(n); sc != nil && len(sc.Filters) > 0 {
		*scan = sc
		*out = append(*out, sc.Filters...)
	}
	for _, c := range n.Children() {
		if sc := isProbe(c); sc != nil {
			var xs []expr.Expr
			switch t := n.(type) {
			case *plan.Filter:
				xs = []expr.Expr{t.Cond}
			case *plan.Project:
				xs = t.Exprs
			case *plan.Aggregate:
				xs = append(xs, t.GroupBy...)
				for _, a := range t.Aggs {
					if a.Arg != nil {
						xs = append(xs, a.Arg)
					}
				}
			}
			if len(xs) > 0 {
				*scan = sc
				*out = append(*out, xs...)
			}
		}
		rowExprs(c, schema, out, scan)
	}
}

// probeChunk is how many rows one call of a per-row probe covers:
// about one memstore partition.
const probeChunk = 8192

func (pr *prober) chunk() []row.Row {
	rows := pr.e.probeRows
	if len(rows) > probeChunk {
		rows = rows[:probeChunk]
	}
	return rows
}

func (pr *prober) exprs() {
	var xs []expr.Expr
	var scan *plan.Scan
	for _, s := range pr.selects() {
		if pl := pr.rep.plans[s]; pl != nil {
			rowExprs(pl, pr.e.probeSchema, &xs, &scan)
		}
	}
	if len(xs) == 0 {
		return // SELECT * evaluates nothing per row
	}
	rows := make([]row.Row, len(pr.e.probeRows))
	for i, r := range pr.e.probeRows {
		projected := make(row.Row, len(scan.NeededCols))
		for j, c := range scan.NeededCols {
			projected[j] = r[c]
		}
		rows[i] = projected
	}
	perRow := 1 / float64(len(rows))
	pr.set("expr.eval_ns_per_row", pr.p50(func() {
		for _, r := range rows {
			for _, x := range xs {
				x.Eval(r)
			}
		}
	})*perRow)
	fns := make([]expr.EvalFn, len(xs))
	for i, x := range xs {
		fns[i] = x.Compile()
	}
	pr.set("expr.compiled_ns_per_row", pr.p50(func() {
		for _, r := range rows {
			for _, fn := range fns {
				fn(r)
			}
		}
	})*perRow)
}

func (pr *prober) columnarAndRow() {
	rows, schema := pr.chunk(), pr.e.probeSchema
	perRow := 1 / float64(len(rows))
	var part *columnar.Partition
	pr.set("columnar.build_ns_per_row", pr.p50(func() {
		b := columnar.NewBuilder(schema)
		for _, r := range rows {
			if err := b.Append(r); err != nil {
				pr.fail(err)
			}
		}
		part = b.Seal()
	})*perRow)
	pr.set("columnar.bytes_per_row", float64(part.SizeBytes())*perRow)
	pr.set("columnar.decode_ns_per_cell", pr.p50(func() {
		for i := 0; i < part.N; i++ {
			part.Row(i)
		}
	})*perRow/float64(len(schema)))
	var fields row.Row
	pr.set("columnar.marshal_ns_per_row", pr.p50(func() { _, fields = part.MarshalShuffle() })*perRow)
	pr.set("columnar.unmarshal_ns_per_row", pr.p50(func() {
		if _, err := columnar.UnmarshalPartition(fields); err != nil {
			pr.fail(err)
		}
	})*perRow)

	var bin []byte
	pr.set("row.encode_bin_ns_per_row", pr.p50(func() {
		bin = bin[:0]
		for _, r := range rows {
			bin = row.EncodeBinary(bin, r)
		}
	})*perRow)
	pr.set("row.decode_bin_ns_per_row", pr.p50(func() {
		for buf := bin; len(buf) > 0; {
			_, n, err := row.DecodeBinary(buf)
			if err != nil {
				pr.fail(err)
				return
			}
			buf = buf[n:]
		}
	})*perRow)
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.TrimSuffix(string(row.EncodeText(nil, r)), "\n")
	}
	pr.set("row.decode_text_ns_per_row", pr.p50(func() {
		for _, l := range lines {
			if _, err := row.DecodeText(l, schema); err != nil {
				pr.fail(err)
				return
			}
		}
	})*perRow)
	pr.set("row.hash_ns_per_row", pr.p50(func() {
		for _, r := range rows {
			row.HashRow(r)
		}
	})*perRow)
}

func (pr *prober) memtableAndDFS() {
	sess, rows, schema := pr.e.sess, pr.chunk(), pr.e.probeSchema
	data := make([]any, len(rows))
	for i, r := range rows {
		data[i] = r
	}
	// Load a table from the probe rows, as a cached CTAS does.
	var loaded *memtable.Table
	pr.set("memtable.load_rows_per_s", float64(len(rows))*1e9/pr.p50(func() {
		if loaded != nil {
			loaded.Drop()
		}
		t, err := memtable.Load("probe_mem", schema, sess.Ctx.Parallelize(data, clusterWorkers*clusterSlots))
		if err != nil {
			pr.fail(err)
			return
		}
		loaded = t
	}))
	if loaded == nil {
		return
	}
	defer loaded.Drop()

	// Scan and prune the workload's own resident table when it keeps one.
	table := loaded
	var totalBytes int64
	for _, name := range sess.Cat.List() {
		if t, err := sess.Cat.Get(name); err == nil && t.Mem != nil {
			totalBytes += t.Mem.TotalBytes()
			if name == pr.e.probeTable {
				table = t.Mem
			}
		}
	}
	pr.set("memtable.total_mb", float64(totalBytes)/(1<<20))
	pr.set("memtable.scan_rows_per_s", float64(table.TotalRows())*1e9/pr.p50(func() {
		if _, err := table.Scan(nil, nil).Count(); err != nil {
			pr.fail(err)
		}
	}))
	var preds []memtable.ColPredicate
	for _, pl := range pr.rep.plans {
		findPruning(pl, table, &preds)
	}
	pr.set("memtable.prune_us", pr.p50(func() { table.Prune(preds) })/1e3)

	const file = "probe/rows"
	pr.set("dfs.write_rows_per_s", float64(len(rows))*1e9/pr.p50(func() {
		sess.FS.Delete(file)
		w, err := sess.FS.Create(file, dfs.Text, schema)
		if err != nil {
			pr.fail(err)
			return
		}
		for _, r := range rows {
			if err := w.Write(r); err != nil {
				pr.fail(err)
				return
			}
		}
		pr.fail(w.Close())
	}))
	defer sess.FS.Delete(file)
	if meta, err := sess.FS.Stat(file); err == nil {
		pr.set("dfs.bytes_per_row", float64(meta.TotalBytes())/float64(len(rows)))
	}
	pr.set("dfs.read_text_rows_per_s", float64(len(rows))*1e9/pr.p50(func() {
		if _, err := sess.FS.ReadAll(file); err != nil {
			pr.fail(err)
		}
	}))
}

// findPruning takes the map-pruning predicates the planner derived for
// a scan of table, translated back to table column positions.
func findPruning(n plan.Node, table *memtable.Table, out *[]memtable.ColPredicate) {
	if sc, ok := n.(*plan.Scan); ok && sc.Table.Mem == table {
		for _, p := range sc.Pruning {
			p.Col = sc.NeededCols[p.Col]
			*out = append(*out, p)
		}
	}
	for _, c := range n.Children() {
		findPruning(c, table, out)
	}
}

func (pr *prober) shuffleAndScheduler() {
	ctx, rows := pr.e.sess.Ctx, pr.chunk()
	svc, worker := ctx.Shuffle, ctx.Cluster.Worker(0)
	buckets := clusterWorkers * clusterSlots * 4 // the engine's default: slots × FineBucketsPerSlot
	pairs := make([]shuffle.Pair, len(rows))
	for i, r := range rows {
		pairs[i] = shuffle.Pair{K: r[0], V: r}
	}
	part := shuffle.HashPartitioner{N: buckets}
	perPair := 1 / float64(len(pairs))
	var ids []int
	var stats shuffle.BucketStats
	pr.set("shuffle.write_ns_per_pair", pr.p50(func() {
		id := svc.NewShuffleID()
		ids = append(ids, id)
		w := svc.NewWriter(id, 0, buckets, worker)
		for _, p := range pairs {
			w.Write(part.PartitionFor(p.K), p)
		}
		var err error
		if stats, err = w.Commit(); err != nil {
			pr.fail(err)
		}
	})*perPair)
	last := ids[len(ids)-1]
	where := map[int]int{0: worker.ID}
	pr.set("shuffle.fetch_ns_per_pair", pr.p50(func() {
		for b := 0; b < buckets; b++ {
			if _, err := svc.Fetch(last, b, where); err != nil {
				pr.fail(err)
				return
			}
		}
	})*perPair)
	for _, id := range ids {
		svc.Unregister(id)
	}

	opts := pr.e.sess.Engine.Options()
	cfg := pde.SkewConfig{TargetBytes: opts.TargetPerReducerBytes, MinTasks: 1, MaxTasks: buckets, SkewFactor: opts.SkewFactor}
	perMap := func(int) []int64 { return nil }
	pr.set("pde.plan_reduce_us", pr.p50(func() { pde.PlanReduce(stats.Bytes, perMap, cfg) })/1e3)

	empty := ctx.Parallelize(nil, clusterWorkers*clusterSlots)
	pr.set("rdd.empty_job_us", pr.p50(func() {
		_, err := ctx.Scheduler().RunJob(empty, nil, func(*rdd.TaskContext, int, rdd.Iter) (any, error) { return nil, nil })
		pr.fail(err)
	})/1e3)
}

// served measures the driver, server and wire modules; only the
// serve_* workloads cross them.
func (pr *prober) served(ph *phase) {
	ctx := context.Background()
	c := pr.p.clients[0]
	pr.set("driver.query_ms_p50", median(ph.queryMS))
	if ph.scanRows > 0 {
		pr.set("driver.scan_ns_per_row", ph.scanNS/float64(ph.scanRows))
	}
	first := pr.selects()[0]
	pr.set("driver.prepare_us", pr.p50(func() {
		ps, err := c.conn.PrepareContext(ctx, first.sql)
		if err != nil {
			pr.fail(err)
			return
		}
		ps.Close()
	})/1e3)
	one, err := c.conn.PrepareContext(ctx, "SELECT 1")
	if err != nil {
		pr.fail(err)
		return
	}
	defer one.Close()
	pr.set("server.select1_us", pr.p50(func() {
		var v int64
		pr.fail(one.QueryRowContext(ctx).Scan(&v))
	})/1e3)

	addr := pr.e.srv.Addr().String()
	wc, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		pr.fail(err)
		return
	}
	defer wc.Close()
	if _, err := wc.Roundtrip(wire.Hello{Version: wire.Version}); err != nil {
		pr.fail(err)
		return
	}
	if _, err := wc.Roundtrip(wire.Attach{SharedCatalog: true}); err != nil {
		pr.fail(err)
		return
	}
	pr.set("wire.roundtrip_us", pr.p50(func() {
		_, err := wc.Roundtrip(wire.Ping{})
		pr.fail(err)
	})/1e3)
	// One round's statements over the raw protocol, counting the Rows
	// frames the server answers Fetch with.
	batches := 0
	for _, s := range pr.selects() {
		args := make([]any, len(s.argsFor(0)))
		for i, a := range s.argsFor(0) {
			args[i] = a
			if slices.Contains(s.dateArgs, i) {
				args[i] = wire.Date(a.(int64))
			}
		}
		id, _, err := wc.RoundtripID(ctx, wire.ExecPrepared{SQL: s.sql, Args: args})
		if err != nil {
			pr.fail(err)
			return
		}
		for done := false; !done; batches++ {
			resp, err := wc.Roundtrip(wire.Fetch{Cursor: id})
			if err != nil {
				pr.fail(err)
				return
			}
			done = resp.(wire.Rows).Done
		}
	}
	pr.set("server.fetch_batches_per_op", float64(batches))

	var rows []row.Row
	for _, s := range pr.selects() {
		rows = append(rows, pr.rep.results[s]...)
	}
	if len(rows) == 0 {
		return
	}
	perRow := 1 / float64(len(rows))
	var frames [][]byte
	pr.set("wire.encode_rows_ns_per_row", pr.p50(func() { frames = encodeRows(rows) })*perRow)
	pr.set("wire.encode_allocs_per_row", mallocsPer(20, func() { encodeRows(rows) })*perRow)
	var bytes int
	for _, f := range frames {
		bytes += len(f)
	}
	pr.set("wire.bytes_per_row", float64(bytes)*perRow)
	pr.set("wire.decode_rows_ns_per_row", pr.p50(func() { pr.fail(decodeRows(frames)) })*perRow)
}

// tracedRun is the --trace 1 run: a short timed phase for the counters
// and per-statement times, the replay that records spans, then the
// stand-alone probes. It reports every per-layer metric, 0 for a
// module the workload never enters.
func tracedRun(p *prepared, measured time.Duration, tracePath string) (*result, error) {
	e := p.e
	pr := &prober{p: p, e: e, m: map[string]metric{}, units: map[string]string{}}
	for _, lm := range layerMetrics {
		pr.units[lm.name] = lm.unit
		pr.m[lm.name] = metric{0, lm.unit}
	}
	// 36 sampled probes share 40 % of the run.
	pr.budget = measured * 40 / 100 / 36

	for _, c := range p.clients {
		c.timeScan = true
	}
	var tasks taskTimes
	e.cl.SetTaskObserver(tasks.observe)
	before := snapshot(p)
	ph := runPhase(e, p.clients, p.expected, measured*35/100)
	after := snapshot(p)
	e.cl.SetTaskObserver(nil)
	if ph.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failed round: %v\n", e.w.name, ph.firstErr)
	}
	if ph.ops() == 0 {
		return nil, fmt.Errorf("%s: no round completed correctly", e.w.name)
	}
	ops := float64(ph.ops())
	perOp := func(name string, a, b int64) { pr.set(name, float64(b-a)/ops) }
	ratio := func(name string, hit, total int64) {
		if total > 0 {
			pr.set(name, float64(hit)/float64(total))
		}
	}

	for id, v := range ph.stmtMS {
		pr.set("client.stmt_ms_p50."+id, median(v))
	}
	pr.set("client.samples", ops)
	pr.set("client.failed_frac", float64(ph.failed)/float64(ph.attempted))
	pr.set("client.op_p90_ms", quantile(ph.opMS, 0.9))
	ratio("core.plancache_hit_ratio", after.planHits-before.planHits,
		after.planHits-before.planHits+after.planMisses-before.planMisses)
	perOp("core.admission_waits_per_op", before.admissionWaits, after.admissionWaits)
	perOp("shuffle.fetch_calls_per_op", before.fetchCalls, after.fetchCalls)
	perOp("shuffle.fetched_pairs_per_op", before.fetchedPairs, after.fetchedPairs)
	perOp("shuffle.spilled_reads_per_op", before.spilledReads, after.spilledReads)
	perOp("pde.broadcast_conversions_per_op", before.broadcasts, after.broadcasts)
	perOp("pde.skew_splits_per_op", before.skewSplits, after.skewSplits)
	perOp("pde.adaptive_coalesces_per_op", before.coalesces, after.coalesces)
	perOp("rdd.stages_per_op", before.stages, after.stages)
	perOp("rdd.tasks_per_op", before.tasks, after.tasks)
	perOp("rdd.task_retries_per_op", before.retries, after.retries)
	hits := after.cacheHits - before.cacheHits
	ratio("rdd.cache_hit_ratio", hits, hits+after.remoteHits-before.remoteHits+
		after.cacheDiskHits-before.cacheDiskHits+after.recomputes-before.recomputes)
	var taskUS float64
	for _, t := range tasks.us {
		taskUS += t
	}
	pr.set("rdd.task_time_ms_per_op", taskUS/1e3/ops)
	pr.set("cluster.task_p50_us", median(tasks.us))
	pr.set("cluster.slot_busy_frac", taskUS/(us(ph.wall)*float64(clusterWorkers*clusterSlots)))
	perOp("cluster.steals_per_op", before.steals, after.steals)
	ratio("cluster.locality_hit_ratio", after.localityHits-before.localityHits,
		after.localityHits-before.localityHits+after.localityMisses-before.localityMisses)
	perOp("cluster.disk_hits_per_op", before.diskHits, after.diskHits)
	perOp("cluster.bytes_spilled_per_op", before.bytesSpilled, after.bytesSpilled)
	perOp("cluster.evictions_per_op", before.evictions, after.evictions)
	if len(ph.iterMS) >= mlIters {
		var firsts, rest []float64
		for i, v := range ph.iterMS {
			if i%mlIters == 0 {
				firsts = append(firsts, v)
			} else {
				rest = append(rest, v)
			}
		}
		pr.set("ml.first_iter_ms", median(firsts))
		pr.set("ml.logreg_iter_ms_p50", median(rest))
	}
	if ph.cpu > 0 {
		pr.set("runtime.gc_cpu_frac", ph.gcCPU/ph.cpu.Seconds())
	}
	pr.set("runtime.num_gc_per_op", float64(ph.gcCycles)/ops)
	pr.set("runtime.mallocs_per_op", float64(ph.mallocs)/ops)

	tr := newTracer()
	rep, err := replayRounds(p, tr, 50, measured*25/100)
	if err != nil {
		return nil, err
	}
	pr.rep = rep
	rounds := float64(len(rep.opMS))
	var wallNS int64
	for _, ns := range rep.opWallNS {
		wallNS += ns
	}
	for _, k := range operatorKinds {
		ratio("exec.op_wall_frac."+k, rep.opWallNS[k], wallNS)
	}
	pr.set("exec.shuffle_bytes_per_op", float64(rep.shuffleBytes)/rounds)
	pr.set("exec.scanned_parts_per_op", float64(rep.scannedParts)/rounds)
	pr.set("exec.pruned_parts_per_op", float64(rep.prunedParts)/rounds)
	pr.set("exec.result_rows_per_op", float64(rep.resultRows)/rounds)
	pr.set("trace.coverage_frac", tr.coverage())
	pr.set("trace.overhead_frac", median(rep.opMS)/median(ph.opMS)-1)

	if e.holdTables != nil {
		release, err := e.holdTables()
		if err != nil {
			return nil, err
		}
		defer release()
	}
	pr.frontEnd()
	pr.coreAndExec()
	pr.exprs()
	pr.columnarAndRow()
	pr.memtableAndDFS()
	pr.shuffleAndScheduler()
	if e.srv != nil {
		pr.served(ph)
	}
	if pr.err != nil {
		return nil, fmt.Errorf("%s: layer probe: %w", e.w.name, pr.err)
	}
	if err := tr.write(tracePath, e.w.name, e.seed); err != nil {
		return nil, err
	}
	return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: pr.m}, nil
}
