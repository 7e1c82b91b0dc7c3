// Package exec is Shark's physical engine: it compiles logical plans
// into RDD pipelines on the simulated cluster. It implements the
// paper's execution techniques — memstore scans with map pruning
// (§3.5), two-phase hash aggregation whose reduce parallelism is
// chosen at run time by PDE bin-packing (§3.1.2), and join execution
// with static, adaptive (PDE) and co-partitioned strategies
// (§3.1.1, §3.4).
package exec

import (
	"context"
	"fmt"
	"sort"

	"shark/internal/catalog"
	"shark/internal/columnar"
	"shark/internal/dfs"
	"shark/internal/memtable"
	"shark/internal/obs"
	"shark/internal/pde"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// StrategyMode selects how joins are planned.
type StrategyMode int

const (
	// StrategyStaticAdaptive (default) uses static analysis to pick
	// the likely-small side, pre-shuffles only that side, then decides
	// with observed sizes — the paper's best configuration (Fig. 8).
	StrategyStaticAdaptive StrategyMode = iota
	// StrategyAdaptive pre-shuffles both sides, then decides.
	StrategyAdaptive
	// StrategyStatic decides purely from catalog estimates.
	StrategyStatic
)

// String names the mode.
func (m StrategyMode) String() string {
	switch m {
	case StrategyAdaptive:
		return "adaptive"
	case StrategyStatic:
		return "static"
	}
	return "static+adaptive"
}

// FineBucketsPerSlot fixes shuffle granularity: fine buckets = slots ×
// this factor (PDE coalesces them into reduce tasks).
const FineBucketsPerSlot = 4

// Options tunes the engine. Every field is part of the plan-cache
// fingerprint (core/plancache.go renders the struct with %+v).
type Options struct {
	// TargetPerReducerBytes sizes coalesced reduce partitions.
	// Default 4 MiB.
	TargetPerReducerBytes int64
	// BroadcastThreshold is the map-join size cutoff. Default 2 MiB.
	BroadcastThreshold int64
	// JoinStrategy selects join planning. Default StrategyStaticAdaptive.
	JoinStrategy StrategyMode
	// DisableExprCompile binds no typed column kernel and no vector
	// form on scans of cached tables: every expression runs row by row
	// through expr's Eval (the row adapter). It is the ablation knob
	// for the paper's compiled evaluators (§5) and the kernels' oracle.
	DisableExprCompile bool
	// DisablePruning turns off map pruning (ablation).
	DisablePruning bool
	// DisableAdaptiveExec turns off every runtime re-planning decision
	// made from PDE statistics (the "adaptive execution off" ablation
	// knob): joins are planned purely from static estimates, hot reduce
	// buckets are never split, and reduce stages run one task per fine
	// bucket instead of sizing parallelism from observed bytes.
	DisableAdaptiveExec bool
	// SkewFactor flags a reduce bucket of a shuffle join as skewed when
	// its observed bytes strictly exceed SkewFactor × the mean bucket
	// size; skewed buckets are split across multiple reduce tasks.
	// Default 4.
	SkewFactor float64
}

func (o Options) withDefaults() Options {
	if o.TargetPerReducerBytes <= 0 {
		o.TargetPerReducerBytes = 4 << 20
	}
	if o.BroadcastThreshold <= 0 {
		o.BroadcastThreshold = 2 << 20
	}
	if o.SkewFactor <= 0 {
		o.SkewFactor = 4
	}
	return o
}

// QueryStats reports what the engine did — the observability the
// experiments rely on.
type QueryStats struct {
	ScannedPartitions int
	PrunedPartitions  int
	JoinStrategies    []string
	ReducerCounts     []int
	ShuffleBytes      int64
}

// Engine compiles and runs logical plans.
type Engine struct {
	Ctx  *rdd.Context
	Cat  *catalog.Catalog
	FS   *dfs.FS
	opts Options
}

// New creates an engine.
func New(ctx *rdd.Context, cat *catalog.Catalog, fs *dfs.FS, opts Options) *Engine {
	return &Engine{Ctx: ctx, Cat: cat, FS: fs, opts: opts.withDefaults()}
}

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opts }

// Result is a fully materialized query result.
type Result struct {
	Schema row.Schema
	Rows   []row.Row
	Stats  QueryStats
}

// CompileToRDDCtx lowers a plan to a row RDD without running the final
// collect — the sql2rdd path. Its tasks carve each batch into rows, one
// slab a batch. Top-level Sort/Limit nodes are not supported here (the
// session materializes those). PDE pre-shuffles run during compilation
// execute under the attached job and honor cancellation.
func (e *Engine) CompileToRDDCtx(gctx context.Context, n plan.Node) (*rdd.RDD, error) {
	r, err := e.compile(gctx, n, &QueryStats{}, nil)
	if err != nil {
		return nil, err
	}
	cols := upTo[int](len(n.Schema()))
	return r.MapPartitions(func(_ *rdd.TaskContext, _ int, in rdd.Iter) rdd.Iter {
		return memtable.BatchRows(func() []row.Row {
			v, ok := in.Next()
			if !ok {
				return nil
			}
			b := v.(*columnar.Batch)
			return b.Rows(cols, b.Sel)
		})
	}), nil
}

// RunCtx executes a logical plan to completion under a context: every
// scheduler job it spawns (PDE map stages, the final collect) runs
// under the job attached by rdd.WithJob, and cancelling gctx aborts
// the query with an error wrapping context.Canceled.
func (e *Engine) RunCtx(gctx context.Context, n plan.Node) (*Result, error) {
	return e.runCtx(gctx, n, nil)
}

// RunAnalyzeCtx is RunCtx with EXPLAIN ANALYZE profiling: it returns
// the result plus the annotated per-node statistics tree. The
// blocking-segment wall times recorded on the tree are sequential
// master-side time, so their sum tracks the statement's wall time.
func (e *Engine) RunAnalyzeCtx(gctx context.Context, n plan.Node) (*Result, *NodeStats, error) {
	p := newProf(n)
	res, err := e.runCtx(gctx, n, p)
	return res, p.root, err
}

func (e *Engine) runCtx(gctx context.Context, n plan.Node, p *prof) (*Result, error) {
	stats := &QueryStats{}

	limit := int64(-1)
	var limNS, sortNS *NodeStats
	if l, ok := n.(*plan.Limit); ok {
		limit = l.N
		limNS = p.of(l)
		n = l.Child
	}
	var sortKeys []plan.SortKey
	if s, ok := n.(*plan.Sort); ok {
		sortKeys = s.Keys
		sortNS = p.of(s)
		n = s.Child
	}

	schema := n.Schema()
	r, err := e.compile(gctx, n, stats, p)
	if err != nil {
		return nil, err
	}
	// LIMIT pushdown: with no sort, each partition needs at most N rows.
	if limit >= 0 && sortKeys == nil {
		r = limitBatches(r, limit)
	}

	endCollect := p.of(n).beginSegment(gctx)
	rows, err := e.collectRows(gctx, r, nil)
	if err != nil {
		return nil, err
	}
	endCollect()

	if sortKeys != nil {
		endSort := sortNS.beginSegment(gctx)
		sortRows(rows, sortKeys)
		endSort()
		sortNS.AddRows(int64(len(rows)))
	}
	if limit >= 0 && int64(len(rows)) > limit {
		rows = rows[:limit]
	}
	limNS.AddRows(int64(len(rows)))
	return &Result{Schema: schema, Rows: rows, Stats: *stats}, nil
}

// collectRows runs r's final stage over parts (nil: all): each task
// carves its batches into one chunk of rows, and the chunks are joined
// into rows sized once.
func (e *Engine) collectRows(gctx context.Context, r *rdd.RDD, parts []int) ([]row.Row, error) {
	chunks, err := e.Ctx.Scheduler().RunJobCtx(gctx, r, parts, func(_ *rdd.TaskContext, _ int, it rdd.Iter) (any, error) {
		return carve(it), nil
	})
	if err != nil {
		return nil, err
	}
	if len(chunks) == 1 {
		return chunks[0].([]row.Row), nil
	}
	total := 0
	for _, c := range chunks {
		total += len(c.([]row.Row))
	}
	rows := make([]row.Row, 0, total) // never nil: an empty result has no rows, not none
	for _, c := range chunks {
		rows = append(rows, c.([]row.Row)...)
	}
	return rows, nil
}

// carve boxes a final task's batches into its chunk of rows, each
// batch's cells in one slab. Here, and in sql2rdd's rows, a
// statement's rows are born, and a string still sharing a partition's
// bytes is copied out of it — once.
func carve(it rdd.Iter) []row.Row {
	type slab struct {
		cells    []any
		width, n int
	}
	var slabs []slab
	total := 0
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		b := v.(*columnar.Batch)
		n, w := len(b.Sel), b.Width()
		if n == 0 {
			continue
		}
		cells := make([]any, n*w)
		for c := range w {
			b.Box(c, b.Sel, cells[c:], w)
		}
		slabs = append(slabs, slab{cells, w, n})
		total += n
	}
	rows := make([]row.Row, 0, total)
	for _, s := range slabs {
		for i := range s.n {
			rows = append(rows, s.cells[i*s.width:(i+1)*s.width:(i+1)*s.width])
		}
	}
	return rows
}

// limitBatches cuts each partition of r to its first n rows.
func limitBatches(r *rdd.RDD, n int64) *rdd.RDD {
	return r.MapPartitions(func(_ *rdd.TaskContext, _ int, in rdd.Iter) rdd.Iter {
		var taken int64
		return rdd.FuncIter(func() (any, bool) {
			if taken >= n {
				return nil, false
			}
			v, ok := in.Next()
			if !ok {
				return nil, false
			}
			b := v.(*columnar.Batch)
			if left := n - taken; int64(len(b.Sel)) > left {
				b = b.Project(upTo[int](b.Width()), nil, b.Sel[:left])
			}
			taken += int64(len(b.Sel))
			return b, true
		})
	})
}

// rowBatches turns rows collected at the master back into batches, of
// boxed columns, over parts partitions: what a Sort or Limit below the
// root hands the operators above it.
func (e *Engine) rowBatches(rows []row.Row, width, parts int) *rdd.RDD {
	var batches []any
	for lo := 0; lo < len(rows); lo += columnar.BatchSize {
		chunk := rows[lo:min(lo+columnar.BatchSize, len(rows))]
		vecs := make([]columnar.Vec, width)
		for c := range vecs {
			vecs[c] = columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: make([]any, len(chunk)), Owned: true}
			for i, r := range chunk {
				vecs[c].Anys[i] = r[c]
			}
		}
		b := columnar.VecBatch(len(chunk), vecs)
		b.Next()
		batches = append(batches, b)
	}
	return e.Ctx.Parallelize(batches, parts)
}

// windows yields b's windows, b itself each time.
func windows(b *columnar.Batch) rdd.Iter {
	return rdd.FuncIter(func() (any, bool) {
		if b.Next() {
			return b, true
		}
		return nil, false
	})
}

// sortRows orders rows by keys: stable, NULLs first, and last under
// DESC. Both places a plan can sort — the root of a statement and a
// Sort below it — carve their rows at the master and come here.
func sortRows(rows []row.Row, keys []plan.SortKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for _, k := range keys {
			c := compareNullable(k.Expr.Eval(a), k.Expr.Eval(b))
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func compareNullable(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	return row.Compare(a, b)
}

// fineBuckets returns the shuffle bucket count (finer than the reduce
// parallelism; PDE coalesces).
func (e *Engine) fineBuckets() int {
	return e.Ctx.Cluster.TotalSlots() * FineBucketsPerSlot
}

// Adaptive-execution decision accounting: each runtime plan change is
// counted on the scheduler metrics and attributed to the statement's
// job (flowing into JobStats and Session.Stats()). Decisions are made
// master-side during compilation, under the statement's job context.

func (e *Engine) noteBroadcastConversion(gctx context.Context) {
	e.Ctx.Scheduler().Metrics().BroadcastConversions.Add(1)
	rdd.JobFrom(gctx).NoteBroadcastConversion()
	obs.FromContext(gctx).Decision("broadcast-conversion")
}

func (e *Engine) noteSkewSplits(gctx context.Context, n int) {
	if n <= 0 {
		return
	}
	e.Ctx.Scheduler().Metrics().SkewSplits.Add(int64(n))
	rdd.JobFrom(gctx).NoteSkewSplits(int64(n))
	obs.FromContext(gctx).Decision(fmt.Sprintf("skew-split x%d", n))
}

func (e *Engine) noteAdaptiveCoalesce(gctx context.Context) {
	e.Ctx.Scheduler().Metrics().AdaptiveCoalesces.Add(1)
	rdd.JobFrom(gctx).NoteAdaptiveCoalesce()
	obs.FromContext(gctx).Decision("adaptive-coalesce")
}

// compile lowers a plan node to an RDD of column batches. gctx scopes
// the scheduler jobs some nodes run while compiling (PDE pre-shuffles,
// subquery materializations). p is the EXPLAIN ANALYZE profile being
// filled in, or nil (the untraced path: no wrapping, no counting).
func (e *Engine) compile(gctx context.Context, n plan.Node, stats *QueryStats, p *prof) (*rdd.RDD, error) {
	// A chain of filters and a projection runs fused over its source's
	// batches and counts its own rows.
	switch m := matchChain(n); {
	case m.agg != nil: // compiled below, its map side fused in compileAggregate
	case m.scan != nil:
		return e.compileMemScan(m, stats, p)
	case m.project != nil || m.filters != nil:
		src, err := e.compile(gctx, m.source, stats, p)
		if err != nil {
			return nil, err
		}
		return e.chainOver(src, m, p), nil
	}
	r, err := e.compileNode(gctx, n, stats, p)
	if err != nil {
		return nil, err
	}
	if ns := p.of(n); ns != nil {
		r = profileRows(r, ns)
	}
	return r, nil
}

func (e *Engine) compileNode(gctx context.Context, n plan.Node, stats *QueryStats, p *prof) (*rdd.RDD, error) {
	switch t := n.(type) {
	case *plan.Aggregate:
		return e.compileAggregate(gctx, t, stats, p)
	case *plan.Join:
		return e.compileJoin(gctx, t, stats, p)
	case *plan.Sort:
		// Sort below the root (e.g. in a subquery): materialize and
		// re-sort at the master; results at this position are small in
		// every workload the paper evaluates.
		child, err := e.compile(gctx, t.Child, stats, p)
		if err != nil {
			return nil, err
		}
		endSeg := p.of(n).beginSegment(gctx)
		rows, err := e.collectRows(gctx, child, nil)
		if err != nil {
			return nil, err
		}
		sortRows(rows, t.Keys)
		endSeg()
		return e.rowBatches(rows, len(t.Schema()), e.Ctx.Cluster.TotalSlots()), nil
	case *plan.Limit:
		child, err := e.compile(gctx, t.Child, stats, p)
		if err != nil {
			return nil, err
		}
		endSeg := p.of(n).beginSegment(gctx)
		// Partitions left to right, each cut to the rows still wanted.
		var rows []row.Row
		child = limitBatches(child, t.N)
		for part := 0; part < child.NumPartitions() && int64(len(rows)) < t.N; part++ {
			chunk, err := e.collectRows(gctx, child, []int{part})
			if err != nil {
				return nil, err
			}
			rows = append(rows, chunk[:min(len(chunk), int(t.N)-len(rows))]...)
		}
		endSeg()
		return e.rowBatches(rows, len(t.Schema()), 1), nil
	case plan.OneRow:
		return e.rowBatches([]row.Row{{}}, 0, 1), nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T", n)
}

// ---------------------------------------------------------------------------
// Aggregation: two-phase hash aggregation. Map tasks pre-aggregate
// locally into a group table and shuffle its groups as one block per
// bucket (aggblock.go); PDE picks the reduce parallelism by bin-packing
// the observed bucket sizes; each reduce task folds its buckets' blocks
// into a table of its own.

func (e *Engine) compileAggregate(gctx context.Context, a *plan.Aggregate, stats *QueryStats, p *prof) (*rdd.RDD, error) {
	ns := p.of(a)
	nBuckets := e.fineBuckets()
	var partial *rdd.RDD
	m := matchChain(a)
	m.buckets = nBuckets
	if m.scan != nil {
		var err error
		if partial, err = e.compileMemScan(m, stats, p); err != nil {
			return nil, err
		}
	} else {
		src, err := e.compile(gctx, m.source, stats, p)
		if err != nil {
			return nil, err
		}
		partial = e.chainOver(src, m, p)
	}
	dep := e.Ctx.NewShuffleDep(partial, blockBuckets(nBuckets), nil)

	// PDE: materialize the map side, observe bucket sizes, coalesce.
	endSeg := ns.beginSegment(gctx)
	shufStats, err := e.Ctx.Scheduler().MaterializeShuffleCtx(gctx, dep)
	if err != nil {
		return nil, err
	}
	endSeg()
	stats.ShuffleBytes += shufStats.TotalBytes
	var groups [][]int
	if e.opts.DisableAdaptiveExec {
		groups = nil // identity: one reduce task per fine bucket
		stats.ReducerCounts = append(stats.ReducerCounts, nBuckets)
		ns.Notef("reducers=%d (static)", nBuckets)
	} else {
		// Adaptive reduce parallelism: the task count follows the
		// observed map-output volume, not a static default. Aggregate
		// buckets are never skew-split — a group's partial aggregates must
		// finalize in exactly one task.
		target := pde.TargetReducers(shufStats.TotalBytes, e.opts.TargetPerReducerBytes,
			1, nBuckets)
		if target < e.Ctx.Cluster.TotalSlots() && shufStats.TotalRecords > int64(e.Ctx.Cluster.TotalSlots()) {
			target = e.Ctx.Cluster.TotalSlots()
		}
		groups = pde.Coalesce(shufStats.BucketBytes, target)
		stats.ReducerCounts = append(stats.ReducerCounts, len(groups))
		e.noteAdaptiveCoalesce(gctx)
		ns.Notef("reducers=%d (adaptive coalesce, %d buckets, %d shuffle bytes)",
			len(groups), nBuckets, shufStats.TotalBytes)
	}

	merged := e.Ctx.Shuffled(dep, groups, rdd.ReadRaw)
	return merged.MapPartitions(func(_ *rdd.TaskContext, _ int, in rdd.Iter) rdd.Iter {
		g := newGroupTable(a)
		g.borrow = true
		for {
			v, ok := in.Next()
			if !ok {
				if g.n == 0 {
					return rdd.EmptyIter()
				}
				return windows(g.batch())
			}
			g.fold(v.(shuffle.Pair).V.(*block))
		}
	}), nil
}

// blockBuckets partitions a shuffle of blocks — a partial aggregate's
// or a join side's: its map tasks have already cut their rows into one
// block per bucket, and a pair's key is its block's bucket.
type blockBuckets int

func (n blockBuckets) NumPartitions() int     { return int(n) }
func (blockBuckets) PartitionFor(key any) int { return int(key.(int64)) }
