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
	"shark/internal/expr"
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
// collect — the sql2rdd path. Top-level Sort/Limit nodes are not
// supported here (the session materializes those). PDE pre-shuffles
// run during compilation execute under the attached job and honor
// cancellation.
func (e *Engine) CompileToRDDCtx(gctx context.Context, n plan.Node) (*rdd.RDD, error) {
	stats := &QueryStats{}
	return e.compile(gctx, n, stats, nil)
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
		lim := limit
		r = r.MapPartitions(func(part int, in rdd.Iter) rdd.Iter {
			var taken int64
			return rdd.FuncIter(func() (any, bool) {
				if taken >= lim {
					return nil, false
				}
				v, ok := in.Next()
				if !ok {
					return nil, false
				}
				taken++
				return v, true
			})
		})
	}

	endCollect := p.of(n).beginSegment(gctx)
	raw, err := r.CollectCtx(gctx)
	if err != nil {
		return nil, err
	}
	endCollect()

	if sortKeys != nil {
		endSort := sortNS.beginSegment(gctx)
		sortRows(raw, sortKeys)
		endSort()
		sortNS.AddRows(int64(len(raw)))
	}
	rows := make([]row.Row, len(raw))
	for i, v := range raw {
		rows[i] = v.(row.Row)
	}
	if limit >= 0 && int64(len(rows)) > limit {
		rows = rows[:limit]
	}
	limNS.AddRows(int64(len(rows)))
	return &Result{Schema: schema, Rows: rows, Stats: *stats}, nil
}

// sortRows orders collected rows (each a row.Row) by keys: stable, NULLs
// first, and last under DESC. Both places a plan can sort — the root
// of a statement and a Sort below it — collect to the master and come
// here.
func sortRows(rows []any, keys []plan.SortKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i].(row.Row), rows[j].(row.Row)
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

// compile lowers a plan node to an RDD of row.Row. gctx scopes the
// scheduler jobs some nodes run while compiling (PDE pre-shuffles,
// subquery materializations). p is the EXPLAIN ANALYZE profile being
// filled in, or nil (the untraced path: no wrapping, no counting).
func (e *Engine) compile(gctx context.Context, n plan.Node, stats *QueryStats, p *prof) (*rdd.RDD, error) {
	// A row-producing chain over a table scan runs fused and counts its
	// own rows. (An Aggregate on such a chain fuses its map side in
	// compileAggregate; what it returns is an ordinary row RDD.)
	if m := matchMemScan(n); m != nil && m.agg == nil {
		return e.compileMemScan(m, stats, p)
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
	case *plan.Filter:
		child, err := e.compile(gctx, t.Child, stats, p)
		if err != nil {
			return nil, err
		}
		pred := t.Cond.Eval
		return child.Filter(func(v any) bool { return row.Truth(pred(v.(row.Row))) }), nil
	case *plan.Project:
		child, err := e.compile(gctx, t.Child, stats, p)
		if err != nil || isIdentityProject(t) {
			// An identity projection (SELECT *, the projection over an
			// Aggregate) only renames: the result schema is the
			// Project's, the rows are the child's.
			return child, err
		}
		fns := make([]expr.EvalFn, len(t.Exprs))
		for i, x := range t.Exprs {
			fns[i] = x.Eval
		}
		return child.Map(func(v any) any {
			in := v.(row.Row)
			out := make(row.Row, len(fns))
			for i, f := range fns {
				out[i] = f(in)
			}
			return out
		}), nil
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
		raw, err := child.CollectCtx(gctx)
		if err != nil {
			return nil, err
		}
		sortRows(raw, t.Keys)
		endSeg()
		return e.Ctx.Parallelize(raw, e.Ctx.Cluster.TotalSlots()), nil
	case *plan.Limit:
		child, err := e.compile(gctx, t.Child, stats, p)
		if err != nil {
			return nil, err
		}
		endSeg := p.of(n).beginSegment(gctx)
		raw, err := child.TakeCtx(gctx, int(t.N))
		if err != nil {
			return nil, err
		}
		endSeg()
		return e.Ctx.Parallelize(raw, 1), nil
	case plan.OneRow:
		return e.Ctx.Parallelize([]any{row.Row{}}, 1), nil
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
	if m := matchMemScan(a); m != nil {
		m.buckets = nBuckets
		var err error
		if partial, err = e.compileMemScan(m, stats, p); err != nil {
			return nil, err
		}
	} else {
		child, err := e.compile(gctx, a.Child, stats, p)
		if err != nil {
			return nil, err
		}
		partial = e.partialAggregateRows(a, child, nBuckets)
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
	return merged.MapPartitions(func(_ int, in rdd.Iter) rdd.Iter {
		g := newGroupTable(a)
		g.borrow = true
		for {
			v, ok := in.Next()
			if !ok {
				return rdd.SliceIter(g.rows())
			}
			g.fold(v.(shuffle.Pair).V.(*aggBlock))
		}
	}), nil
}

// blockBuckets partitions a partial aggregate's shuffle: its map tasks
// have already cut their groups into one block per bucket, and a
// pair's key is its block's bucket.
type blockBuckets int

func (n blockBuckets) NumPartitions() int     { return int(n) }
func (blockBuckets) PartitionFor(key any) int { return int(key.(int64)) }

// partialAggregateRows is the map side over a row RDD (joins,
// subqueries): the batch kernels' group table, fed one row at a time
// as one-slot boxed vectors.
func (e *Engine) partialAggregateRows(a *plan.Aggregate, child *rdd.RDD, buckets int) *rdd.RDD {
	return child.MapPartitions(func(_ int, in rdd.Iter) rdd.Iter {
		var r row.Row
		one := []int32{0}
		next := func() ([]int32, bool) {
			v, ok := in.Next()
			r, _ = v.(row.Row)
			return one, ok
		}
		eval := func(x expr.Expr) valFn {
			cell := make([]any, 1)
			return func([]int32) columnar.Vec {
				cell[0] = x.Eval(r)
				return columnar.Vec{Kind: columnar.VecAny, Anys: cell}
			}
		}
		g := newGroupTable(a)
		return rdd.SliceIter(g.partial(next, g.resolver(a.GroupBy, eval), eval, buckets))
	})
}
