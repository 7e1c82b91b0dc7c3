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
	"shark/internal/memtable"
	"shark/internal/obs"
	"shark/internal/pde"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
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

// Result is a fully materialized query result: Body column-major, as
// the final stage left it, and Rows, the body boxed by RunCtx and
// RunAnalyzeCtx (nil from RunBodyCtx).
type Result struct {
	Schema row.Schema
	Rows   []row.Row
	Body   *columnar.Body
	Stats  QueryStats
}

// CompileToRDDCtx lowers a plan without running the final collect —
// the sql2rdd and CTAS path. batches is the compiled plan, one
// *columnar.Batch a window (TableRDD.MapRows reads them in place); rows
// carves each batch into rows, one slab a batch, for TableRDD.RDD and
// CTAS. Top-level Sort/Limit nodes are not supported here (the session
// materializes those). PDE pre-shuffles run during compilation execute
// under the attached job and honor cancellation.
func (e *Engine) CompileToRDDCtx(gctx context.Context, n plan.Node) (rows, batches *rdd.RDD, err error) {
	batches, err = e.compile(gctx, n, &QueryStats{}, nil)
	if err != nil {
		return nil, nil, err
	}
	cols := upTo[int](len(n.Schema()))
	return batches.MapPartitions(func(_ *rdd.TaskContext, _ int, in rdd.Iter) rdd.Iter {
		return memtable.BatchRows(func() []row.Row {
			v, ok := in.Next()
			if !ok {
				return nil
			}
			b := v.(*columnar.Batch)
			return b.Rows(cols, b.Sel)
		})
	}), batches, nil
}

// RunCtx executes a logical plan to completion under a context: every
// scheduler job it spawns (PDE map stages, the final collect) runs
// under the job attached by rdd.WithJob, and cancelling gctx aborts
// the query with an error wrapping context.Canceled.
func (e *Engine) RunCtx(gctx context.Context, n plan.Node) (*Result, error) {
	return boxRows(e.runCtx(gctx, n, nil))
}

// RunBodyCtx is RunCtx leaving the result column-major: Body only,
// for a caller that never needs rows (the server's cursor).
func (e *Engine) RunBodyCtx(gctx context.Context, n plan.Node) (*Result, error) {
	return e.runCtx(gctx, n, nil)
}

func boxRows(res *Result, err error) (*Result, error) {
	if err == nil {
		res.Rows = res.Body.Rows()
	}
	return res, err
}

// RunAnalyzeCtx is RunCtx with EXPLAIN ANALYZE profiling: it returns
// the result plus the annotated per-node statistics tree. Every instant
// of the master's wall clock is charged to one node, so the nodes'
// wall times sum to the statement's.
func (e *Engine) RunAnalyzeCtx(gctx context.Context, n plan.Node) (*Result, *NodeStats, error) {
	p := newProf(n)
	res, err := boxRows(e.runCtx(gctx, n, p))
	p.root.tl.charge() // boxing the result is the root's
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
	body, err := e.collect(gctx, r, nil)
	if err != nil {
		return nil, err
	}
	endCollect()

	if sortKeys != nil {
		endSort := sortNS.beginSegment(gctx)
		sortNS.AddRows(int64(body.Len))
		body = sortBody(body, sortKeys, limit)
		endSort()
	}
	if limit >= 0 {
		body.Limit(int(limit))
	}
	limNS.AddRows(int64(body.Len))
	return &Result{Schema: schema, Body: body, Stats: *stats}, nil
}

// collect runs r's final stage over parts (nil: all): each task turns
// its batches into windows of the result (bodyOf), strung together in
// partition order.
func (e *Engine) collect(gctx context.Context, r *rdd.RDD, parts []int) (*columnar.Body, error) {
	outs, err := e.Ctx.Scheduler().RunJobCtx(gctx, r, parts, func(_ *rdd.TaskContext, _ int, it rdd.Iter) (any, error) {
		return bodyOf(it), nil
	})
	if err != nil {
		return nil, err
	}
	body := &columnar.Body{}
	for _, o := range outs {
		body.Append(o.(*columnar.Body))
	}
	return body, nil
}

// bodyOf turns a final task's batches into its windows of the result,
// a window a batch, each the batch's selection kept (Batch.Keep): here
// a statement's result is born, and a string still sharing a
// partition's bytes is copied out of it — once.
func bodyOf(it rdd.Iter) *columnar.Body {
	body := &columnar.Body{}
	for x, ok := it.Next(); ok; x, ok = it.Next() {
		if b := x.(*columnar.Batch); len(b.Sel) > 0 {
			w := columnar.Window{N: len(b.Sel), Vecs: make([]columnar.Vec, b.Width())}
			for c := range w.Vecs {
				w.Vecs[c] = b.Keep(c, b.Sel)
			}
			body.Add(w)
		}
	}
	return body
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

// bodyBatches hands a body collected at the master to the operators
// above it, over parts partitions: what a Sort or Limit below the root
// does. Each window (none over BatchSize rows) becomes a VecBatch in
// the task that reads it.
func (e *Engine) bodyBatches(body *columnar.Body, parts int) *rdd.RDD {
	ws := make([]any, len(body.Windows))
	for i := range ws {
		ws[i] = &body.Windows[i]
	}
	return e.Ctx.Parallelize(ws, parts).Map(func(v any) any {
		w := v.(*columnar.Window)
		b := columnar.VecBatch(w.N, w.Vecs)
		b.Next()
		return b
	})
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

// sortBody orders a body's rows by keys — stable, NULLs first and last
// under DESC, numbers by value whatever their vectors' kinds — and
// keeps the first limit (all when limit < 0). Both places a plan can
// sort, the root of a statement and a Sort below it, come here: one
// permutation over the key vectors, then each column gathered once.
func sortBody(body *columnar.Body, keys []plan.SortKey, limit int64) *columnar.Body {
	type at struct{ w, i int32 }
	perm := make([]at, 0, body.Len)
	for w := range body.Windows {
		for i := range body.Windows[w].N {
			perm = append(perm, at{int32(w), int32(i)})
		}
	}
	sort.SliceStable(perm, func(x, y int) bool {
		a, b := perm[x], perm[y]
		for _, k := range keys {
			c := k.Expr.(*expr.Col).Idx
			if o := compareAt(&body.Windows[a.w].Vecs[c], a.i, &body.Windows[b.w].Vecs[c], b.i); o != 0 {
				return (o < 0) != k.Desc
			}
		}
		return false
	})
	if limit >= 0 && int64(len(perm)) > limit {
		perm = perm[:limit]
	}
	out := &columnar.Body{}
	for lo := 0; lo < len(perm); lo += columnar.BatchSize {
		chunk := perm[lo:min(lo+columnar.BatchSize, len(perm))]
		w := columnar.Window{N: len(chunk), Vecs: make([]columnar.Vec, len(body.Windows[0].Vecs))}
		for j, p := range chunk {
			for c := range w.Vecs {
				appendVec(&w.Vecs[c], &body.Windows[p.w].Vecs[c], []int32{p.i}, j, 0)
			}
		}
		out.Add(w)
	}
	return out
}

// compareAt compares a's value at i with b's at j as row.Compare does
// (NULL first), reading the vectors typed where their kinds agree.
func compareAt(a *columnar.Vec, i int32, b *columnar.Vec, j int32) int {
	if an, bn := a.Null(i), b.Null(j); an || bn {
		if an == bn {
			return 0
		} else if an {
			return -1
		}
		return 1
	}
	switch {
	case a.Kind != b.Kind:
	case a.Kind == columnar.VecInt:
		return order(a.Ints[i], b.Ints[j])
	case a.Kind == columnar.VecFloat:
		return order(a.Floats[i], b.Floats[j])
	case a.Kind == columnar.VecStr:
		return order(a.Str(i), b.Str(j))
	}
	return row.Compare(a.At(i), b.At(j))
}

// order is row.Compare's order within one type: a NaN equals anything.
func order[T int64 | float64 | string](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
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
	defer p.of(n).enter()()
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
		body, err := e.collect(gctx, child, nil)
		if err != nil {
			return nil, err
		}
		body = sortBody(body, t.Keys, -1)
		endSeg()
		return e.bodyBatches(body, e.Ctx.Cluster.TotalSlots()), nil
	case *plan.Limit:
		child, err := e.compile(gctx, t.Child, stats, p)
		if err != nil {
			return nil, err
		}
		endSeg := p.of(n).beginSegment(gctx)
		// Partitions left to right, until the rows wanted are in.
		body := &columnar.Body{}
		child = limitBatches(child, t.N)
		for part := 0; part < child.NumPartitions() && int64(body.Len) < t.N; part++ {
			chunk, err := e.collect(gctx, child, []int{part})
			if err != nil {
				return nil, err
			}
			body.Append(chunk)
		}
		body.Limit(int(t.N))
		endSeg()
		return e.bodyBatches(body, 1), nil
	case plan.OneRow:
		return e.bodyBatches(&columnar.Body{Windows: []columnar.Window{{N: 1}}, Len: 1}, 1), nil
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
	return merged.MapPartitions(func(_ *rdd.TaskContext, part int, in rdd.Iter) rdd.Iter {
		var records int64 // PDE's count for the task's buckets; one bucket (groups nil) sizes nothing
		if groups != nil {
			for _, b := range groups[part] {
				records += shufStats.BucketRecords[b]
			}
		}
		if g := reduce(a, in, records); g.n > 0 {
			return windows(g.batch())
		}
		return rdd.EmptyIter()
	}), nil
}

// blockBuckets partitions a shuffle of blocks — a partial aggregate's
// or a join side's: its map tasks have already cut their rows into one
// block per bucket, and a pair's key is its block's bucket.
type blockBuckets int

func (n blockBuckets) NumPartitions() int     { return int(n) }
func (blockBuckets) PartitionFor(key any) int { return int(key.(int64)) }
