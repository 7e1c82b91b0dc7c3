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
	"strings"

	"shark/internal/catalog"
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
// locally (the map-side combine), shuffle partial states by group key,
// and PDE picks the reduce parallelism by bin-packing observed bucket
// sizes.

func (e *Engine) compileAggregate(gctx context.Context, a *plan.Aggregate, stats *QueryStats, p *prof) (*rdd.RDD, error) {
	ns := p.of(a)
	specs := a.Aggs
	var partial *rdd.RDD
	if m := matchMemScan(a); m != nil {
		var err error
		if partial, err = e.compileMemScan(m, stats, p); err != nil {
			return nil, err
		}
	} else {
		child, err := e.compile(gctx, a.Child, stats, p)
		if err != nil {
			return nil, err
		}
		partial = e.partialAggregateRows(a, child)
	}

	nBuckets := e.fineBuckets()
	dep := e.Ctx.NewShuffleDep(partial, shuffle.HashPartitioner{N: nBuckets},
		func(x, y any) any { return x.(*aggState).merge(y.(*aggState), specs) })

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
		// buckets are never skew-split — a group's partial states must
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

	merged := e.Ctx.Shuffled(dep, groups, rdd.ReadCombine)
	nGroupCols := len(a.GroupBy)
	return merged.MapPartitions(func(part int, in rdd.Iter) rdd.Iter {
		return rdd.FuncIter(func() (any, bool) {
			v, ok := in.Next()
			if !ok {
				return nil, false
			}
			st := v.(shuffle.Pair).V.(*aggState)
			out := make(row.Row, nGroupCols+len(specs))
			copy(out, st.groupVals)
			for i, spec := range specs {
				out[nGroupCols+i] = st.finalize(i, spec)
			}
			return out, true
		})
	}), nil
}

// partialAggregateRows is the map side over a row RDD (joins,
// subqueries): per input partition, one pass folding each row into its
// group's state.
func (e *Engine) partialAggregateRows(a *plan.Aggregate, child *rdd.RDD) *rdd.RDD {
	groupFns := make([]expr.EvalFn, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groupFns[i] = g.Eval
	}
	argFns := make([]expr.EvalFn, len(a.Aggs))
	for i, spec := range a.Aggs {
		if spec.Arg != nil {
			argFns[i] = spec.Arg.Eval
		}
	}
	specs := a.Aggs
	return child.MapPartitions(func(part int, in rdd.Iter) rdd.Iter {
		g := newGroupTable(specs)
		var enc row.BinaryEncoder
		vals := make(row.Row, len(groupFns))
		for {
			v, ok := in.Next()
			if !ok {
				break
			}
			r := v.(row.Row)
			var st *aggState
			switch len(groupFns) {
			case 0:
				st = g.global()
			case 1:
				st = g.byValue(groupFns[0](r))
			default:
				enc.Reset(len(groupFns))
				for i, f := range groupFns {
					vals[i] = f(r)
					enc.Value(vals[i])
				}
				key := enc.Bytes()
				if st = g.composite(key); st == nil {
					st = g.addComposite(key, vals.Clone())
				}
			}
			st.update(specs, argFns, r)
		}
		// Global aggregation must produce a row even over empty input
		// (COUNT(*) = 0, SUM = NULL), so emit an identity state.
		if len(groupFns) == 0 {
			g.global()
		}
		return rdd.SliceIter(g.pairs)
	})
}

func normalizeGroupKey(v any) any {
	if v == nil {
		return "\x00null\x00" // map keys must be comparable; nil is, but keep it distinct from ""
	}
	return v
}

// aggState is the partial-aggregation accumulator shipped through the
// shuffle (memory mode keeps it as a pointer; the MR baseline uses its
// own row-encodable states).
type aggState struct {
	groupVals row.Row
	accs      []aggAcc
}

type aggAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	seen     bool
	min, max any
	distinct map[any]struct{}
}

func newAggState(groupVals row.Row, specs []plan.AggSpec) *aggState {
	st := &aggState{groupVals: groupVals, accs: make([]aggAcc, len(specs))}
	for i, s := range specs {
		if s.Kind == plan.AggCountDistinct {
			st.accs[i].distinct = make(map[any]struct{})
		}
	}
	return st
}

func (st *aggState) update(specs []plan.AggSpec, argFns []expr.EvalFn, r row.Row) {
	for i, spec := range specs {
		if argFns[i] == nil { // COUNT(*)
			st.accs[i].count++
		} else {
			st.accs[i].add(spec.Kind, argFns[i](r))
		}
	}
}

// add folds one boxed argument value into the accumulator; every
// aggregate ignores NULL. A value it keeps is kept as it is: the rows
// of the row path own their strings (a batch's do not: addString).
func (acc *aggAcc) add(kind plan.AggKind, v any) {
	if v != nil {
		acc.fold(kind, v)
	}
}

// fold is add for a non-NULL value the accumulator may keep.
func (acc *aggAcc) fold(kind plan.AggKind, v any) {
	switch kind {
	case plan.AggCount:
		acc.count++
	case plan.AggCountDistinct:
		acc.distinct[v] = struct{}{}
	case plan.AggSum, plan.AggAvg:
		acc.seen = true
		acc.count++
		switch x := v.(type) {
		case int64:
			acc.sumI += x
			acc.sumF += float64(x)
		case float64:
			acc.sumF += x
		}
	case plan.AggMin:
		if acc.min == nil || row.Compare(v, acc.min) < 0 {
			acc.min = v
		}
	case plan.AggMax:
		if acc.max == nil || row.Compare(v, acc.max) > 0 {
			acc.max = v
		}
	}
}

// addInt, addFloat and addString are add for a value held unboxed (the
// batch aggregator reads them straight off a vector): they do the
// arithmetic in place and box only a value the accumulator keeps — a
// new MIN or MAX, a new distinct value.

func (acc *aggAcc) addInt(kind plan.AggKind, x int64) {
	switch kind {
	case plan.AggCount:
		acc.count++
	case plan.AggSum, plan.AggAvg:
		acc.seen = true
		acc.count++
		acc.sumI += x
		acc.sumF += float64(x)
	default:
		if keeps(acc, kind, x) {
			acc.fold(kind, x)
		}
	}
}

func (acc *aggAcc) addFloat(kind plan.AggKind, x float64) {
	switch kind {
	case plan.AggCount:
		acc.count++
	case plan.AggSum, plan.AggAvg:
		acc.seen = true
		acc.count++
		acc.sumF += x
	default:
		if keeps(acc, kind, x) {
			acc.fold(kind, x)
		}
	}
}

// addString copies the string it keeps: x may be a sub-string of a
// cached partition's column data, and the accumulator outlives the
// scan.
func (acc *aggAcc) addString(kind plan.AggKind, x string) {
	if kind == plan.AggCount {
		acc.count++
	} else if keeps(acc, kind, x) {
		acc.fold(kind, strings.Clone(x))
	}
}

// keeps reports whether a MIN, MAX or COUNT(DISTINCT) accumulator
// would retain x. It errs towards true — add decides — whenever the
// kept value is not of x's own type.
func keeps[T int64 | float64 | string](acc *aggAcc, kind plan.AggKind, x T) bool {
	switch kind {
	case plan.AggMin:
		cur, ok := acc.min.(T)
		return !ok || x < cur
	case plan.AggMax:
		cur, ok := acc.max.(T)
		return !ok || x > cur
	case plan.AggCountDistinct:
		_, seen := acc.distinct[x]
		return !seen
	}
	return true
}

// clone deep-copies the state. Merging never mutates its inputs:
// states live in shuffle buckets that retried or speculative reduce
// tasks may re-read, so in-place merging would double-count.
func (st *aggState) clone(specs []plan.AggSpec) *aggState {
	out := &aggState{groupVals: st.groupVals, accs: append([]aggAcc(nil), st.accs...)}
	for i, s := range specs {
		if s.Kind == plan.AggCountDistinct {
			m := make(map[any]struct{}, len(st.accs[i].distinct))
			for v := range st.accs[i].distinct {
				m[v] = struct{}{}
			}
			out.accs[i].distinct = m
		}
	}
	return out
}

// merge returns a fresh state holding st ⊕ other.
func (st *aggState) merge(other *aggState, specs []plan.AggSpec) *aggState {
	st = st.clone(specs)
	for i, spec := range specs {
		a, b := &st.accs[i], &other.accs[i]
		switch spec.Kind {
		case plan.AggCount:
			a.count += b.count
		case plan.AggCountDistinct:
			for v := range b.distinct {
				a.distinct[v] = struct{}{}
			}
		case plan.AggSum, plan.AggAvg:
			a.count += b.count
			a.sumI += b.sumI
			a.sumF += b.sumF
			a.seen = a.seen || b.seen
		case plan.AggMin:
			if b.min != nil && (a.min == nil || row.Compare(b.min, a.min) < 0) {
				a.min = b.min
			}
		case plan.AggMax:
			if b.max != nil && (a.max == nil || row.Compare(b.max, a.max) > 0) {
				a.max = b.max
			}
		}
	}
	return st
}

func (st *aggState) finalize(i int, spec plan.AggSpec) any {
	acc := &st.accs[i]
	switch spec.Kind {
	case plan.AggCount:
		return acc.count
	case plan.AggCountDistinct:
		return int64(len(acc.distinct))
	case plan.AggSum:
		if !acc.seen {
			return nil
		}
		if spec.Out == row.TInt {
			return acc.sumI
		}
		return acc.sumF
	case plan.AggAvg:
		if acc.count == 0 {
			return nil
		}
		return acc.sumF / float64(acc.count)
	case plan.AggMin:
		return acc.min
	case plan.AggMax:
		return acc.max
	}
	return nil
}
