package exec

import (
	"context"
	"math"
	"slices"

	"shark/internal/expr"
	"shark/internal/obs"
	"shark/internal/pde"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// compileJoin lowers an equi-join, choosing among (paper §3.1.1, §3.4):
//
//   - co-partitioned map join: both sides are memstore tables
//     DISTRIBUTEd BY the join keys with identical partitioners — no
//     shuffle at all, ZipPartitions + local hash join;
//   - map (broadcast) join: one side observed or estimated small —
//     collect it, broadcast the hash table, map over the other side;
//   - shuffle join: hash-repartition both sides into fine buckets and
//     join bucket-wise, with the local build side chosen per bucket
//     from run-time statistics.
//
// In adaptive modes the decision uses sizes observed by PDE after
// running pre-shuffle map stages.
func (e *Engine) compileJoin(gctx context.Context, j *plan.Join, stats *QueryStats, p *prof) (*rdd.RDD, error) {
	// Co-partitioned fast path.
	if r, ok, err := e.tryCopartitionedJoin(j, stats, p); err != nil || ok {
		p.of(j).Notef("copartitioned map join")
		return r, err
	}

	left, err := e.compile(gctx, j.Left, stats, p)
	if err != nil {
		return nil, err
	}
	right, err := e.compile(gctx, j.Right, stats, p)
	if err != nil {
		return nil, err
	}
	mode := e.opts.JoinStrategy
	if e.opts.DisableAdaptiveExec {
		// With adaptive execution disabled the strategy mode is moot:
		// every join is planned purely from static estimates.
		mode = StrategyStatic
	}
	l := &joinSide{name: "left", rdd: left, key: j.LeftKey.Eval, est: estimateSide(j.Left)}
	r := &joinSide{name: "right", rdd: right, key: j.RightKey.Eval, est: estimateSide(j.Right)}
	ns := p.of(j)

	// The mode says which sides are pre-shuffled before deciding: none
	// (static — the decision reads the estimates), the estimated-smaller
	// one (static+adaptive — the big side is never shuffled when the
	// observation confirms the prior, Fig. 8's best plan), or both
	// (adaptive). A mode that observes broadcasts only a side it
	// measured. The chosen strategy then reuses whatever map output
	// already exists.
	shuffled := func(sides ...*joinSide) (err error) {
		for _, s := range sides {
			if s.dep == nil {
				if s.dep, s.stats, err = e.preShuffle(gctx, s.rdd, s.key, ns); err != nil {
					return err
				}
			}
		}
		return nil
	}
	switch {
	case mode == StrategyAdaptive:
		err = shuffled(l, r)
	case mode == StrategyStaticAdaptive && l.est <= r.est:
		err = shuffled(l)
	case mode == StrategyStaticAdaptive:
		err = shuffled(r)
	}
	if err != nil {
		return nil, err
	}
	size := func(s *joinSide) int64 {
		switch {
		case s.stats != nil:
			return s.stats.TotalBytes
		case mode == StrategyStatic:
			return s.est
		}
		return math.MaxInt64
	}
	choose := func(lBytes, rBytes int64) pde.JoinStrategy {
		return pde.ChooseJoinStrategy(lBytes, rBytes, e.opts.BroadcastThreshold)
	}
	choice := choose(size(l), size(r))
	if choice != pde.ShuffleJoin && choose(l.est, r.est) == pde.ShuffleJoin {
		// A conversion is counted only when the static estimates would
		// have kept the shuffle join — i.e. the observed statistics
		// genuinely changed the plan at runtime.
		e.noteBroadcastConversion(gctx)
	}
	label := func(strategy string) {
		stats.JoinStrategies = append(stats.JoinStrategies, mode.String()+":"+strategy)
		ns.Notef("%s:%s", mode, strategy)
	}
	small, big := l, r
	switch choice {
	case pde.MapJoinRight:
		small, big = r, l
		fallthrough
	case pde.MapJoinLeft:
		label("map-join(" + small.name + ")")
		return e.broadcastJoin(gctx, small, big, small == l, ns)
	}
	label("shuffle-join")
	if err := shuffled(l, r); err != nil {
		return nil, err
	}
	return e.shuffleJoinRead(gctx, l.dep, r.dep, l.stats, r.stats, stats, ns), nil
}

// joinSide is one input of a join being planned: its rows and key, its
// static size estimate, and — once pre-shuffled — its map output and
// the statistics PDE observed on it.
type joinSide struct {
	name  string
	rdd   *rdd.RDD
	key   expr.EvalFn
	est   int64
	dep   *rdd.ShuffleDep
	stats *pde.StageStats
}

// estimateSide statically estimates a child's output bytes: catalog
// sizes discounted per simple filter conjunct. Predicates containing
// function calls (UDFs) get no discount — the static optimizer has no
// selectivity estimate for them, which is exactly the blind spot PDE
// closes (§3.1, §6.3.2).
func estimateSide(n plan.Node) int64 {
	switch t := n.(type) {
	case *plan.Scan:
		est := t.EstBytes()
		for _, f := range t.Filters {
			if !containsCall(f) {
				est = est * 3 / 10
			}
		}
		return est
	case *plan.Filter:
		if containsCall(t.Cond) {
			return estimateSide(t.Child)
		}
		return estimateSide(t.Child) * 3 / 10
	case *plan.Project:
		return estimateSide(t.Child)
	case *plan.Aggregate:
		return estimateSide(t.Child) / 4
	case *plan.Join:
		return estimateSide(t.Left) + estimateSide(t.Right)
	}
	return 1 << 30
}

// containsCall reports whether an expression tree invokes any function
// (built-in or UDF) — treated as unestimatable by the static planner.
func containsCall(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) {
		if _, ok := x.(*expr.Call); ok {
			found = true
		}
	})
	return found
}

// preShuffle materializes the map side of a shuffle keyed by keyFn and
// returns the dependency plus observed statistics (the PDE primitive).
// A row whose key is NULL matches nothing and is not shuffled.
func (e *Engine) preShuffle(gctx context.Context, r *rdd.RDD, keyFn expr.EvalFn, ns *NodeStats) (*rdd.ShuffleDep, *pde.StageStats, error) {
	pairs := r.Map(func(v any) any {
		return shuffle.Pair{K: keyFn(v.(row.Row)), V: v}
	}).Filter(func(p any) bool { return p.(shuffle.Pair).K != nil })
	dep := e.Ctx.NewShuffleDep(pairs, shuffle.HashPartitioner{N: e.fineBuckets()}, nil)
	endSeg := ns.beginSegment(gctx)
	st, err := e.Ctx.Scheduler().MaterializeShuffleCtx(gctx, dep)
	if err != nil {
		return nil, nil, err
	}
	endSeg()
	return dep, st, nil
}

// shuffleJoinRead joins two materialized shuffles bucket-by-bucket.
// Buckets are coalesced into reduce partitions by bin-packing the
// combined observed sizes; a bucket whose bytes exceed the skew factor
// is instead split across several tasks, each fetching the bucket's
// full build side but only a disjoint subset of the probe side's map
// outputs — the union of the split tasks' outputs is exactly the
// bucket's join result. Within each bucket the hash table is built
// over whichever input has fewer records (run-time choice, §3.1.1);
// the other side is the probe side a split slices.
func (e *Engine) shuffleJoinRead(gctx context.Context, lDep, rDep *rdd.ShuffleDep, lStats, rStats *pde.StageStats, stats *QueryStats, ns *NodeStats) *rdd.RDD {
	n := lDep.Partitioner.NumPartitions()
	combined := make([]int64, n)
	for i := 0; i < n; i++ {
		combined[i] = lStats.BucketBytes[i] + rStats.BucketBytes[i]
	}
	var total int64
	for _, b := range combined {
		total += b
	}
	stats.ShuffleBytes += total
	lRecs := append([]int64(nil), lStats.BucketRecords...)
	rRecs := append([]int64(nil), rStats.BucketRecords...)
	buildLeft := func(b int) bool { return lRecs[b] <= rRecs[b] }

	if e.opts.DisableAdaptiveExec {
		// Static reduce side: one whole-bucket task per fine bucket.
		tasks := make([][]pde.BucketSlice, n)
		for i := range tasks {
			tasks[i] = []pde.BucketSlice{{Bucket: i}}
		}
		stats.ReducerCounts = append(stats.ReducerCounts, n)
		ns.Notef("reducers=%d (static)", n)
		return joinSource(e.Ctx, lDep, rDep, tasks, buildLeft)
	}

	// Adaptive reduce side: coalesce cold buckets, split hot ones.
	plan := pde.PlanReduce(combined, func(b int) []int64 {
		probe := lDep
		if buildLeft(b) {
			probe = rDep
		}
		return e.Ctx.Tracker().PerMapBucketBytes(probe.ID, b)
	}, pde.SkewConfig{
		TargetBytes: e.opts.TargetPerReducerBytes,
		MinTasks:    e.Ctx.Cluster.TotalSlots(),
		MaxTasks:    n,
		SkewFactor:  e.opts.SkewFactor,
		MaxSplit:    e.Ctx.Cluster.TotalSlots(),
	})
	e.noteAdaptiveCoalesce(gctx)
	e.noteSkewSplits(gctx, len(plan.SplitBuckets))
	stats.ReducerCounts = append(stats.ReducerCounts, len(plan.Tasks))
	ns.Notef("reducers=%d (adaptive, %d skew splits, %d shuffle bytes)",
		len(plan.Tasks), len(plan.SplitBuckets), total)
	return joinSource(e.Ctx, lDep, rDep, plan.Tasks, buildLeft)
}

// joinSource builds the reduce-side RDD of a shuffle join. Each task
// joins its bucket slices: the whole build side of the bucket against
// the slice's share of the probe side (all of it unless skew split).
// The two shuffle dependencies are declared on the RDD even though
// compute fetches their buckets directly: lineage walks must see that
// a live join RDD still needs them (shuffle cleanup, recovery). Each
// slice boundary polls the task's context so a cancelled query aborts
// the join mid-partition.
func joinSource(ctx *rdd.Context, lDep, rDep *rdd.ShuffleDep, tasks [][]pde.BucketSlice, buildLeft func(bucket int) bool) *rdd.RDD {
	deps := []rdd.Dependency{lDep, rDep}
	return ctx.SourceWithDeps("shuffle-join", len(tasks), deps, func(tc *rdd.TaskContext, part int) rdd.Iter {
		var out []any
		for _, s := range tasks[part] {
			tc.FailIfCancelled()
			left := buildLeft(s.Bucket)
			build, probe := lDep, rDep
			if !left {
				build, probe = rDep, lDep
			}
			pairs := fetchBucket(tc, build, s.Bucket, nil)
			t := newJoinTable(len(pairs), left)
			for _, p := range pairs {
				t.add(p.K, p.V.(row.Row))
			}
			for _, p := range fetchBucket(tc, probe, s.Bucket, s.Maps) {
				out = t.probe(out, p.K, p.V.(row.Row))
			}
		}
		return rdd.SliceIter(out)
	}, nil)
}

// fetchBucket fetches one side of a bucket: every map partition's
// share, or with maps set only theirs — the skew-split read.
func fetchBucket(tc *rdd.TaskContext, dep *rdd.ShuffleDep, bucket int, maps []int) []shuffle.Pair {
	var pairs []shuffle.Pair
	var err error
	if maps == nil {
		pairs, err = tc.Ctx.Shuffle.Fetch(dep.ID, bucket, tc.Ctx.MapOutputLocations(dep))
	} else {
		pairs, err = tc.Ctx.Shuffle.FetchPartial(dep.ID, bucket, tc.Ctx.Tracker().Locations(dep.ID), maps)
	}
	if err != nil {
		rdd.Fail(err)
	}
	obs.FromContext(tc.Gctx).AddFetch(int64(len(pairs)))
	return pairs
}

// joinTable is the build side of every local hash join — a shuffle
// join's bucket, a map join's broadcast small side, a co-partitioned
// join's left partition: rows by join key, all from one input.
type joinTable struct {
	rows      map[any][]row.Row
	buildLeft bool // the rows are the join's left input
}

func newJoinTable(n int, buildLeft bool) joinTable {
	return joinTable{rows: make(map[any][]row.Row, n), buildLeft: buildLeft}
}

// add files r under k. A NULL key equals nothing, itself included, so
// it is never added.
func (t joinTable) add(k any, r row.Row) {
	if k != nil {
		t.rows[k] = append(t.rows[k], r)
	}
}

// probe appends r joined with every build row under k, each as
// left ++ right whichever side built. out grows once, by the matches.
func (t joinTable) probe(out []any, k any, r row.Row) []any {
	matches := t.rows[k]
	out = slices.Grow(out, len(matches))
	for _, m := range matches {
		if t.buildLeft {
			out = append(out, concatRows(m, r))
		} else {
			out = append(out, concatRows(r, m))
		}
	}
	return out
}

func concatRows(a, b row.Row) row.Row {
	out := make(row.Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// broadcastJoin builds the hash table over the small side and probes
// it from map tasks over the big side — no shuffle of the big side.
// The small side's rows are fetched from its buckets when PDE already
// materialized it as shuffle map output, and collected by an ordinary
// job otherwise.
func (e *Engine) broadcastJoin(gctx context.Context, small, big *joinSide, smallIsLeft bool, ns *NodeStats) (*rdd.RDD, error) {
	endSeg := ns.beginSegment(gctx)
	var t joinTable
	if small.dep == nil {
		rows, err := small.rdd.CollectCtx(gctx)
		if err != nil {
			return nil, err
		}
		t = newJoinTable(len(rows), smallIsLeft)
		for _, v := range rows {
			r := v.(row.Row)
			t.add(small.key(r), r)
		}
	} else {
		t = newJoinTable(0, smallIsLeft)
		locs := e.Ctx.Tracker().Locations(small.dep.ID)
		tr := obs.FromContext(gctx)
		for b := 0; b < small.dep.Partitioner.NumPartitions(); b++ {
			pairs, err := e.Ctx.Shuffle.Fetch(small.dep.ID, b, locs)
			if err != nil {
				return nil, err
			}
			tr.AddFetch(int64(len(pairs)))
			for _, p := range pairs {
				t.add(p.K, p.V.(row.Row))
			}
		}
	}
	endSeg()
	bc := e.Ctx.NewBroadcast(t)
	return big.rdd.FlatMap(func(v any) []any {
		r := v.(row.Row)
		return bc.Value.(joinTable).probe(nil, big.key(r), r)
	}), nil
}

// tryCopartitionedJoin detects the §3.4 case: both children are scans
// of cached tables DISTRIBUTEd BY the join keys with identical
// partitioning. The join then runs as map tasks only.
func (e *Engine) tryCopartitionedJoin(j *plan.Join, stats *QueryStats, p *prof) (*rdd.RDD, bool, error) {
	ls, lok := j.Left.(*plan.Scan)
	rs, rok := j.Right.(*plan.Scan)
	if !lok || !rok || !ls.Table.Cached() || !rs.Table.Cached() {
		return nil, false, nil
	}
	lm, rm := ls.Table.Mem, rs.Table.Mem
	if lm.Partitioner == nil || rm.Partitioner == nil {
		return nil, false, nil
	}
	lp, lok2 := lm.Partitioner.(shuffle.HashPartitioner)
	rp, rok2 := rm.Partitioner.(shuffle.HashPartitioner)
	if !lok2 || !rok2 || lp.N != rp.N {
		return nil, false, nil
	}
	// Join keys must be exactly the distribution columns.
	if !keyIsDistCol(j.LeftKey, ls) || !keyIsDistCol(j.RightKey, rs) {
		return nil, false, nil
	}
	stats.JoinStrategies = append(stats.JoinStrategies, "copartitioned:map-join")
	stats.ScannedPartitions += lm.NumPartitions() + rm.NumPartitions()

	// Both sides scan every partition — pruning one would misalign the
	// zip — with their pushed-down filters applied by the scan itself.
	leftScan := e.memScanParts(&memScan{scan: ls}, nil, p)
	rightScan := e.memScanParts(&memScan{scan: rs}, nil, p)
	lKey, rKey := j.LeftKey.Eval, j.RightKey.Eval

	joined := leftScan.ZipPartitions(rightScan, func(part int, a, b rdd.Iter) rdd.Iter {
		t := newJoinTable(0, true)
		for v, ok := a.Next(); ok; v, ok = a.Next() {
			r := v.(row.Row)
			t.add(lKey(r), r)
		}
		var out []any
		for v, ok := b.Next(); ok; v, ok = b.Next() {
			r := v.(row.Row)
			out = t.probe(out, rKey(r), r)
		}
		return rdd.SliceIter(out)
	})
	return joined, true, nil
}

// keyIsDistCol reports whether key is a bare column reference to the
// scan's DISTRIBUTE BY column (in scan-projected coordinates).
func keyIsDistCol(key expr.Expr, s *plan.Scan) bool {
	col, ok := key.(*expr.Col)
	if !ok {
		return false
	}
	dist := s.Table.Mem.DistKeyCol
	if dist < 0 || col.Idx >= len(s.NeededCols) {
		return false
	}
	return s.NeededCols[col.Idx] == dist
}
