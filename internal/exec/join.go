package exec

import (
	"context"
	"math"

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
		if small.dep != nil {
			return e.broadcastJoinFromShuffle(gctx, small.dep, big.rdd, big.key, small == l, ns)
		}
		return e.broadcastJoin(gctx, small.rdd, big.rdd, small.key, big.key, small == l, ns)
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
func (e *Engine) preShuffle(gctx context.Context, r *rdd.RDD, keyFn expr.EvalFn, ns *NodeStats) (*rdd.ShuffleDep, *pde.StageStats, error) {
	pairs := r.Map(func(v any) any {
		rr := v.(row.Row)
		return shuffle.Pair{K: normalizeGroupKey(keyFn(rr)), V: rr}
	})
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
// bucket's join result. Within each whole bucket the hash table is
// built over whichever input is locally smaller (run-time choice,
// §3.1.1).
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
	// The probe side of bucket b (the side a split slices): the one
	// with more records; the build side is replicated to every slice.
	probeIsLeft := func(b int) bool { return lRecs[b] > rRecs[b] }

	if e.opts.DisableAdaptiveExec {
		// Static reduce side: one whole-bucket task per fine bucket.
		tasks := make([][]joinSlice, n)
		for i := range tasks {
			tasks[i] = []joinSlice{{bucket: i}}
		}
		stats.ReducerCounts = append(stats.ReducerCounts, n)
		ns.Notef("reducers=%d (static)", n)
		return joinSource(e.Ctx, lDep, rDep, tasks, lRecs, rRecs)
	}

	// Adaptive reduce side: coalesce cold buckets, split hot ones.
	plan := pde.PlanReduce(combined, func(b int) []int64 {
		probe := rDep
		if probeIsLeft(b) {
			probe = lDep
		}
		return e.Ctx.Tracker().PerMapBucketBytes(probe.ID, b)
	}, pde.SkewConfig{
		TargetBytes: e.opts.TargetPerReducerBytes,
		MinTasks:    e.Ctx.Cluster.TotalSlots(),
		MaxTasks:    n,
		SkewFactor:  e.opts.SkewFactor,
		MaxSplit:    e.Ctx.Cluster.TotalSlots(),
	})
	tasks := make([][]joinSlice, len(plan.Tasks))
	for i, task := range plan.Tasks {
		tasks[i] = make([]joinSlice, len(task))
		for j, s := range task {
			tasks[i][j] = joinSlice{bucket: s.Bucket, probeMaps: s.Maps, probeLeft: probeIsLeft(s.Bucket)}
		}
	}
	e.noteAdaptiveCoalesce(gctx)
	e.noteSkewSplits(gctx, len(plan.SplitBuckets))
	stats.ReducerCounts = append(stats.ReducerCounts, len(tasks))
	ns.Notef("reducers=%d (adaptive, %d skew splits, %d shuffle bytes)",
		len(tasks), len(plan.SplitBuckets), total)
	return joinSource(e.Ctx, lDep, rDep, tasks, lRecs, rRecs)
}

// joinSlice is one reduce task's view of one fine bucket: the whole
// bucket, or — for a skew-split hot bucket — the bucket's full build
// side plus the probe-side contributions of a subset of map partitions.
type joinSlice struct {
	bucket    int
	probeMaps []int // nil = whole bucket
	probeLeft bool  // the sliced probe side is the LEFT dep (when probeMaps != nil)
}

// joinSource builds the reduce-side RDD of a shuffle join. The two
// shuffle dependencies are declared on the RDD even though compute
// fetches their buckets directly: lineage walks must see that a live
// join RDD still needs them (shuffle cleanup, recovery). Each slice
// boundary polls the task's context so a cancelled query aborts the
// join mid-partition.
func joinSource(ctx *rdd.Context, lDep, rDep *rdd.ShuffleDep, tasks [][]joinSlice, lRecs, rRecs []int64) *rdd.RDD {
	deps := []rdd.Dependency{lDep, rDep}
	return ctx.SourceWithDeps("shuffle-join", len(tasks), deps, func(tc *rdd.TaskContext, part int) rdd.Iter {
		var out []any
		for _, s := range tasks[part] {
			tc.FailIfCancelled()
			b := s.bucket
			if s.probeMaps != nil {
				// Skew split: replicate the whole build side, fetch only
				// this task's share of the probe side. joinBucket's
				// swapped flag is true when the build rows came from the
				// RIGHT dep — i.e. when the probe side is the left.
				if s.probeLeft {
					build := fetchBucket(tc, rDep, b)
					probe := fetchBucketMaps(tc, lDep, b, s.probeMaps)
					out = joinBucket(out, build, probe, true)
				} else {
					build := fetchBucket(tc, lDep, b)
					probe := fetchBucketMaps(tc, rDep, b, s.probeMaps)
					out = joinBucket(out, build, probe, false)
				}
				continue
			}
			lPairs := fetchBucket(tc, lDep, b)
			rPairs := fetchBucket(tc, rDep, b)
			// Run-time local algorithm choice: build on the smaller
			// side of this bucket.
			if lRecs[b] <= rRecs[b] {
				out = joinBucket(out, lPairs, rPairs, false)
			} else {
				out = joinBucket(out, rPairs, lPairs, true)
			}
		}
		return rdd.SliceIter(out)
	}, nil)
}

func fetchBucket(tc *rdd.TaskContext, dep *rdd.ShuffleDep, bucket int) []shuffle.Pair {
	locs := tc.Ctx.MapOutputLocations(dep)
	pairs, err := tc.Ctx.Shuffle.Fetch(dep.ID, bucket, locs)
	if err != nil {
		rdd.Fail(err)
	}
	obs.FromContext(tc.Gctx).AddFetch(int64(len(pairs)))
	return pairs
}

// fetchBucketMaps fetches only the listed map partitions' share of a
// bucket — the split-slice read.
func fetchBucketMaps(tc *rdd.TaskContext, dep *rdd.ShuffleDep, bucket int, maps []int) []shuffle.Pair {
	locs := tc.Ctx.Tracker().Locations(dep.ID)
	pairs, err := tc.Ctx.Shuffle.FetchPartial(dep.ID, bucket, locs, maps)
	if err != nil {
		rdd.Fail(err)
	}
	obs.FromContext(tc.Gctx).AddFetch(int64(len(pairs)))
	return pairs
}

// joinBucket hash-joins build×probe. swapped means build came from the
// right side, so output column order must flip back to left++right.
func joinBucket(out []any, build, probe []shuffle.Pair, swapped bool) []any {
	ht := make(map[any][]row.Row, len(build))
	for _, p := range build {
		ht[p.K] = append(ht[p.K], p.V.(row.Row))
	}
	for _, p := range probe {
		if p.K == nil {
			continue
		}
		for _, b := range ht[p.K] {
			pr := p.V.(row.Row)
			if swapped {
				out = append(out, concatRows(pr, b))
			} else {
				out = append(out, concatRows(b, pr))
			}
		}
	}
	return out
}

func concatRows(a, b row.Row) row.Row {
	out := make(row.Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// broadcastJoin collects the small side (an ordinary job), builds a
// hash table, and probes it from map tasks over the big side — no
// shuffle of the big side.
func (e *Engine) broadcastJoin(gctx context.Context, small, big *rdd.RDD, smallKey, bigKey expr.EvalFn, smallIsLeft bool, ns *NodeStats) (*rdd.RDD, error) {
	endSeg := ns.beginSegment(gctx)
	rows, err := small.CollectCtx(gctx)
	if err != nil {
		return nil, err
	}
	endSeg()
	ht := make(map[any][]row.Row, len(rows))
	for _, v := range rows {
		r := v.(row.Row)
		k := normalizeGroupKey(smallKey(r))
		ht[k] = append(ht[k], r)
	}
	return e.probeBroadcast(ht, big, bigKey, smallIsLeft), nil
}

// broadcastJoinFromShuffle is broadcastJoin where the small side was
// already materialized as shuffle map output: its rows are fetched
// from the buckets instead of recomputed.
func (e *Engine) broadcastJoinFromShuffle(gctx context.Context, smallDep *rdd.ShuffleDep, big *rdd.RDD, bigKey expr.EvalFn, smallIsLeft bool, ns *NodeStats) (*rdd.RDD, error) {
	locs := e.Ctx.Tracker().Locations(smallDep.ID)
	ht := make(map[any][]row.Row)
	endSeg := ns.beginSegment(gctx)
	tr := obs.FromContext(gctx)
	for b := 0; b < smallDep.Partitioner.NumPartitions(); b++ {
		pairs, err := e.Ctx.Shuffle.Fetch(smallDep.ID, b, locs)
		if err != nil {
			return nil, err
		}
		tr.AddFetch(int64(len(pairs)))
		for _, p := range pairs {
			ht[p.K] = append(ht[p.K], p.V.(row.Row))
		}
	}
	endSeg()
	return e.probeBroadcast(ht, big, bigKey, smallIsLeft), nil
}

func (e *Engine) probeBroadcast(ht map[any][]row.Row, big *rdd.RDD, bigKey expr.EvalFn, buildIsLeft bool) *rdd.RDD {
	bc := e.Ctx.NewBroadcast(ht)
	return big.FlatMap(func(v any) []any {
		r := v.(row.Row)
		k := normalizeGroupKey(bigKey(r))
		table := bc.Value.(map[any][]row.Row)
		matches := table[k]
		if len(matches) == 0 {
			return nil
		}
		out := make([]any, 0, len(matches))
		for _, m := range matches {
			if buildIsLeft {
				out = append(out, concatRows(m, r))
			} else {
				out = append(out, concatRows(r, m))
			}
		}
		return out
	})
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
	leftScan := e.compileMemScan(&memScan{scan: ls}, nil, p)
	rightScan := e.compileMemScan(&memScan{scan: rs}, nil, p)
	lKey, rKey := j.LeftKey.Eval, j.RightKey.Eval

	joined := leftScan.ZipPartitions(rightScan, func(part int, a, b rdd.Iter) rdd.Iter {
		ht := make(map[any][]row.Row)
		for {
			v, ok := a.Next()
			if !ok {
				break
			}
			r := v.(row.Row)
			k := normalizeGroupKey(lKey(r))
			ht[k] = append(ht[k], r)
		}
		var out []any
		for {
			v, ok := b.Next()
			if !ok {
				break
			}
			r := v.(row.Row)
			k := normalizeGroupKey(rKey(r))
			for _, m := range ht[k] {
				out = append(out, concatRows(m, r))
			}
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
