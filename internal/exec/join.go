package exec

import (
	"context"
	"math"
	"slices"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/obs"
	"shark/internal/pde"
	"shark/internal/plan"
	"shark/internal/rdd"
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
	l := &joinSide{name: "left", rdd: left, key: j.LeftKey, width: len(j.Left.Schema()), est: estimateSide(j.Left)}
	r := &joinSide{name: "right", rdd: right, key: j.RightKey, width: len(j.Right.Schema()), est: estimateSide(j.Right)}
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
				if s.dep, s.stats, err = e.preShuffle(gctx, s, ns); err != nil {
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

// joinSide is one input of a join being planned: its batches, its key
// and width, its static size estimate, and — once pre-shuffled — its
// map output and the statistics PDE observed on it.
type joinSide struct {
	name  string
	rdd   *rdd.RDD
	key   expr.Expr
	width int
	est   int64
	dep   *rdd.ShuffleDep
	stats *pde.StageStats
}

// keyOf returns one task's evaluator of s's key over a batch's
// selection, through the kernels.
func (e *Engine) keyOf(tc *rdd.TaskContext, s *joinSide) func(*columnar.Batch) columnar.Vec {
	t := e.newScanTask(tc, upTo[int](s.width))
	var fn valFn
	return func(b *columnar.Batch) columnar.Vec {
		tc.FailIfCancelled()
		if t.load(b) {
			fn = t.bindValue(s.key)
		}
		return fn(b.Sel)
	}
}

// sideBlock gathers the rows of s's batches in one task, but those
// whose key is NULL, into one block.
func (e *Engine) sideBlock(tc *rdd.TaskContext, s *joinSide, in rdd.Iter) *block {
	key, blk := e.keyOf(tc, s), &block{}
	for v, ok := in.Next(); ok; v, ok = in.Next() {
		b := v.(*columnar.Batch)
		k := key(b)
		if pos := keepIf(slices.Clone(b.Sel), func(i int) bool { return !k.Null(int32(i)) }); len(pos) > 0 {
			blk.add(&k, vecsOf(b), pos)
		}
	}
	return blk
}

// probeSide probes t with s's batches in one task, yielding the joined
// batches of one input batch at a time.
func (e *Engine) probeSide(tc *rdd.TaskContext, t *joinTable, s *joinSide, in rdd.Iter) rdd.Iter {
	key := e.keyOf(tc, s)
	var pending []any
	return rdd.FuncIter(func() (any, bool) {
		for len(pending) == 0 {
			v, ok := in.Next()
			if !ok {
				return nil, false
			}
			b := v.(*columnar.Batch)
			k := key(b)
			pending = t.probe(pending[:0], &k, b.Sel, func() []columnar.Vec { return vecsOf(b) })
		}
		v := pending[0]
		pending = pending[1:]
		return v, true
	})
}

// vecsOf returns b's columns as vectors over its window.
func vecsOf(b *columnar.Batch) []columnar.Vec {
	vecs := make([]columnar.Vec, b.Width())
	for c := range vecs {
		vecs[c] = b.Vec(c)
	}
	return vecs
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

// preShuffle materializes the map side of a join input's shuffle and
// returns the dependency plus observed statistics (the PDE primitive).
// A map task cuts its rows into one block per non-empty bucket, a row
// going to the bucket shuffle.HashPartitioner would send its key to. A
// row whose key is NULL matches nothing and is not shuffled.
func (e *Engine) preShuffle(gctx context.Context, s *joinSide, ns *NodeStats) (*rdd.ShuffleDep, *pde.StageStats, error) {
	n := e.fineBuckets()
	blocks := s.rdd.MapPartitions(func(tc *rdd.TaskContext, _ int, in rdd.Iter) rdd.Iter {
		blk := e.sideBlock(tc, s, in)
		bucket := make([]int32, blk.n)
		for i := range bucket {
			bucket[i] = int32(hashAt(&blk.cols[0], int32(i)) % uint64(n))
		}
		return rdd.SliceIter(blk.cut(bucket, n))
	})
	dep := e.Ctx.NewShuffleDep(blocks, blockBuckets(n), nil)
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
			t := newJoinTable(blocksOf(fetchBucket(tc, build, s.Bucket, nil)), left)
			for _, p := range fetchBucket(tc, probe, s.Bucket, s.Maps) {
				b := p.V.(*block)
				out = t.probe(out, &b.cols[0], upTo[int32](b.n), func() []columnar.Vec { return b.cols[1:] })
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
// join's left partition: its rows, as a block (the key's vector, then
// the columns'), and an index from key to the rows holding it. The
// index is a group table without aggregates (vecagg.go): an int64 or
// string key is found through an index over the key column itself, any
// other through a map. A row whose key is NULL matches nothing, so no
// block holds one.
type joinTable struct {
	build     *block
	buildLeft bool // the rows are the join's left input
	groups    *groupTable
	first     []int32 // the first row of group k, + 1 (0: none)
	next      []int32 // the row after row r in its group, + 1
}

// newJoinTable builds the table over the rows of blocks, all from one
// input.
func newJoinTable(blocks []*block, buildLeft bool) *joinTable {
	build := &block{}
	if len(blocks) == 1 {
		build = blocks[0] // only read: a fetched block may be another task's too
	} else {
		for _, b := range blocks {
			if b.n > 0 {
				build.add(&b.cols[0], b.cols[1:], upTo[int32](b.n))
			}
		}
	}
	t := &joinTable{build: build, buildLeft: buildLeft, groups: &groupTable{null: -1, borrow: true}}
	if build.n == 0 {
		return t
	}
	key := build.cols[0]
	t.groups.cols = []columnar.Vec{{Kind: key.Kind, Mask: -1}}
	ids := make([]int32, build.n)
	t.groups.resolve([]columnar.Vec{key}, upTo[int32](build.n), ids)
	// Linked backwards, so that a group lists its rows in build order.
	t.first, t.next = make([]int32, t.groups.n), make([]int32, build.n)
	for r := build.n - 1; r >= 0; r-- {
		t.next[r], t.first[ids[r]] = t.first[ids[r]], int32(r)+1
	}
	return t
}

// blocksOf returns the blocks a bucket's fetched pairs hold.
func blocksOf(pairs []shuffle.Pair) []*block {
	out := make([]*block, len(pairs))
	for i, p := range pairs {
		out[i] = p.V.(*block)
	}
	return out
}

// upTo returns 0, 1, …, n-1: every position of n, or every column.
func upTo[T int | int32](n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(i)
	}
	return out
}

// probe joins the rows at positions sel of a probe input — key is its
// key's vector, cols returns its columns' — with the build rows under
// their keys, and appends the matches to out as batches of left ++
// right columns, whichever side built. It reads cols only once a row
// matches.
func (t *joinTable) probe(out []any, key *columnar.Vec, sel []int32, cols func() []columnar.Vec) []any {
	var probed, built []int32 // a match's probe position and build row
	var pcols []columnar.Vec
	flush := func() {
		if pcols == nil {
			pcols = cols()
		}
		vecs := make([]columnar.Vec, 0, len(pcols)+len(t.build.cols)-1)
		gatherAll := func(cols []columnar.Vec, at []int32) {
			for c := range cols {
				vecs = append(vecs, cols[c].Gather(at, false))
			}
		}
		if t.buildLeft {
			gatherAll(t.build.cols[1:], built)
			gatherAll(pcols, probed)
		} else {
			gatherAll(pcols, probed)
			gatherAll(t.build.cols[1:], built)
		}
		b := columnar.VecBatch(len(probed), vecs)
		b.Next()
		out = append(out, b)
		probed, built = probed[:0], built[:0]
	}
	for _, i := range sel {
		k := t.groups.find(key, i)
		if k < 0 {
			continue
		}
		for r := t.first[k]; r > 0; r = t.next[r-1] {
			probed, built = append(probed, i), append(built, r-1)
			if len(probed) == columnar.BatchSize {
				flush()
			}
		}
	}
	if len(probed) > 0 {
		flush()
	}
	return out
}

// broadcastJoin builds the hash table over the small side and probes
// it from map tasks over the big side — no shuffle of the big side.
// The small side's blocks are fetched from its buckets when PDE already
// materialized it as shuffle map output, and cut by an ordinary job,
// one block a task, otherwise.
func (e *Engine) broadcastJoin(gctx context.Context, small, big *joinSide, smallIsLeft bool, ns *NodeStats) (*rdd.RDD, error) {
	endSeg := ns.beginSegment(gctx)
	var blocks []*block
	if small.dep == nil {
		res, err := e.Ctx.Scheduler().RunJobCtx(gctx, small.rdd, nil, func(tc *rdd.TaskContext, _ int, it rdd.Iter) (any, error) {
			return e.sideBlock(tc, small, it), nil
		})
		if err != nil {
			return nil, err
		}
		for _, v := range res {
			blocks = append(blocks, v.(*block))
		}
	} else {
		locs := e.Ctx.Tracker().Locations(small.dep.ID)
		tr := obs.FromContext(gctx)
		for b := 0; b < small.dep.Partitioner.NumPartitions(); b++ {
			pairs, err := e.Ctx.Shuffle.Fetch(small.dep.ID, b, locs)
			if err != nil {
				return nil, err
			}
			tr.AddFetch(int64(len(pairs)))
			blocks = append(blocks, blocksOf(pairs)...)
		}
	}
	bc := e.Ctx.NewBroadcast(newJoinTable(blocks, smallIsLeft))
	endSeg()
	return big.rdd.MapPartitions(func(tc *rdd.TaskContext, _ int, in rdd.Iter) rdd.Iter {
		return e.probeSide(tc, bc.Value.(*joinTable), big, in)
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
	left := &joinSide{rdd: e.memScanParts(&chain{scan: ls}, nil, p), key: j.LeftKey, width: len(ls.Schema())}
	right := &joinSide{rdd: e.memScanParts(&chain{scan: rs}, nil, p), key: j.RightKey, width: len(rs.Schema())}
	joined := left.rdd.ZipPartitions(right.rdd, func(_ int, a, b rdd.Iter) rdd.Iter {
		t := newJoinTable([]*block{e.sideBlock(nil, left, a)}, true)
		return e.probeSide(nil, t, right, b)
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
