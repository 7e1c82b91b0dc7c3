package rdd

import (
	"context"
	"fmt"
	"sort"

	"shark/internal/shuffle"
)

// ---------------------------------------------------------------------------
// Sources

// Parallelize splits data into numParts partitions.
func (c *Context) Parallelize(data []any, numParts int) *RDD {
	if numParts < 1 {
		numParts = 1
	}
	chunks := make([][]any, numParts)
	for i := range chunks {
		lo := i * len(data) / numParts
		hi := (i + 1) * len(data) / numParts
		chunks[i] = data[lo:hi]
	}
	return &RDD{
		ID:       c.newRDDID(),
		Name:     "parallelize",
		ctx:      c,
		numParts: numParts,
		compute: func(tc *TaskContext, part int) Iter {
			return SliceIter(chunks[part])
		},
	}
}

// Source creates an RDD whose partitions are produced by gen — the
// generic adapter for DFS scans, memstore scans and data generators.
// prefLocs may be nil.
func (c *Context) Source(name string, numParts int, gen func(tc *TaskContext, part int) Iter, prefLocs func(part int) []int) *RDD {
	return c.SourceWithDeps(name, numParts, nil, gen, prefLocs)
}

// SourceWithDeps is Source for reduce-side readers whose compute
// fetches shuffle buckets directly instead of pulling a parent
// iterator (the shuffle join). Declaring the dependencies keeps
// lineage walks honest: the scheduler re-materializes the shuffles
// before running the stage, and LineageShuffleIDs sees that a live RDD
// still needs them (so a statement's shuffle cleanup keeps them
// registered).
func (c *Context) SourceWithDeps(name string, numParts int, deps []Dependency, gen func(tc *TaskContext, part int) Iter, prefLocs func(part int) []int) *RDD {
	return &RDD{
		ID:       c.newRDDID(),
		Name:     name,
		ctx:      c,
		numParts: numParts,
		deps:     deps,
		compute:  gen,
		prefLocs: prefLocs,
	}
}

// ---------------------------------------------------------------------------
// Narrow transformations

func (r *RDD) derive(name string, compute func(tc *TaskContext, part int) Iter) *RDD {
	return &RDD{
		ID:       r.ctx.newRDDID(),
		Name:     name,
		ctx:      r.ctx,
		numParts: r.numParts,
		deps:     []Dependency{OneToOne{Parent: r}},
		compute:  compute,
	}
}

// Map applies f to every element.
func (r *RDD) Map(f func(any) any) *RDD {
	return r.derive("map", func(tc *TaskContext, part int) Iter {
		return mapIter(r.Iterator(tc, part), f)
	})
}

// Filter keeps elements where pred holds.
func (r *RDD) Filter(pred func(any) bool) *RDD {
	return r.derive("filter", func(tc *TaskContext, part int) Iter {
		return filterIter(r.Iterator(tc, part), pred)
	})
}

// FlatMap expands each element into zero or more elements.
func (r *RDD) FlatMap(f func(any) []any) *RDD {
	return r.derive("flatMap", func(tc *TaskContext, part int) Iter {
		return flatMapIter(r.Iterator(tc, part), f)
	})
}

// MapPartitions transforms a whole partition's iterator; f receives
// the partition index.
func (r *RDD) MapPartitions(f func(part int, in Iter) Iter) *RDD {
	return r.derive("mapPartitions", func(tc *TaskContext, part int) Iter {
		return f(part, r.Iterator(tc, part))
	})
}

// KeepPartitioner marks a derived RDD as preserving its parent's key
// partitioning (caller asserts keys were not changed).
func (r *RDD) KeepPartitioner(p shuffle.Partitioner) *RDD {
	r.partitioner = p
	return r
}

// Union concatenates two RDDs.
func (r *RDD) Union(o *RDD) *RDD {
	return &RDD{
		ID:       r.ctx.newRDDID(),
		Name:     "union",
		ctx:      r.ctx,
		numParts: r.numParts + o.numParts,
		deps: []Dependency{
			RangeDep{Parent: r, OutStart: 0, Len: r.numParts},
			RangeDep{Parent: o, OutStart: r.numParts, Len: o.numParts},
		},
		compute: func(tc *TaskContext, part int) Iter {
			if part < r.numParts {
				return r.Iterator(tc, part)
			}
			return o.Iterator(tc, part-r.numParts)
		},
	}
}

// ZipPartitions pairs the i-th partitions of r and o (which must have
// equal partition counts) through f — the primitive behind
// co-partitioned map joins (§3.4).
func (r *RDD) ZipPartitions(o *RDD, f func(part int, a, b Iter) Iter) *RDD {
	if r.numParts != o.numParts {
		panic(fmt.Sprintf("rdd: ZipPartitions requires equal partition counts (%d vs %d)", r.numParts, o.numParts))
	}
	return &RDD{
		ID:       r.ctx.newRDDID(),
		Name:     "zipPartitions",
		ctx:      r.ctx,
		numParts: r.numParts,
		deps:     []Dependency{OneToOne{Parent: r}, OneToOne{Parent: o}},
		compute: func(tc *TaskContext, part int) Iter {
			return f(part, r.Iterator(tc, part), o.Iterator(tc, part))
		},
	}
}

// ---------------------------------------------------------------------------
// Shuffle reads

// ReadKind controls how a shuffle's buckets are consumed.
type ReadKind int

const (
	// ReadRaw yields fetched pairs unmerged.
	ReadRaw ReadKind = iota
	// ReadCombine merges values of equal keys with the dep's
	// Combiner, yielding one pair per key.
	ReadCombine
	// ReadGroup yields (key, []any) pairs.
	ReadGroup
)

// Shuffled creates the reduce-side RDD over a shuffle dependency.
// groups assigns fine buckets to reduce partitions (nil = identity:
// one partition per bucket). kind selects merge behaviour.
func (c *Context) Shuffled(dep *ShuffleDep, groups [][]int, kind ReadKind) *RDD {
	if groups == nil {
		n := dep.Partitioner.NumPartitions()
		groups = make([][]int, n)
		for i := range groups {
			groups[i] = []int{i}
		}
	}
	var keyPart shuffle.Partitioner
	if len(groups) == dep.Partitioner.NumPartitions() {
		identity := true
		for i, g := range groups {
			if len(g) != 1 || g[0] != i {
				identity = false
				break
			}
		}
		if identity {
			keyPart = dep.Partitioner
		}
	}
	return &RDD{
		ID:          c.newRDDID(),
		Name:        fmt.Sprintf("shuffled(%d)", dep.ID),
		ctx:         c,
		numParts:    len(groups),
		deps:        []Dependency{dep},
		partitioner: keyPart,
		// Reduce tasks fetch cheapest where the map-output bytes for
		// their buckets already sit; the PDE per-bucket size reports
		// rank the holders (evaluated at schedule time, after the map
		// stage has materialized).
		prefLocs: func(part int) []int {
			return c.tracker.PreferredReduceWorkers(dep.ID, groups[part], 2)
		},
		compute: func(tc *TaskContext, part int) Iter {
			return c.readShuffle(tc, dep, groups[part], kind)
		},
	}
}

// MapOutputLocations snapshots which worker holds each of dep's map
// outputs, for a task about to read its buckets. Fetch reads exactly
// the map partitions the snapshot lists, so one taken while a
// concurrent fetch-failure recovery has outputs marked lost would
// silently drop their rows; an incomplete snapshot fails the task with
// a FetchError instead, and the scheduler regenerates what is missing
// and retries it.
func (c *Context) MapOutputLocations(dep *ShuffleDep) map[int]int {
	locations := c.tracker.Locations(dep.ID)
	if n := dep.Parent.NumPartitions(); len(locations) < n {
		var missing []int
		for p := 0; p < n; p++ {
			if _, ok := locations[p]; !ok {
				missing = append(missing, p)
			}
		}
		Fail(&shuffle.FetchError{ShuffleID: dep.ID, MapParts: missing})
	}
	return locations
}

func (c *Context) readShuffle(tc *TaskContext, dep *ShuffleDep, buckets []int, kind ReadKind) Iter {
	locations := c.MapOutputLocations(dep)
	// Polled between buckets and every CancelCheckRows merged pairs, so
	// a cancelled job stops paying for a large reduce input
	// mid-partition instead of merging it to completion.
	checkCancel := tc.FailIfCancelled
	fetch := func(bucket int) []shuffle.Pair {
		pairs, err := c.Shuffle.Fetch(dep.ID, bucket, locations)
		if err != nil {
			Fail(err)
		}
		return pairs
	}
	switch kind {
	case ReadCombine:
		merged := make(map[any]any)
		for _, b := range buckets {
			checkCancel()
			for i, p := range fetch(b) {
				if i%CancelCheckRows == CancelCheckRows-1 {
					checkCancel()
				}
				if prev, ok := merged[p.K]; ok {
					merged[p.K] = dep.Combiner(prev, p.V)
				} else {
					merged[p.K] = p.V
				}
			}
		}
		out := make([]any, 0, len(merged))
		for k, v := range merged {
			out = append(out, shuffle.Pair{K: k, V: v})
		}
		return SliceIter(out)
	case ReadGroup:
		grouped := make(map[any][]any)
		for _, b := range buckets {
			checkCancel()
			for i, p := range fetch(b) {
				if i%CancelCheckRows == CancelCheckRows-1 {
					checkCancel()
				}
				grouped[p.K] = append(grouped[p.K], p.V)
			}
		}
		out := make([]any, 0, len(grouped))
		for k, vs := range grouped {
			out = append(out, shuffle.Pair{K: k, V: vs})
		}
		return SliceIter(out)
	default:
		var out []any
		for _, b := range buckets {
			checkCancel()
			for _, p := range fetch(b) {
				out = append(out, p)
			}
		}
		return SliceIter(out)
	}
}

// ReduceByKey merges values of equal keys with combine (map-side and
// reduce-side), producing numParts partitions. Elements must be
// shuffle.Pair with Go-comparable keys.
func (r *RDD) ReduceByKey(combine func(a, b any) any, numParts int) *RDD {
	dep := r.ctx.NewShuffleDep(r, shuffle.HashPartitioner{N: numParts}, combine)
	return r.ctx.Shuffled(dep, nil, ReadCombine)
}

// GroupByKey gathers values per key into []any.
func (r *RDD) GroupByKey(numParts int) *RDD {
	dep := r.ctx.NewShuffleDep(r, shuffle.HashPartitioner{N: numParts}, nil)
	return r.ctx.Shuffled(dep, nil, ReadGroup)
}

// PartitionBy redistributes pairs by partitioner without merging.
func (r *RDD) PartitionBy(p shuffle.Partitioner) *RDD {
	dep := r.ctx.NewShuffleDep(r, p, nil)
	return r.ctx.Shuffled(dep, nil, ReadRaw)
}

// ---------------------------------------------------------------------------
// Actions

// Collect gathers every element, in partition order.
func (r *RDD) Collect() ([]any, error) {
	return r.CollectCtx(context.Background())
}

// CollectCtx is Collect under a context: the attached job owns the
// tasks and cancellation aborts the collection.
func (r *RDD) CollectCtx(gctx context.Context) ([]any, error) {
	res, err := r.ctx.sched.RunJobCtx(gctx, r, nil, func(tc *TaskContext, part int, it Iter) (any, error) {
		return Drain(it), nil
	})
	if err != nil {
		return nil, err
	}
	var out []any
	for _, chunk := range res {
		out = append(out, chunk.([]any)...)
	}
	return out, nil
}

// CollectPartitionsCtx gathers the listed partitions only.
func (r *RDD) CollectPartitionsCtx(gctx context.Context, parts []int) ([][]any, error) {
	res, err := r.ctx.sched.RunJobCtx(gctx, r, parts, func(tc *TaskContext, part int, it Iter) (any, error) {
		return Drain(it), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]any, len(res))
	for i, chunk := range res {
		out[i] = chunk.([]any)
	}
	return out, nil
}

// Count returns the number of elements.
func (r *RDD) Count() (int64, error) {
	return r.CountCtx(context.Background())
}

// CountCtx is Count under a context.
func (r *RDD) CountCtx(gctx context.Context) (int64, error) {
	res, err := r.ctx.sched.RunJobCtx(gctx, r, nil, func(tc *TaskContext, part int, it Iter) (any, error) {
		var n int64
		for {
			if _, ok := it.Next(); !ok {
				return n, nil
			}
			n++
		}
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, v := range res {
		total += v.(int64)
	}
	return total, nil
}

// Reduce folds all elements with f (which must be associative and
// commutative). Returns an error when the RDD is empty.
func (r *RDD) Reduce(f func(a, b any) any) (any, error) {
	return r.ReduceCtx(context.Background(), f)
}

// ReduceCtx is Reduce under a context: cancellation aborts the fold's
// job.
func (r *RDD) ReduceCtx(gctx context.Context, f func(a, b any) any) (any, error) {
	res, err := r.ctx.sched.RunJobCtx(gctx, r, nil, func(tc *TaskContext, part int, it Iter) (any, error) {
		var acc any
		has := false
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if !has {
				acc, has = v, true
			} else {
				acc = f(acc, v)
			}
		}
		if !has {
			return nil, nil
		}
		return []any{acc}, nil
	})
	if err != nil {
		return nil, err
	}
	var acc any
	has := false
	for _, v := range res {
		if v == nil {
			continue
		}
		chunk := v.([]any)[0]
		if !has {
			acc, has = chunk, true
		} else {
			acc = f(acc, chunk)
		}
	}
	if !has {
		return nil, fmt.Errorf("rdd: reduce of empty RDD")
	}
	return acc, nil
}

// Take returns up to n elements, reading partitions left to right.
func (r *RDD) Take(n int) ([]any, error) {
	return r.TakeCtx(context.Background(), n)
}

// TakeCtx is Take under a context.
func (r *RDD) TakeCtx(gctx context.Context, n int) ([]any, error) {
	var out []any
	for part := 0; part < r.numParts && len(out) < n; part++ {
		chunk, err := r.CollectPartitionsCtx(gctx, []int{part})
		if err != nil {
			return nil, err
		}
		for _, v := range chunk[0] {
			if len(out) >= n {
				break
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// SortedCollect collects all elements and sorts them with less — used
// for deterministic assertions in tests.
func (r *RDD) SortedCollect(less func(a, b any) bool) ([]any, error) {
	return r.SortedCollectCtx(context.Background(), less)
}

// SortedCollectCtx is SortedCollect under a context.
func (r *RDD) SortedCollectCtx(gctx context.Context, less func(a, b any) bool) ([]any, error) {
	out, err := r.CollectCtx(gctx)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out, nil
}
