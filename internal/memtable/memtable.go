// Package memtable implements Shark's memstore: tables cached in
// memory as columnar partitions distributed across workers (§3.2–3.5).
//
// A cached table is an RDD whose elements are *columnar.Partition
// values — one partition object per RDD partition, mirroring Shark's
// trick of "representing a block of tuples as a single Spark record"
// (§7.1). Partition statistics collected during the load are kept at
// the master and drive map pruning; DISTRIBUTE BY loads record a
// partitioner enabling shuffle-free co-partitioned joins (§3.4).
package memtable

import (
	"context"
	"fmt"
	"slices"

	"shark/internal/columnar"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// The memtable package is the producer of columnar cache partitions,
// so it owns the decoder that lets them come back from a disk
// boundary (spill tier reads, disk-mode shuffles).
func init() {
	shuffle.RegisterDiskDecoder(columnar.PartitionTag, func(fields row.Row) any {
		p, err := columnar.UnmarshalPartition(fields)
		if err != nil {
			panic(err)
		}
		return p
	})
}

// Table is a cached, columnar, distributed table.
type Table struct {
	Name   string
	Schema row.Schema
	// RDD holds one *columnar.Partition per partition and is cached.
	RDD *rdd.RDD
	// Stats[p][c] are the load-time statistics of column c in
	// partition p (kept on the master for pruning).
	Stats [][]columnar.ColumnStats
	// RowsPerPart and BytesPerPart describe partition sizes.
	RowsPerPart  []int64
	BytesPerPart []int64
	// DistKeyCol is the DISTRIBUTE BY column index, -1 when the table
	// is not key-partitioned. Partitioner is non-nil iff DistKeyCol>=0.
	DistKeyCol  int
	Partitioner shuffle.Partitioner
	// Level is the storage level the table's partitions persist at.
	Level rdd.StorageLevel
}

// NumPartitions returns the table's partition count.
func (t *Table) NumPartitions() int { return t.RDD.NumPartitions() }

// TotalRows returns the loaded row count.
func (t *Table) TotalRows() int64 {
	var n int64
	for _, r := range t.RowsPerPart {
		n += r
	}
	return n
}

// TotalBytes returns the in-memory footprint of the columnar data.
func (t *Table) TotalBytes() int64 {
	var n int64
	for _, b := range t.BytesPerPart {
		n += b
	}
	return n
}

// Drop evicts all cached partitions.
func (t *Table) Drop() { t.RDD.Uncache() }

// loadResult is what each load task reports back to the master.
type loadResult struct {
	stats []columnar.ColumnStats
	rows  int64
	bytes int64
}

// columnarize converts a row RDD into a columnar-partition RDD.
func columnarize(src *rdd.RDD, schema row.Schema) *rdd.RDD {
	return src.MapPartitions(func(_ *rdd.TaskContext, part int, in rdd.Iter) rdd.Iter {
		b := columnar.NewBuilder(schema)
		for {
			v, ok := in.Next()
			if !ok {
				break
			}
			if err := b.Append(v.(row.Row)); err != nil {
				rdd.Fail(err)
			}
		}
		return rdd.SliceIter([]any{b.Seal()})
	})
}

// LoadOptions tunes a memstore load.
type LoadOptions struct {
	// Level is the storage level the cached partitions persist at
	// (default MemoryOnly).
	Level rdd.StorageLevel
}

// Load materializes src (an RDD of row.Row) into a cached columnar
// table, choosing compression per column per partition and collecting
// pruning statistics. The load is itself a distributed job (§3.3).
func Load(name string, schema row.Schema, src *rdd.RDD) (*Table, error) {
	return LoadWith(context.Background(), name, schema, src, LoadOptions{})
}

// LoadWith is Load under a context and with explicit options (storage
// level): the load job runs under the attached scheduler job, and on
// failure (including cancellation) any partitions already cached are
// evicted so no orphaned blocks survive the aborted load.
func LoadWith(gctx context.Context, name string, schema row.Schema, src *rdd.RDD, opts LoadOptions) (*Table, error) {
	return LoadColumnar(gctx, name, schema, columnarize(src, schema), opts)
}

// LoadColumnar is LoadWith for a source whose partitions are already
// sealed, one *columnar.Partition of the schema per RDD partition — an
// external table's blocks, each parsed straight into columns — stored
// as they are.
func LoadColumnar(gctx context.Context, name string, schema row.Schema, parts *rdd.RDD, opts LoadOptions) (*Table, error) {
	t := &Table{Name: name, Schema: schema.Clone(), DistKeyCol: -1, Level: opts.Level}
	t.RDD = parts.Persist(opts.Level)
	if err := t.materialize(gctx); err != nil {
		t.RDD.Uncache()
		return nil, err
	}
	return t, nil
}

// LoadDistributed is Load preceded by a hash repartitioning on keyCol
// (the DISTRIBUTE BY clause), recording the partitioner so the planner
// can use co-partitioned joins.
func LoadDistributed(name string, schema row.Schema, src *rdd.RDD, keyCol, numParts int) (*Table, error) {
	return LoadDistributedWith(context.Background(), name, schema, src, keyCol, numParts, LoadOptions{})
}

// LoadDistributedWith is LoadDistributed under a context with explicit
// options, with the same cleanup-on-failure semantics as LoadWith.
func LoadDistributedWith(gctx context.Context, name string, schema row.Schema, src *rdd.RDD, keyCol, numParts int, opts LoadOptions) (*Table, error) {
	if keyCol < 0 || keyCol >= len(schema) {
		return nil, fmt.Errorf("memtable: bad DISTRIBUTE BY column %d", keyCol)
	}
	part := shuffle.HashPartitioner{N: numParts}
	pairs := src.Map(func(v any) any {
		r := v.(row.Row)
		return shuffle.Pair{K: r[keyCol], V: r}
	})
	repart := pairs.PartitionBy(part).
		Map(func(v any) any { return v.(shuffle.Pair).V.(row.Row) }).
		KeepPartitioner(part)
	t := &Table{Name: name, Schema: schema.Clone(), DistKeyCol: keyCol, Partitioner: part, Level: opts.Level}
	t.RDD = columnarize(repart, schema).Persist(opts.Level)
	if err := t.materialize(gctx); err != nil {
		t.RDD.Uncache()
		return nil, err
	}
	return t, nil
}

// materialize runs the load job, pinning partitions in worker memory
// and pulling per-partition statistics back to the master.
func (t *Table) materialize(gctx context.Context) error {
	sched := t.RDD.Context().Scheduler()
	results, err := sched.RunJobCtx(gctx, t.RDD, nil, func(tc *rdd.TaskContext, part int, it rdd.Iter) (any, error) {
		v, ok := it.Next()
		if !ok {
			return loadResult{}, nil
		}
		p := v.(*columnar.Partition)
		return loadResult{stats: p.Stats, rows: int64(p.N), bytes: p.SizeBytes()}, nil
	})
	if err != nil {
		return err
	}
	n := len(results)
	t.Stats = make([][]columnar.ColumnStats, n)
	t.RowsPerPart = make([]int64, n)
	t.BytesPerPart = make([]int64, n)
	for i, r := range results {
		lr := r.(loadResult)
		t.Stats[i] = lr.stats
		t.RowsPerPart[i] = lr.rows
		t.BytesPerPart[i] = lr.bytes
	}
	return nil
}

// ColPredicate is the pruning form of a WHERE conjunct: bounds and/or
// a candidate equality set for one column.
type ColPredicate struct {
	Col    int
	Lo, Hi any   // inclusive bounds; nil = unbounded
	Eq     []any // when non-nil the column must possibly equal one of these
}

// Prune evaluates predicates against the master-side partition
// statistics and returns the indices of partitions that may contain
// matching rows (§3.5 map pruning).
func (t *Table) Prune(preds []ColPredicate) []int {
	var out []int
	for p, stats := range t.Stats {
		if MayMatch(stats, preds) {
			out = append(out, p)
		}
	}
	return out
}

// MayMatch reports whether rows with the statistics stats (one per
// column) may satisfy every predicate: map pruning's one test, of a
// partition's stats by the master and a window's by a scan task.
func MayMatch(stats []columnar.ColumnStats, preds []ColPredicate) bool {
	if stats == nil {
		return true
	}
	for _, pred := range preds {
		if pred.Col < 0 || pred.Col >= len(stats) {
			continue
		}
		s := &stats[pred.Col]
		if pred.Eq != nil && !slices.ContainsFunc(pred.Eq, s.MayEqual) {
			return false
		}
		if (pred.Lo != nil || pred.Hi != nil) && !s.MayContain(pred.Lo, pred.Hi) {
			return false
		}
	}
	return true
}

// Scan returns an RDD of row.Row over the listed partitions projecting
// the given columns (nil = all). Partition indices refer to the
// table's own numbering (use Prune to obtain them).
func (t *Table) Scan(parts []int, cols []int) *rdd.RDD {
	if cols == nil {
		cols = make([]int, len(t.Schema))
		for i := range cols {
			cols[i] = i
		}
	}
	colsCopy := append([]int(nil), cols...)
	return t.ScanPartitions(fmt.Sprintf("memscan(%s)", t.Name), parts,
		func(_ *rdd.TaskContext, p *columnar.Partition) rdd.Iter {
			b := columnar.NewBatch(p)
			return BatchRows(func() []row.Row {
				if !b.Next() {
					return nil
				}
				return b.Rows(colsCopy, b.All())
			})
		})
}

// ScanPartitions returns an RDD with one task per listed partition
// (nil = all) whose elements are whatever compute yields for the
// task's cached columnar partition. The task reads the partition as
// the single element of the table's cached RDD — from the block store,
// a remote holder, or lineage recompute — and prefers its holders.
// Every reader of a cached table goes through here.
func (t *Table) ScanPartitions(name string, parts []int, compute func(tc *rdd.TaskContext, p *columnar.Partition) rdd.Iter) *rdd.RDD {
	if parts == nil {
		parts = make([]int, t.NumPartitions())
		for i := range parts {
			parts[i] = i
		}
	}
	partsCopy := append([]int(nil), parts...)
	return t.RDD.Context().Source(name, len(partsCopy),
		func(tc *rdd.TaskContext, i int) rdd.Iter {
			v, ok := t.RDD.Iterator(tc, partsCopy[i]).Next()
			if !ok {
				return rdd.EmptyIter()
			}
			return compute(tc, v.(*columnar.Partition))
		},
		func(i int) []int { return t.RDD.PreferredLocations(partsCopy[i]) },
	)
}

// BatchRows adapts a pull of row batches to a row iterator: next
// returns the following batch's rows (possibly none) or nil at the
// end. Rows are materialized only as the consumer pulls, a batch at a
// time, so a LIMIT that stops early never decodes the rest of the
// partition.
func BatchRows(next func() []row.Row) rdd.Iter {
	var rows []row.Row
	return rdd.FuncIter(func() (any, bool) {
		for len(rows) == 0 {
			if rows = next(); rows == nil {
				return nil, false
			}
		}
		r := rows[0]
		rows = rows[1:]
		return r, true
	})
}

// ProjectedSchema returns the schema of a Scan with the given columns.
func (t *Table) ProjectedSchema(cols []int) row.Schema {
	if cols == nil {
		return t.Schema.Clone()
	}
	out := make(row.Schema, len(cols))
	for i, c := range cols {
		out[i] = t.Schema[c]
	}
	return out
}
