package harness

import (
	"context"
	"fmt"

	"shark/internal/memtable"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// sweepSchema is the synthetic table the capacity sweeps cache.
var sweepSchema = row.Schema{
	{Name: "id", Type: row.TInt},
	{Name: "grp", Type: row.TString},
	{Name: "ts", Type: row.TInt},
	{Name: "val", Type: row.TFloat},
}

// sweepRows generates deterministic rows whose ts column is clustered
// by partition, so Prune has real work at every sweep point.
func sweepRows(n int) []any {
	groups := []string{"alpha", "beta", "gamma", "delta"}
	out := make([]any, n)
	for i := range out {
		out[i] = row.Row{int64(i), groups[(i/100)%len(groups)], int64(i), float64(i) * 0.25}
	}
	return out
}

// sweepPoint is one capacity setting: per-worker memory and disk
// budgets (0 = unbounded memory / no disk tier) and the cache level.
type sweepPoint struct {
	label     string
	mem, disk int64
	level     rdd.StorageLevel
}

// sweepProbe is what the unbounded probe run learned: the table's
// per-worker share of bytes and the reference results for every point.
type sweepProbe struct {
	share  int64
	rows   int64
	preds  []memtable.ColPredicate // ts in the first half of the table
	pruned []any                   // columns {id, ts} of the rows preds keeps
}

// sweepSpec is one capacity-sweep experiment.
type sweepSpec struct {
	exp, table string
	// points lists the settings to visit, sized from the probe's share.
	points func(share int64) []sweepPoint
	// pass is one timed repetition: it returns its full scan's row
	// count for sweep to check and checks anything else it reads itself.
	pass func(ctx context.Context, tbl *memtable.Table, probe *sweepProbe) (int64, error)
	// finish runs after the timed passes — extra phases, invariants,
	// gates — and renders the point's notes from the world's metrics;
	// the point is reported whenever notes come back, error or not.
	finish func(ctx context.Context, w *world, tbl *memtable.Table, pt sweepPoint) (string, error)
}

// sweep caches the table on an unbounded cluster to learn its
// footprint and reference results, then visits every point on a fresh
// cluster: load at the point's level, Scale.Reps timed passes (reported
// as their total), finish. Each world is closed — leaving its metrics
// note — whether or not its point succeeds.
func sweep(ctx context.Context, sc Scale, r *Report, spec sweepSpec) error {
	rows := sweepRows(sc.Sessions)
	load := func(w *world, level rdd.StorageLevel) (*memtable.Table, error) {
		return memtable.LoadWith(ctx, spec.table, sweepSchema,
			w.ctx.Parallelize(rows, sc.Workers*4), memtable.LoadOptions{Level: level})
	}

	probe := &sweepProbe{preds: []memtable.ColPredicate{{Col: 2, Lo: int64(0), Hi: int64(len(rows) / 2)}}}
	err := func() error {
		w := newWorld(sc, 0, 0, shuffle.Memory, "")
		defer w.close("unbounded probe")
		tbl, err := load(w, rdd.MemoryOnly)
		if err != nil {
			return err
		}
		probe.share = tbl.TotalBytes() / int64(sc.Workers)
		probe.rows = tbl.TotalRows()
		probe.pruned, err = tbl.Scan(tbl.Prune(probe.preds), []int{0, 2}).CollectCtx(ctx)
		return err
	}()
	if err != nil {
		return err
	}

	for _, pt := range spec.points(probe.share) {
		err := func() error {
			w := newWorld(sc, pt.mem, pt.disk, shuffle.Memory, "")
			defer w.close(pt.label)
			tbl, err := load(w, pt.level)
			if err != nil {
				return err
			}
			secs, err := timeIt(func() error {
				for i := 0; i < max(sc.Reps, 1); i++ {
					n, err := spec.pass(ctx, tbl, probe)
					if err != nil {
						return err
					}
					if n != probe.rows {
						return fmt.Errorf("scan returned %d rows, want %d", n, probe.rows)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			notes, err := spec.finish(ctx, w, tbl, pt)
			if notes != "" { // a failed gate still reports the numbers it failed on
				r.Add(spec.exp, pt.label, secs, notes)
			}
			return err
		}()
		if err != nil {
			return fmt.Errorf("%s: %w", pt.label, err)
		}
	}
	return nil
}
