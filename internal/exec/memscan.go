package exec

import (
	"fmt"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/memtable"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
)

// memScan is a cached-table scan with the operators fused onto it: the
// plan chain Scan → Filter* → (Project | Aggregate)?, run as one pass
// over typed column batches (kernels.go). Its tasks read a partition a
// batch at a time, narrow a selection vector through the filters, and
// only then produce output: row.Rows for the surviving rows — the one
// place a scanned row is born — or partial-aggregation states straight
// off the vectors (vecagg.go). A batch never leaves its task, so the
// RDD layer sees an ordinary source RDD of rows or shuffle pairs.
type memScan struct {
	scan    *plan.Scan
	filters []*plan.Filter // directly above the scan, bottom-up
	project *plan.Project  // on top, or nil
	agg     *plan.Aggregate
}

// matchMemScan recognizes the fusable chain ending at n, or returns nil.
func matchMemScan(n plan.Node) *memScan {
	m := &memScan{}
	switch t := n.(type) {
	case *plan.Project:
		m.project, n = t, t.Child
	case *plan.Aggregate:
		m.agg, n = t, t.Child
	}
	for {
		f, ok := n.(*plan.Filter)
		if !ok {
			break
		}
		m.filters = append([]*plan.Filter{f}, m.filters...)
		n = f.Child
	}
	s, ok := n.(*plan.Scan)
	if !ok || !s.Table.Cached() {
		return nil
	}
	m.scan = s
	return m
}

// prune applies map pruning (§3.5) and returns the partitions to scan.
func (e *Engine) prune(s *plan.Scan, stats *QueryStats) []int {
	mem := s.Table.Mem
	parts := make([]int, mem.NumPartitions())
	for i := range parts {
		parts[i] = i
	}
	if !e.opts.DisablePruning && len(s.Pruning) > 0 {
		// Pruning predicates use scan-projected column positions;
		// the table statistics use full-schema positions. Remap.
		preds := make([]memtable.ColPredicate, 0, len(s.Pruning))
		for _, p := range s.Pruning {
			if p.Col < 0 || p.Col >= len(s.NeededCols) {
				continue
			}
			p.Col = s.NeededCols[p.Col]
			preds = append(preds, p)
		}
		surviving := mem.Prune(preds)
		stats.PrunedPartitions += len(parts) - len(surviving)
		parts = surviving
	}
	stats.ScannedPartitions += len(parts)
	return parts
}

// compileMemScan lowers the chain over the listed partitions. With an
// Aggregate on top the RDD's elements are the partial aggregation's
// shuffle pairs; otherwise they are the chain's output rows. Row
// counts for EXPLAIN ANALYZE come from the kernels — selection-vector
// lengths per stage, rows emitted — so no counting iterator wraps it.
func (e *Engine) compileMemScan(m *memScan, parts []int, p *prof) *rdd.RDD {
	stages := []*NodeStats{p.of(m.scan)}
	for _, f := range m.filters {
		stages = append(stages, p.of(f))
	}
	var projectNS *NodeStats
	if m.project != nil {
		projectNS = p.of(m.project)
	}
	name := fmt.Sprintf("memscan(%s)", m.scan.Table.Name)
	return m.scan.Table.Mem.ScanPartitions(name, parts, func(tc *rdd.TaskContext, part *columnar.Partition) rdd.Iter {
		t := e.newScanTask(tc, m.scan, part)
		src := t.bindStages(m, stages)
		if m.agg != nil {
			return rdd.SliceIter(t.partialAggregate(m.agg, src))
		}
		emit := t.bindRows(m.project)
		return memtable.BatchRows(func() []row.Row {
			sel, ok := src.next()
			if !ok {
				return nil
			}
			projectNS.AddRows(int64(len(sel)))
			return emit(sel)
		})
	})
}

func (e *Engine) newScanTask(tc *rdd.TaskContext, s *plan.Scan, part *columnar.Partition) *scanTask {
	return &scanTask{
		e:       e,
		tc:      tc,
		b:       columnar.NewBatch(part),
		cols:    s.NeededCols,
		scratch: make(row.Row, len(s.NeededCols)),
	}
}

// selSource yields, batch by batch, the selection that survives the
// chain's filters.
type selSource struct {
	t      *scanTask
	stages []filterStage
	buf    []int32 // the selection's own memory, when any stage narrows it
}

// filterStage is one plan node's filtering: the scan's pushed-down
// conjuncts, or a Filter node's condition. rows counts what it passes.
type filterStage struct {
	preds []selFn
	rows  *NodeStats
}

func (t *scanTask) bindStages(m *memScan, rows []*NodeStats) *selSource {
	src := &selSource{t: t, stages: make([]filterStage, len(rows))}
	narrows := false
	bind := func(stage int, conds ...expr.Expr) {
		st := &src.stages[stage]
		st.rows = rows[stage]
		for _, c := range conds {
			st.preds = append(st.preds, t.bindFilter(c))
			narrows = true
		}
	}
	bind(0, m.scan.Filters...)
	for i, f := range m.filters {
		bind(i+1, f.Cond)
	}
	if narrows {
		src.buf = make([]int32, columnar.BatchSize)
	}
	return src
}

// next loads the following batch and returns its surviving selection
// (possibly empty); false at the end of the partition. Typed kernels
// do a bounded amount of work per batch, so this is where they poll
// for cancellation.
func (s *selSource) next() ([]int32, bool) {
	if !s.t.b.Next() {
		return nil, false
	}
	s.t.tc.FailIfCancelled()
	sel := s.t.b.All()
	if s.buf != nil {
		sel = append(s.buf[:0], sel...)
	}
	for _, st := range s.stages {
		for _, pred := range st.preds {
			if len(sel) == 0 {
				break
			}
			sel = pred(sel)
		}
		st.rows.AddRows(int64(len(sel)))
	}
	return sel, true
}

// bindRows binds row materialization: the scan's columns as they are,
// or a Project's expressions. The rows of a batch share one slab sized
// to the selection, filled a column at a time.
func (t *scanTask) bindRows(p *plan.Project) func(sel []int32) []row.Row {
	if p == nil || isIdentityProject(p) {
		return func(sel []int32) []row.Row { return t.b.Rows(t.cols, sel) }
	}
	type output struct {
		col int   // ≥ 0: this partition column, boxed by the batch
		val valFn // otherwise
	}
	outs := make([]output, len(p.Exprs))
	for j, x := range p.Exprs {
		if c, ok := x.(*expr.Col); ok && !t.interpret() {
			outs[j] = output{col: t.cols[c.Idx]}
		} else {
			outs[j] = output{col: -1, val: t.bindValue(x)}
		}
	}
	return func(sel []int32) []row.Row {
		if len(sel) == 0 {
			return []row.Row{}
		}
		n := len(outs)
		slab := make([]any, len(sel)*n)
		for j, o := range outs {
			if o.col >= 0 {
				t.b.Box(o.col, sel, slab[j:], n)
				continue
			}
			v := o.val(sel)
			for k, i := range sel {
				slab[k*n+j] = row.OwnString(v.At(i))
			}
		}
		return columnar.CarveRows(slab, n, len(sel))
	}
}

// isIdentityProject reports whether p passes its child's rows through
// unchanged: column i of the output is column i of the input, for
// every input column. (SELECT * and the projection the analyzer puts
// over every Aggregate are of this shape.)
func isIdentityProject(p *plan.Project) bool {
	if len(p.Exprs) != len(p.Child.Schema()) {
		return false
	}
	for i, x := range p.Exprs {
		if c, ok := x.(*expr.Col); !ok || c.Idx != i {
			return false
		}
	}
	return true
}
