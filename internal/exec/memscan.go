package exec

import (
	"fmt"
	"io"

	"shark/internal/columnar"
	"shark/internal/dfs"
	"shark/internal/expr"
	"shark/internal/memtable"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
)

// memScan is a table scan with the operators fused onto it: the plan
// chain Scan → Filter* → (Project | Aggregate)?, run as one pass over
// typed column batches (kernels.go). Its tasks read a columnar
// partition — a cached one, or an external table's DFS block parsed
// straight into columns — a batch at a time, narrow a selection vector
// through the filters, and only then produce output: row.Rows for the
// surviving rows — the one place a scanned row is born — or
// partial-aggregation blocks straight off the vectors (vecagg.go). A
// batch never leaves its task, so the RDD layer sees an ordinary source
// RDD of rows or shuffle pairs.
type memScan struct {
	scan    *plan.Scan
	filters []*plan.Filter // directly above the scan, bottom-up
	project *plan.Project  // on top, or nil
	agg     *plan.Aggregate
	buckets int // with agg: the shuffle buckets its blocks go to
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
	if !ok {
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

// compileMemScan lowers the chain: over the cached partitions map
// pruning keeps, or over every block of an external table. With an
// Aggregate on top the RDD's elements are the partial aggregation's
// shuffle pairs (bucket, block); otherwise they are the chain's output
// rows. Row
// counts for EXPLAIN ANALYZE come from the kernels — selection-vector
// lengths per stage, rows emitted — so no counting iterator wraps it.
func (e *Engine) compileMemScan(m *memScan, stats *QueryStats, p *prof) (*rdd.RDD, error) {
	s := m.scan
	if s.Table.Cached() {
		return e.memScanParts(m, e.prune(s, stats), p), nil
	}
	meta, err := e.FS.Stat(s.Table.File)
	if err != nil {
		return nil, err
	}
	stats.ScannedPartitions += len(meta.Blocks)
	// A block's partition holds just the scan's columns, in scan order.
	cols := make([]int, len(s.NeededCols))
	for i := range cols {
		cols[i] = i
	}
	run := e.bindChain(m, p)
	return e.blockScan(s, meta, func(tc *rdd.TaskContext, part *columnar.Partition) rdd.Iter {
		return run(tc, part, cols)
	}), nil
}

// memScanParts lowers the chain over the listed partitions of a cached
// table (nil: all of them).
func (e *Engine) memScanParts(m *memScan, parts []int, p *prof) *rdd.RDD {
	s, run := m.scan, e.bindChain(m, p)
	return s.Table.Mem.ScanPartitions(fmt.Sprintf("memscan(%s)", s.Table.Name), parts,
		func(tc *rdd.TaskContext, part *columnar.Partition) rdd.Iter {
			return run(tc, part, s.NeededCols)
		})
}

// bindChain returns the chain as a task body: it reads one partition,
// whose columns cols are the scan's (by scan position).
func (e *Engine) bindChain(m *memScan, p *prof) func(tc *rdd.TaskContext, part *columnar.Partition, cols []int) rdd.Iter {
	stages := []*NodeStats{p.of(m.scan)}
	for _, f := range m.filters {
		stages = append(stages, p.of(f))
	}
	var projectNS *NodeStats
	if m.project != nil {
		projectNS = p.of(m.project)
	}
	return func(tc *rdd.TaskContext, part *columnar.Partition, cols []int) rdd.Iter {
		t := e.newScanTask(tc, cols, part)
		src := t.bindStages(m, stages)
		if m.agg != nil {
			return rdd.SliceIter(t.partialAggregate(m.agg, src, m.buckets))
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
	}
}

// BlockPartitions returns, when n scans every column of an external
// table in file order with nothing filtered (SELECT * FROM it), one
// sealed partition per DFS block, as an RDD — what a cached CTAS stores
// as it is. It returns nil for any other plan.
func (e *Engine) BlockPartitions(n plan.Node) (*rdd.RDD, error) {
	if pr, ok := n.(*plan.Project); ok && isIdentityProject(pr) {
		n = pr.Child
	}
	s, ok := n.(*plan.Scan)
	if !ok || s.Table.Cached() || len(s.Filters) > 0 || len(s.NeededCols) != len(s.Table.Schema) {
		return nil, nil
	}
	meta, err := e.FS.Stat(s.Table.File)
	if err != nil {
		return nil, err
	}
	for i, c := range s.NeededCols {
		if c != i || meta.Schema[i].Type != s.Table.Schema[i].Type {
			return nil, nil
		}
	}
	return e.blockScan(s, meta, func(_ *rdd.TaskContext, part *columnar.Partition) rdd.Iter {
		return rdd.SliceIter([]any{part})
	}), nil
}

// blockScan reads an external table: one task per DFS block, each
// re-reading and re-parsing its block from disk (the schema-on-read
// cost) into a sealed partition of the scan's columns for compute.
func (e *Engine) blockScan(s *plan.Scan, meta *dfs.FileMeta, compute func(*rdd.TaskContext, *columnar.Partition) rdd.Iter) *rdd.RDD {
	fs, cols := e.FS, append([]int(nil), s.NeededCols...)
	return e.Ctx.Source(fmt.Sprintf("dfsscan(%s)", s.Table.Name), len(meta.Blocks),
		func(tc *rdd.TaskContext, i int) rdd.Iter {
			part, err := readBlock(fs, meta, i, cols)
			if err != nil {
				rdd.Fail(err)
			}
			return compute(tc, part)
		}, nil)
}

// readBlock parses block i of a file into a partition of the columns
// cols (file positions, in scan order). Text goes field by field into
// typed columns, skipping the fields not scanned; binary goes through
// boxed rows.
func readBlock(fs *dfs.FS, meta *dfs.FileMeta, i int, cols []int) (*columnar.Partition, error) {
	schema := make(row.Schema, len(cols))
	for j, c := range cols {
		schema[j] = meta.Schema[c]
	}
	b := columnar.NewBuilder(schema)
	b.Grow(int(meta.Blocks[i].Rows))
	if meta.Format == dfs.Text {
		tok := row.NewTextTokenizer(meta.Schema, cols)
		err := fs.ScanText(meta.Name, i, func(line []byte) error {
			return row.TokenizeText(tok, line, row.TextSink[[]byte](b))
		})
		if err != nil {
			return nil, err
		}
		return b.Seal(), nil
	}
	rd, err := fs.OpenBlock(meta.Name, i)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	proj := make(row.Row, len(cols))
	for {
		r, err := rd.Next()
		if err == io.EOF {
			return b.Seal(), nil
		}
		if err != nil {
			return nil, err
		}
		for j, c := range cols {
			proj[j] = r[c]
		}
		if err := b.Append(proj); err != nil {
			return nil, err
		}
	}
}

func (e *Engine) newScanTask(tc *rdd.TaskContext, cols []int, part *columnar.Partition) *scanTask {
	return &scanTask{
		e:       e,
		tc:      tc,
		b:       columnar.NewBatch(part),
		cols:    cols,
		scratch: make(row.Row, len(cols)),
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
