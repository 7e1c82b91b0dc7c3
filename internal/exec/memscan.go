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

// chain is a run of operators fused into one pass over column batches
// (kernels.go): Source → Filter* → (Project | Aggregate)?. The source
// is a table scan — a cached partition, or an external table's DFS
// block parsed straight into columns, read a batch at a time — or any
// other operator, whose batches arrive through its RDD: a join's
// output, an aggregate's groups. A task narrows each batch's selection
// through the filters and only then produces output: the batch again,
// projected, for the operator above — batches are the RDD element
// above every scan, and rows are carved only at a statement's root
// (engine.go) — or partial-aggregation blocks straight off the vectors
// (vecagg.go).
type chain struct {
	scan    *plan.Scan     // the source, when it is a table scan
	source  plan.Node      // the source otherwise
	filters []*plan.Filter // directly above the source, bottom-up
	project *plan.Project  // on top, or nil
	agg     *plan.Aggregate
	buckets int                     // with agg: the shuffle buckets its blocks go to
	prune   []memtable.ColPredicate // a cached scan's (Engine.prune), tested per window
}

// matchChain splits the chain ending at n off the plan. With nothing
// fused and no scan, its source is n itself.
func matchChain(n plan.Node) *chain {
	m := &chain{}
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
	if s, ok := n.(*plan.Scan); ok {
		m.scan = s
	} else {
		m.source = n
	}
	return m
}

// prune applies map pruning (§3.5) and returns the partitions to scan.
// It keeps the predicates, over the table's columns, in the chain: its
// tasks test each window's statistics against them too.
func (e *Engine) prune(m *chain, stats *QueryStats) []int {
	s, mem := m.scan, m.scan.Table.Mem
	parts := make([]int, mem.NumPartitions())
	for i := range parts {
		parts[i] = i
	}
	if !e.opts.DisablePruning && len(s.Pruning) > 0 {
		// Pruning predicates use scan-projected column positions;
		// the table statistics use full-schema positions. Remap.
		for _, p := range s.Pruning {
			if p.Col < 0 || p.Col >= len(s.NeededCols) {
				continue
			}
			p.Col = s.NeededCols[p.Col]
			m.prune = append(m.prune, p)
		}
		surviving := mem.Prune(m.prune)
		stats.PrunedPartitions += len(parts) - len(surviving)
		parts = surviving
	}
	stats.ScannedPartitions += len(parts)
	return parts
}

// compileMemScan lowers a chain over a table scan: over the cached
// partitions map pruning keeps, or over every block of an external
// table. With an Aggregate on top the RDD's elements are the partial
// aggregation's shuffle pairs (bucket, block); otherwise they are the
// chain's output batches. Row counts for EXPLAIN ANALYZE come from the
// kernels — selection-vector lengths per stage — so no counting
// iterator wraps it.
func (e *Engine) compileMemScan(m *chain, stats *QueryStats, p *prof) (*rdd.RDD, error) {
	s := m.scan
	if s.Table.Cached() {
		return e.memScanParts(m, e.prune(m, stats), p), nil
	}
	meta, err := e.FS.Stat(s.Table.File)
	if err != nil {
		return nil, err
	}
	stats.ScannedPartitions += len(meta.Blocks)
	// A block's partition holds just the scan's columns, in scan order.
	cols, run := upTo[int](len(s.NeededCols)), e.bindChain(m, p)
	return e.blockScan(s, meta, func(tc *rdd.TaskContext, part *columnar.Partition) rdd.Iter {
		return run(tc, cols, windows(columnar.NewBatch(part)))
	}), nil
}

// memScanParts lowers a chain over the listed partitions of a cached
// table (nil: all of them).
func (e *Engine) memScanParts(m *chain, parts []int, p *prof) *rdd.RDD {
	s, run := m.scan, e.bindChain(m, p)
	return s.Table.Mem.ScanPartitions(fmt.Sprintf("memscan(%s)", s.Table.Name), parts,
		func(tc *rdd.TaskContext, part *columnar.Partition) rdd.Iter {
			return run(tc, s.NeededCols, windows(columnar.NewBatch(part)))
		})
}

// chainOver lowers a chain over its source's batches.
func (e *Engine) chainOver(src *rdd.RDD, m *chain, p *prof) *rdd.RDD {
	run, cols := e.bindChain(m, p), upTo[int](len(m.source.Schema()))
	return src.MapPartitions(func(tc *rdd.TaskContext, _ int, in rdd.Iter) rdd.Iter {
		return run(tc, cols, in)
	})
}

// bindChain returns the chain as a task body: it reads the batches in
// yields, whose columns cols are the source's (by source position).
func (e *Engine) bindChain(m *chain, p *prof) func(tc *rdd.TaskContext, cols []int, in rdd.Iter) rdd.Iter {
	stages := []*NodeStats{p.of(m.scan)}
	for _, f := range m.filters {
		stages = append(stages, p.of(f))
	}
	var projectNS *NodeStats
	if m.project != nil {
		projectNS = p.of(m.project)
	}
	return func(tc *rdd.TaskContext, cols []int, in rdd.Iter) rdd.Iter {
		t := e.newScanTask(tc, cols)
		src := t.bindStages(m, stages, in)
		if m.agg != nil {
			return rdd.SliceIter(t.partialAggregate(m.agg, src, m.buckets))
		}
		emit := t.bindProject(m.project, src)
		return rdd.FuncIter(func() (any, bool) {
			for {
				sel, ok := src.next()
				if !ok {
					return nil, false
				}
				if len(sel) > 0 {
					projectNS.AddRows(int64(len(sel)))
					return emit(sel), true
				}
			}
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

func (e *Engine) newScanTask(tc *rdd.TaskContext, cols []int) *scanTask {
	return &scanTask{e: e, tc: tc, cols: cols, scratch: make(row.Row, len(cols))}
}

// selSource yields, batch by batch, the selection that survives the
// chain's filters.
type selSource struct {
	t      *scanTask
	m      *chain
	in     rdd.Iter     // the batches
	rows   []*NodeStats // what each stage passes: the scan's, each Filter's
	stages []filterStage
	buf    []int32 // the selection's own memory, when any stage narrows it
	// bind (re)binds what reads the batches above the filters: called
	// whenever the filters are.
	bind func()
}

// filterStage is one plan node's filtering: the scan's pushed-down
// conjuncts, or a Filter node's condition. rows counts what it passes.
type filterStage struct {
	preds []selFn
	rows  *NodeStats
}

func (t *scanTask) bindStages(m *chain, rows []*NodeStats, in rdd.Iter) *selSource {
	return &selSource{t: t, m: m, in: in, rows: rows, bind: func() {}}
}

// bindFilters binds the filter stages to the task's current batch.
func (s *selSource) bindFilters() {
	s.stages = make([]filterStage, len(s.rows))
	narrows := false
	bind := func(stage int, conds ...expr.Expr) {
		st := &s.stages[stage]
		st.rows = s.rows[stage]
		for _, c := range conds {
			st.preds = append(st.preds, s.t.bindFilter(c))
			narrows = true
		}
	}
	if s.m.scan != nil {
		bind(0, s.m.scan.Filters...)
	}
	for i, f := range s.m.filters {
		bind(i+1, f.Cond)
	}
	if narrows && s.buf == nil {
		s.buf = make([]int32, columnar.BatchSize)
	}
	s.bind()
}

// next loads the following batch and returns its surviving selection
// (possibly empty); false at the end of the source. Typed kernels do a
// bounded amount of work per batch, so this is where they poll for
// cancellation.
func (s *selSource) next() ([]int32, bool) {
	v, ok := s.in.Next()
	if !ok {
		return nil, false
	}
	b := v.(*columnar.Batch)
	s.t.tc.FailIfCancelled()
	if s.t.load(b) {
		s.bindFilters()
	}
	sel := b.Sel
	if s.m.scan != nil {
		skip := s.m.prune != nil && !memtable.MayMatch(b.Stats(), s.m.prune)
		s.rows[0].AddWindow(skip)
		if skip {
			sel = sel[:0]
		}
	}
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

// bindProject binds the chain's output: the source's columns as they
// are, or a Project's expressions — a bare column passes the batch's
// own column on, anything else its vector.
func (t *scanTask) bindProject(p *plan.Project, src *selSource) func(sel []int32) *columnar.Batch {
	if p == nil || isIdentityProject(p) {
		return func(sel []int32) *columnar.Batch { return t.b.Project(t.cols, nil, sel) }
	}
	cols := make([]int, len(p.Exprs))
	vals := make([]valFn, len(p.Exprs))
	vecs := make([]columnar.Vec, len(p.Exprs))
	zeros := make([]int32, columnar.BatchSize)
	src.bind = func() {
		for j, x := range p.Exprs {
			if c, ok := x.(*expr.Col); ok {
				cols[j] = t.cols[c.Idx]
			} else {
				cols[j], vals[j] = -1, t.bindValue(x)
			}
		}
	}
	return func(sel []int32) *columnar.Batch {
		for j, val := range vals {
			if cols[j] >= 0 {
				continue
			}
			if vecs[j] = val(sel); vecs[j].Mask == 0 { // a literal: spread over the window
				vecs[j] = vecs[j].Gather(zeros[:t.b.Len()], false)
			}
		}
		return t.b.Project(cols, vecs, sel)
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
