package mr

import (
	"fmt"
	"sort"
	"sync/atomic"

	"shark/internal/dfs"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/row"
)

// HiveOptions tunes the Hive-style executor.
type HiveOptions struct {
	// NumReduces fixes the reduce-task count ("hand-tuned Hive").
	// 0 uses the auto estimate, which — as §6.3 observes — is
	// frequently wrong.
	NumReduces int
	// PerReducerBytes drives the auto estimate (default 8 MiB, the
	// paper's 1 GB/reducer scaled by SimScale).
	PerReducerBytes int64
}

// Hive compiles logical plans into chains of MapReduce jobs — the
// baseline system of every comparison in the paper's evaluation.
type Hive struct {
	Eng  *Engine
	Opts HiveOptions

	tmpSeq atomic.Int64
}

// NewHive creates the Hive-style executor.
func NewHive(eng *Engine, opts HiveOptions) *Hive {
	if opts.PerReducerBytes <= 0 {
		opts.PerReducerBytes = 8 << 20
	}
	return &Hive{Eng: eng, Opts: opts}
}

// Result is a materialized Hive query result.
type Result struct {
	Schema      row.Schema
	Rows        []row.Row
	Jobs        int
	MapTasks    int
	ReduceTasks int
}

// pipe is a not-yet-materialized map-side pipeline over DFS files.
type pipe struct {
	files     []string
	inSchema  row.Schema
	transform func(row.Row) []row.Row // nil = identity
	outSchema row.Schema
	temp      bool // files are intermediates owned by this query
}

func (p *pipe) fn(e *Hive) func(row.Row) []row.Row {
	if p.transform == nil {
		return func(r row.Row) []row.Row { return []row.Row{r} }
	}
	return p.transform
}

type runState struct {
	jobs        int
	mapTasks    int
	reduceTasks int
	cleanups    []string
}

// Run executes a logical plan as MapReduce jobs.
func (h *Hive) Run(p plan.Node) (*Result, error) {
	st := &runState{}
	defer func() {
		for _, f := range st.cleanups {
			h.Eng.FS.DeletePrefix(f)
		}
	}()

	limit := int64(-1)
	if l, ok := p.(*plan.Limit); ok {
		limit = l.N
		p = l.Child
	}
	var sortKeys []plan.SortKey
	if s, ok := p.(*plan.Sort); ok {
		sortKeys = s.Keys
		p = s.Child
	}
	schema := p.Schema()

	pp, err := h.compile(p, st)
	if err != nil {
		return nil, err
	}

	// Materialize the final pipe. A pending transform needs a final
	// map-only job (Hive writes query output to a table/directory).
	var rows []row.Row
	if pp.transform != nil || !pp.temp {
		out := h.tmpName()
		res, err := h.runMapOnly(pp, out, st)
		if err != nil {
			return nil, err
		}
		st.cleanups = append(st.cleanups, out)
		rows, err = h.Eng.ReadOutput(res)
		if err != nil {
			return nil, err
		}
	} else {
		for _, f := range pp.files {
			rs, err := h.Eng.FS.ReadAll(f)
			if err != nil {
				return nil, err
			}
			rows = append(rows, rs...)
		}
	}

	if sortKeys != nil {
		keyFns := make([]expr.EvalFn, len(sortKeys))
		for i, k := range sortKeys {
			keyFns[i] = k.Expr.Eval
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for k, fn := range keyFns {
				a, b := fn(rows[i]), fn(rows[j])
				c := compareNullable(a, b)
				if c == 0 {
					continue
				}
				if sortKeys[k].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if limit >= 0 && int64(len(rows)) > limit {
		rows = rows[:limit]
	}
	return &Result{
		Schema: schema, Rows: rows,
		Jobs: st.jobs, MapTasks: st.mapTasks, ReduceTasks: st.reduceTasks,
	}, nil
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

func (h *Hive) tmpName() string {
	return fmt.Sprintf("tmp/hive-%d", h.tmpSeq.Add(1))
}

func (h *Hive) numReduces(inputBytes int64) int {
	if h.Opts.NumReduces > 0 {
		return h.Opts.NumReduces
	}
	n := int(inputBytes / h.Opts.PerReducerBytes)
	if n < 1 {
		n = 1
	}
	if n > 99 {
		n = 99
	}
	return n
}

func (h *Hive) inputBytes(files []string) int64 {
	var n int64
	for _, f := range files {
		if m, err := h.Eng.FS.Stat(f); err == nil {
			n += m.TotalBytes()
		}
	}
	return n
}

// compile lowers a node to a pipe, running whole MR jobs for shuffle
// operators (aggregates and joins) along the way.
func (h *Hive) compile(n plan.Node, st *runState) (*pipe, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return h.compileScan(t)
	case *plan.Filter:
		child, err := h.compile(t.Child, st)
		if err != nil {
			return nil, err
		}
		pred := t.Cond.Eval
		inner := child.fn(h)
		child.transform = func(r row.Row) []row.Row {
			rows := inner(r)
			out := rows[:0]
			for _, rr := range rows {
				if row.Truth(pred(rr)) {
					out = append(out, rr)
				}
			}
			return out
		}
		return child, nil
	case *plan.Project:
		child, err := h.compile(t.Child, st)
		if err != nil {
			return nil, err
		}
		fns := make([]expr.EvalFn, len(t.Exprs))
		for i, x := range t.Exprs {
			fns[i] = x.Eval
		}
		inner := child.fn(h)
		child.transform = func(r row.Row) []row.Row {
			rows := inner(r)
			out := make([]row.Row, len(rows))
			for i, rr := range rows {
				proj := make(row.Row, len(fns))
				for j, f := range fns {
					proj[j] = f(rr)
				}
				out[i] = proj
			}
			return out
		}
		child.outSchema = t.Schema()
		return child, nil
	case *plan.Aggregate:
		return h.compileAggregate(t, st)
	case *plan.Join:
		return h.compileJoin(t, st)
	case plan.OneRow:
		return nil, fmt.Errorf("mr: SELECT without FROM is not supported by the Hive baseline")
	}
	return nil, fmt.Errorf("mr: hive cannot compile %T", n)
}

func (h *Hive) compileScan(s *plan.Scan) (*pipe, error) {
	if s.Table.File == "" {
		return nil, fmt.Errorf("mr: hive reads DFS tables only; %q is memstore-cached", s.Table.Name)
	}
	needed := append([]int(nil), s.NeededCols...)
	var pred expr.EvalFn
	if len(s.Filters) > 0 {
		pred = plan.Conjoin(s.Filters).Eval
	}
	return &pipe{
		files:    []string{s.Table.File},
		inSchema: s.Table.Schema,
		transform: func(r row.Row) []row.Row {
			out := make(row.Row, len(needed))
			for i, c := range needed {
				out[i] = r[c]
			}
			if pred != nil && !row.Truth(pred(out)) {
				return nil
			}
			return []row.Row{out}
		},
		outSchema: s.Schema(),
	}, nil
}

// runMapOnly materializes a pipe with a map-only job (no shuffle).
func (h *Hive) runMapOnly(p *pipe, output string, st *runState) (*JobResult, error) {
	fn := p.fn(h)
	job := &Job{
		Name: "map-only",
		Inputs: []InputGroup{{
			Files: p.files,
			Map: func(r row.Row, emit func(any, row.Row)) {
				for _, out := range fn(r) {
					emit(nil, out)
				}
			},
		}},
		Output:       output,
		OutputSchema: p.outSchema,
		OutputFormat: dfs.Binary,
	}
	res, err := h.Eng.RunMapOnly(job)
	if err != nil {
		return nil, err
	}
	st.jobs++
	st.mapTasks += res.MapTasks
	return res, nil
}
