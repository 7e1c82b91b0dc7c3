package mr

import (
	"fmt"

	"shark/internal/dfs"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/row"
)

// ---------------------------------------------------------------------------
// Aggregation as one MapReduce job: map-side partial states (Hadoop
// combiner), shuffle by group key, reduce-side finalize. Queries with
// COUNT(DISTINCT) ship raw values instead (no combiner), as Hive does.

// aggStateWidth returns the number of state fields per aggregate kind
// in the encodable partial-state row.
func aggStateWidth(k plan.AggKind) int {
	switch k {
	case plan.AggSum:
		return 3 // seen, sumI, sumF
	case plan.AggAvg:
		return 2 // count, sumF
	default:
		return 1 // count / min / max
	}
}

func (h *Hive) compileAggregate(a *plan.Aggregate, st *runState) (*pipe, error) {
	child, err := h.compile(a.Child, st)
	if err != nil {
		return nil, err
	}
	groupFns := make([]expr.EvalFn, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groupFns[i] = g.Eval
	}
	argFns := make([]expr.EvalFn, len(a.Aggs))
	for i, s := range a.Aggs {
		if s.Arg != nil {
			argFns[i] = s.Arg.Eval
		}
	}
	specs := a.Aggs
	nG := len(a.GroupBy)
	rawMode := false
	for _, s := range specs {
		if s.Kind == plan.AggCountDistinct {
			rawMode = true
		}
	}

	inner := child.fn(h)
	out := h.tmpName()
	job := &Job{
		Name:         "aggregate",
		Output:       out,
		OutputSchema: a.Schema(),
		OutputFormat: dfs.Binary,
		NumReduces:   h.numReduces(h.inputBytes(child.files)),
	}

	if rawMode {
		job.Inputs = []InputGroup{{Files: child.files, Map: func(r row.Row, emit func(any, row.Row)) {
			for _, rr := range inner(r) {
				key, groupVals := mrGroupKey(groupFns, rr)
				payload := make(row.Row, 0, nG+len(specs))
				payload = append(payload, groupVals...)
				for i := range specs {
					if argFns[i] != nil {
						payload = append(payload, argFns[i](rr))
					} else {
						payload = append(payload, nil)
					}
				}
				emit(key, payload)
			}
		}}}
		job.Reduce = func(key any, vals []row.Row, emit func(row.Row)) {
			accs := newMRAccs(specs)
			var groupVals row.Row
			for _, v := range vals {
				groupVals = v[:nG]
				for i, spec := range specs {
					accs[i].addRaw(spec, v[nG+i])
				}
			}
			emit(finalizeMR(groupVals, accs, specs, nG))
		}
	} else {
		stateWidths := make([]int, len(specs))
		for i, s := range specs {
			stateWidths[i] = aggStateWidth(s.Kind)
		}
		job.Inputs = []InputGroup{{Files: child.files, Map: func(r row.Row, emit func(any, row.Row)) {
			for _, rr := range inner(r) {
				key, groupVals := mrGroupKey(groupFns, rr)
				state := make(row.Row, 0, nG+totalWidth(stateWidths))
				state = append(state, groupVals...)
				for i, spec := range specs {
					var v any
					if argFns[i] != nil {
						v = argFns[i](rr)
					}
					state = appendInitState(state, spec, v)
				}
				emit(key, state)
			}
		}}}
		job.Combine = func(key any, vals []row.Row) []row.Row {
			return []row.Row{mergeStates(vals, specs, stateWidths, nG)}
		}
		job.Reduce = func(key any, vals []row.Row, emit func(row.Row)) {
			merged := mergeStates(vals, specs, stateWidths, nG)
			accs := statesToAccs(merged, specs, stateWidths, nG)
			emit(finalizeMR(merged[:nG], accs, specs, nG))
		}
	}

	res, err := h.Eng.Run(job)
	if err != nil {
		return nil, err
	}
	st.jobs++
	st.mapTasks += res.MapTasks
	st.reduceTasks += res.ReduceTasks
	st.cleanups = append(st.cleanups, out)
	files := res.OutputFiles
	if len(a.GroupBy) == 0 && res.OutputRows == 0 {
		// Global aggregation over empty input still yields one row
		// (COUNT = 0, SUM = NULL).
		extra := out + "/empty-group"
		w, err := h.Eng.FS.Create(extra, dfs.Binary, a.Schema())
		if err != nil {
			return nil, err
		}
		if err := w.Write(finalizeMR(nil, newMRAccs(specs), specs, 0)); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		files = append(files, extra)
	}
	return &pipe{files: files, inSchema: a.Schema(), outSchema: a.Schema(), temp: true}, nil
}

func totalWidth(ws []int) int {
	t := 0
	for _, w := range ws {
		t += w
	}
	return t
}

// mrGroupKey keys a row's group by the row.EncodeBinary bytes of its
// group values, one or several: NULL is the codec's tag for it, never a
// string a row could hold as well.
func mrGroupKey(groupFns []expr.EvalFn, r row.Row) (any, row.Row) {
	if len(groupFns) == 0 {
		return "", nil
	}
	vals := make(row.Row, len(groupFns))
	for i, f := range groupFns {
		vals[i] = f(r)
	}
	var buf [64]byte // most keys encode here: the key string is the one allocation
	return string(row.EncodeBinary(buf[:0], vals)), vals
}

// appendInitState writes the initial partial state for one row's
// contribution to one aggregate.
func appendInitState(state row.Row, spec plan.AggSpec, v any) row.Row {
	switch spec.Kind {
	case plan.AggCount:
		var c int64
		if spec.Arg == nil || v != nil {
			c = 1
		}
		return append(state, c)
	case plan.AggSum:
		if v == nil {
			return append(state, int64(0), int64(0), float64(0))
		}
		i, _ := row.AsInt(v)
		f, _ := row.AsFloat(v)
		return append(state, int64(1), i, f)
	case plan.AggAvg:
		if v == nil {
			return append(state, int64(0), float64(0))
		}
		f, _ := row.AsFloat(v)
		return append(state, int64(1), f)
	case plan.AggMin, plan.AggMax:
		return append(state, v)
	}
	panic(fmt.Sprintf("mr: bad state kind %v", spec.Kind))
}

// mergeStates folds partial-state rows into one.
func mergeStates(vals []row.Row, specs []plan.AggSpec, widths []int, nG int) row.Row {
	out := vals[0].Clone()
	for _, v := range vals[1:] {
		off := nG
		for i, spec := range specs {
			switch spec.Kind {
			case plan.AggCount:
				out[off] = out[off].(int64) + v[off].(int64)
			case plan.AggSum:
				out[off] = out[off].(int64) + v[off].(int64)
				out[off+1] = out[off+1].(int64) + v[off+1].(int64)
				out[off+2] = out[off+2].(float64) + v[off+2].(float64)
			case plan.AggAvg:
				out[off] = out[off].(int64) + v[off].(int64)
				out[off+1] = out[off+1].(float64) + v[off+1].(float64)
			case plan.AggMin:
				if v[off] != nil && (out[off] == nil || row.Compare(v[off], out[off]) < 0) {
					out[off] = v[off]
				}
			case plan.AggMax:
				if v[off] != nil && (out[off] == nil || row.Compare(v[off], out[off]) > 0) {
					out[off] = v[off]
				}
			}
			off += widths[i]
		}
	}
	return out
}

// mrAcc is the reduce-side accumulator (also used in raw mode).
type mrAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	seen     bool
	min, max any
	distinct map[any]struct{}
}

func newMRAccs(specs []plan.AggSpec) []*mrAcc {
	out := make([]*mrAcc, len(specs))
	for i, s := range specs {
		out[i] = &mrAcc{}
		if s.Kind == plan.AggCountDistinct {
			out[i].distinct = make(map[any]struct{})
		}
	}
	return out
}

func (a *mrAcc) addRaw(spec plan.AggSpec, v any) {
	switch spec.Kind {
	case plan.AggCount:
		if spec.Arg == nil || v != nil {
			a.count++
		}
	case plan.AggCountDistinct:
		if v != nil {
			a.distinct[v] = struct{}{}
		}
	case plan.AggSum, plan.AggAvg:
		if v == nil {
			return
		}
		a.seen = true
		a.count++
		i, _ := row.AsInt(v)
		f, _ := row.AsFloat(v)
		a.sumI += i
		a.sumF += f
	case plan.AggMin:
		if v != nil && (a.min == nil || row.Compare(v, a.min) < 0) {
			a.min = v
		}
	case plan.AggMax:
		if v != nil && (a.max == nil || row.Compare(v, a.max) > 0) {
			a.max = v
		}
	}
}

func statesToAccs(state row.Row, specs []plan.AggSpec, widths []int, nG int) []*mrAcc {
	accs := newMRAccs(specs)
	off := nG
	for i, spec := range specs {
		a := accs[i]
		switch spec.Kind {
		case plan.AggCount:
			a.count = state[off].(int64)
		case plan.AggSum:
			a.seen = state[off].(int64) > 0
			a.sumI = state[off+1].(int64)
			a.sumF = state[off+2].(float64)
		case plan.AggAvg:
			a.count = state[off].(int64)
			a.sumF = state[off+1].(float64)
		case plan.AggMin:
			a.min = state[off]
		case plan.AggMax:
			a.max = state[off]
		}
		off += widths[i]
	}
	return accs
}

func finalizeMR(groupVals row.Row, accs []*mrAcc, specs []plan.AggSpec, nG int) row.Row {
	out := make(row.Row, nG+len(specs))
	copy(out, groupVals)
	for i, spec := range specs {
		a := accs[i]
		switch spec.Kind {
		case plan.AggCount:
			out[nG+i] = a.count
		case plan.AggCountDistinct:
			out[nG+i] = int64(len(a.distinct))
		case plan.AggSum:
			if !a.seen {
				out[nG+i] = nil
			} else if spec.Out == row.TInt {
				out[nG+i] = a.sumI
			} else {
				out[nG+i] = a.sumF
			}
		case plan.AggAvg:
			if a.count == 0 {
				out[nG+i] = nil
			} else {
				out[nG+i] = a.sumF / float64(a.count)
			}
		case plan.AggMin:
			out[nG+i] = a.min
		case plan.AggMax:
			out[nG+i] = a.max
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Join as one MapReduce job: both inputs mapped to (key, tag+row),
// reduce performs a per-key hash join (Hive's "common join").

func (h *Hive) compileJoin(j *plan.Join, st *runState) (*pipe, error) {
	left, err := h.compile(j.Left, st)
	if err != nil {
		return nil, err
	}
	right, err := h.compile(j.Right, st)
	if err != nil {
		return nil, err
	}
	lKey, rKey := j.LeftKey.Eval, j.RightKey.Eval
	lFn, rFn := left.fn(h), right.fn(h)
	nL := len(j.Left.Schema())

	out := h.tmpName()
	job := &Job{
		Name:         "join",
		Output:       out,
		OutputSchema: j.Schema(),
		OutputFormat: dfs.Binary,
		NumReduces:   h.numReduces(h.inputBytes(left.files) + h.inputBytes(right.files)),
		Inputs: []InputGroup{
			{Files: left.files, Map: tagMapper(lFn, lKey, 0)},
			{Files: right.files, Map: tagMapper(rFn, rKey, 1)},
		},
		Reduce: func(key any, vals []row.Row, emit func(row.Row)) {
			var lefts, rights []row.Row
			for _, v := range vals {
				if v[0].(int64) == 0 {
					lefts = append(lefts, v[1:])
				} else {
					rights = append(rights, v[1:])
				}
			}
			for _, l := range lefts {
				for _, r := range rights {
					outRow := make(row.Row, 0, nL+len(r))
					outRow = append(outRow, l...)
					outRow = append(outRow, r...)
					emit(outRow)
				}
			}
		},
	}
	res, err := h.Eng.Run(job)
	if err != nil {
		return nil, err
	}
	st.jobs++
	st.mapTasks += res.MapTasks
	st.reduceTasks += res.ReduceTasks
	st.cleanups = append(st.cleanups, out)
	return &pipe{files: res.OutputFiles, inSchema: j.Schema(), outSchema: j.Schema(), temp: true}, nil
}

func tagMapper(fn func(row.Row) []row.Row, keyFn expr.EvalFn, tag int64) func(row.Row, func(any, row.Row)) {
	return func(r row.Row, emit func(any, row.Row)) {
		for _, rr := range fn(r) {
			k := keyFn(rr)
			if k == nil {
				continue
			}
			tagged := make(row.Row, 0, len(rr)+1)
			tagged = append(tagged, tag)
			tagged = append(tagged, rr...)
			emit(k, tagged)
		}
	}
}
