package exec

import (
	"strings"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// groupTable is the map side of a hash aggregation: one aggState per
// group seen in a partition, found by typed key — map[int64] and
// map[string] for the common key types, so a lookup hashes a machine
// word or a string instead of an interface. Both partial aggregators
// (rows, and column batches) resolve groups here and emit its pairs,
// whose keys the reduce side merges on: a single scalar key is itself
// (NULL is normalizeGroupKey's marker), a composite key is the
// row.EncodeBinary string of the group values, the global group is "".
type groupTable struct {
	specs  []plan.AggSpec
	ints   map[int64]*aggState
	strs   map[string]*aggState // string keys, and composite keys
	others map[any]*aggState    // float64 and bool keys
	null   *aggState
	pairs  []any // one shuffle.Pair per group, in first-seen order
}

func newGroupTable(specs []plan.AggSpec) *groupTable {
	return &groupTable{
		specs:  specs,
		ints:   make(map[int64]*aggState),
		strs:   make(map[string]*aggState),
		others: make(map[any]*aggState),
	}
}

func (g *groupTable) add(key any, groupVals row.Row) *aggState {
	st := newAggState(groupVals, g.specs)
	g.pairs = append(g.pairs, shuffle.Pair{K: key, V: st})
	return st
}

// global returns the one state of an aggregation without GROUP BY.
func (g *groupTable) global() *aggState {
	if g.null == nil {
		g.null = g.add("", nil)
	}
	return g.null
}

func (g *groupTable) byNull() *aggState {
	if g.null == nil {
		g.null = g.add(normalizeGroupKey(nil), row.Row{nil})
	}
	return g.null
}

func (g *groupTable) byInt(x int64) *aggState { return groupOf(g, g.ints, x) }

// byString copies the key when it creates a group: s may be a
// sub-string of a cached partition's column data, and the group
// outlives the scan.
func (g *groupTable) byString(s string) *aggState {
	if st := g.strs[s]; st != nil {
		return st
	}
	return groupOf(g, g.strs, strings.Clone(s))
}

// byValue resolves a single boxed group value of any type.
func (g *groupTable) byValue(v any) *aggState {
	switch x := v.(type) {
	case nil:
		return g.byNull()
	case int64:
		return g.byInt(x)
	case string:
		return g.byString(x)
	}
	return groupOf(g, g.others, v)
}

// groupOf finds or creates the single-key group k in the map for k's
// type; the key is boxed only for a new group.
func groupOf[K comparable](g *groupTable, m map[K]*aggState, k K) *aggState {
	st := m[k]
	if st == nil {
		key := any(k)
		st = g.add(key, row.Row{key})
		m[k] = st
	}
	return st
}

// composite finds a multi-column group by its encoded key
// (row.EncodeBinary of the group values); nil when the group is new,
// and addComposite then creates it.
func (g *groupTable) composite(key []byte) *aggState { return g.strs[string(key)] }

func (g *groupTable) addComposite(key []byte, groupVals row.Row) *aggState {
	k := string(key)
	st := g.add(k, groupVals)
	g.strs[k] = st
	return st
}

// ---------------------------------------------------------------------------
// Partial aggregation over column batches

// partialAggregate runs the map side of a over the task's batches and
// returns the group table's pairs. Group keys and aggregate arguments
// are read as typed vectors wherever they have kernels; within the
// partition every accumulator sees its rows in row order, so float
// sums are bit-identical to the row aggregator's.
func (t *scanTask) partialAggregate(a *plan.Aggregate, src *selSource) []any {
	g := newGroupTable(a.Aggs)
	resolve := t.bindGroups(a.GroupBy, g)
	accumulate := make([]func(sel []int32, states []*aggState), len(a.Aggs))
	for k, spec := range a.Aggs {
		accumulate[k] = t.bindAccumulate(k, spec)
	}
	// states[j] is the group of the batch's j-th selected row.
	states := make([]*aggState, columnar.BatchSize)
	for {
		sel, ok := src.next()
		if !ok {
			break
		}
		if len(sel) == 0 {
			continue
		}
		resolve(sel, states)
		for _, acc := range accumulate {
			acc(sel, states)
		}
	}
	// Global aggregation must produce a row even over empty input
	// (COUNT(*) = 0, SUM = NULL), so emit an identity state.
	if len(a.GroupBy) == 0 {
		g.global()
	}
	return g.pairs
}

// bindGroups binds GROUP BY to a resolver filling states[j] with the
// group of row sel[j].
func (t *scanTask) bindGroups(groupBy []expr.Expr, g *groupTable) func(sel []int32, states []*aggState) {
	switch len(groupBy) {
	case 0:
		return func(sel []int32, states []*aggState) {
			st := g.global()
			for j := range sel {
				states[j] = st
			}
		}
	case 1:
		if f := t.bindDictGroups(groupBy[0], g); f != nil {
			return f
		}
		key := t.bindValue(groupBy[0])
		return func(sel []int32, states []*aggState) {
			switch v := key(sel); v.Kind {
			case columnar.VecInt:
				resolveKeys(g, g.byInt, sel, v.Ints, v.Mask, v.Nulls, states)
			case columnar.VecStr:
				resolveKeys(g, g.byString, sel, v.Strs, v.Mask, v.Nulls, states)
			default:
				for j, i := range sel {
					states[j] = g.byValue(v.At(i))
				}
			}
		}
	}
	keys := make([]valFn, len(groupBy))
	for k, x := range groupBy {
		keys[k] = t.bindValue(x)
	}
	vecs := make([]columnar.Vec, len(keys))
	var enc row.BinaryEncoder
	return func(sel []int32, states []*aggState) {
		for k, key := range keys {
			vecs[k] = key(sel)
		}
		for j, i := range sel {
			enc.Reset(len(vecs))
			for k := range vecs {
				v := &vecs[k]
				switch {
				case v.Kind == columnar.VecAny:
					enc.Value(v.Anys[i])
				case v.Nulls.Has(int(i)):
					enc.Null()
				case v.Kind == columnar.VecInt:
					enc.Int(v.Ints[i&v.Mask])
				case v.Kind == columnar.VecFloat:
					enc.Float(v.Floats[i&v.Mask])
				default:
					enc.String(v.Strs[i&v.Mask])
				}
			}
			key := enc.Bytes()
			st := g.composite(key)
			if st == nil {
				vals := make(row.Row, len(vecs))
				for k := range vecs {
					vals[k] = row.OwnString(vecs[k].At(i))
				}
				st = g.addComposite(key, vals)
			}
			states[j] = st
		}
	}
}

// resolveKeys resolves a typed single-column key through by (the group
// table's lookup for T). Clustered data repeats its key, so the last
// group is remembered and most rows never reach the map.
func resolveKeys[T int64 | string](g *groupTable, by func(T) *aggState, sel []int32, keys []T, mask int32, nulls columnar.Bitmap, states []*aggState) {
	var last *aggState
	var lastKey T
	for j, i := range sel {
		switch x := keys[i&mask]; {
		case nulls.Has(int(i)):
			states[j] = g.byNull()
		case last != nil && x == lastKey:
			states[j] = last
		default:
			last, lastKey = by(x), x
			states[j] = last
		}
	}
}

// bindDictGroups resolves a single dictionary-encoded group column
// through a code-indexed table: no hashing at all. Nil when x is not a
// bare reference to a column this partition dictionary-encoded.
func (t *scanTask) bindDictGroups(x expr.Expr, g *groupTable) func(sel []int32, states []*aggState) {
	col, ok := x.(*expr.Col)
	if !ok || t.interpret() {
		return nil
	}
	c := t.cols[col.Idx]
	d := t.b.Dict(c)
	if d == nil {
		return nil
	}
	byCode := make([]*aggState, d.DictLen())
	return func(sel []int32, states []*aggState) {
		codes, nulls := t.b.Codes(c), t.b.Nulls(c)
		for j, i := range sel {
			if nulls.Has(int(i)) {
				states[j] = g.byNull()
				continue
			}
			code := codes[i]
			if byCode[code] == nil {
				byCode[code] = g.byValue(d.DictValue(int(code)))
			}
			states[j] = byCode[code]
		}
	}
}

// bindAccumulate binds aggregate k to a function folding one batch
// into its rows' group states.
func (t *scanTask) bindAccumulate(k int, spec plan.AggSpec) func(sel []int32, states []*aggState) {
	if spec.Arg == nil { // COUNT(*)
		return func(sel []int32, states []*aggState) {
			for j := range sel {
				states[j].accs[k].count++
			}
		}
	}
	arg := t.bindValue(spec.Arg)
	kind := spec.Kind
	return func(sel []int32, states []*aggState) {
		v := arg(sel)
		switch {
		case v.Kind == columnar.VecInt:
			for j, i := range sel {
				if !v.Nulls.Has(int(i)) {
					states[j].accs[k].addInt(kind, v.Ints[i&v.Mask])
				}
			}
		case v.Kind == columnar.VecFloat:
			for j, i := range sel {
				if !v.Nulls.Has(int(i)) {
					states[j].accs[k].addFloat(kind, v.Floats[i&v.Mask])
				}
			}
		case v.Kind == columnar.VecStr:
			for j, i := range sel {
				if !v.Nulls.Has(int(i)) {
					states[j].accs[k].addString(kind, v.Strs[i&v.Mask])
				}
			}
		default: // the adapter's values: a string may be a column's cell as it is
			for j, i := range sel {
				if x := v.At(i); x != nil {
					if s, ok := x.(string); ok {
						states[j].accs[k].addString(kind, s)
					} else {
						states[j].accs[k].fold(kind, x)
					}
				}
			}
		}
	}
}
