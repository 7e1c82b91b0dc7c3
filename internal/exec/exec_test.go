package exec

import (
	"testing"
	"testing/quick"

	"shark/internal/catalog"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/row"
	"shark/internal/shuffle"
)

func specAll() []plan.AggSpec {
	return []plan.AggSpec{
		{Kind: plan.AggCount, Out: row.TInt},
		{Kind: plan.AggSum, Arg: &expr.Col{Idx: 0, T: row.TInt}, Out: row.TInt},
		{Kind: plan.AggSum, Arg: &expr.Col{Idx: 1, T: row.TFloat}, Out: row.TFloat},
		{Kind: plan.AggAvg, Arg: &expr.Col{Idx: 1, T: row.TFloat}, Out: row.TFloat},
		{Kind: plan.AggMin, Arg: &expr.Col{Idx: 0, T: row.TInt}, Out: row.TInt},
		{Kind: plan.AggMax, Arg: &expr.Col{Idx: 0, T: row.TInt}, Out: row.TInt},
		{Kind: plan.AggCountDistinct, Arg: &expr.Col{Idx: 0, T: row.TInt}, Out: row.TInt},
	}
}

func argFnsFor(specs []plan.AggSpec) []expr.EvalFn {
	fns := make([]expr.EvalFn, len(specs))
	for i, s := range specs {
		if s.Arg != nil {
			fns[i] = s.Arg.Eval
		}
	}
	return fns
}

func TestAggStateUpdateFinalize(t *testing.T) {
	specs := specAll()
	fns := argFnsFor(specs)
	st := newAggState(row.Row{"g"}, specs)
	for i := int64(1); i <= 4; i++ {
		st.update(specs, fns, row.Row{i, float64(i) * 2})
	}
	st.update(specs, fns, row.Row{int64(2), nil}) // duplicate + NULL float

	if st.finalize(0, specs[0]).(int64) != 5 {
		t.Errorf("count = %v", st.finalize(0, specs[0]))
	}
	if st.finalize(1, specs[1]).(int64) != 12 { // 1+2+3+4+2
		t.Errorf("sumI = %v", st.finalize(1, specs[1]))
	}
	if st.finalize(2, specs[2]).(float64) != 20 { // 2+4+6+8
		t.Errorf("sumF = %v", st.finalize(2, specs[2]))
	}
	if st.finalize(3, specs[3]).(float64) != 5 { // 20/4 non-null
		t.Errorf("avg = %v", st.finalize(3, specs[3]))
	}
	if st.finalize(4, specs[4]).(int64) != 1 || st.finalize(5, specs[5]).(int64) != 4 {
		t.Errorf("min/max = %v %v", st.finalize(4, specs[4]), st.finalize(5, specs[5]))
	}
	if st.finalize(6, specs[6]).(int64) != 4 { // distinct {1,2,3,4}
		t.Errorf("distinct = %v", st.finalize(6, specs[6]))
	}
}

func TestAggStateMergeDoesNotMutate(t *testing.T) {
	specs := specAll()
	fns := argFnsFor(specs)
	a := newAggState(row.Row{"g"}, specs)
	b := newAggState(row.Row{"g"}, specs)
	a.update(specs, fns, row.Row{int64(1), 1.0})
	b.update(specs, fns, row.Row{int64(2), 2.0})

	merged := a.merge(b, specs)
	// inputs unchanged (retried reduce tasks re-read them)
	if a.accs[0].count != 1 || b.accs[0].count != 1 {
		t.Fatal("merge mutated an input state")
	}
	if merged.finalize(0, specs[0]).(int64) != 2 {
		t.Errorf("merged count = %v", merged.finalize(0, specs[0]))
	}
	// merging twice must give identical results (idempotent inputs)
	again := a.merge(b, specs)
	if again.finalize(1, specs[1]).(int64) != merged.finalize(1, specs[1]).(int64) {
		t.Error("re-merge differs")
	}
}

func TestAggStateMergeAssociativeProperty(t *testing.T) {
	specs := specAll()
	fns := argFnsFor(specs)
	f := func(vals []int8) bool {
		if len(vals) < 3 {
			return true
		}
		mk := func(xs []int8) *aggState {
			st := newAggState(row.Row{"g"}, specs)
			for _, x := range xs {
				st.update(specs, fns, row.Row{int64(x), float64(x)})
			}
			return st
		}
		third := len(vals) / 3
		a, b, c := mk(vals[:third]), mk(vals[third:2*third]), mk(vals[2*third:])
		left := a.merge(b, specs).merge(c, specs)
		right := a.merge(b.merge(c, specs), specs)
		for i, s := range specs {
			lv, rv := left.finalize(i, s), right.finalize(i, s)
			if (lv == nil) != (rv == nil) {
				return false
			}
			if lv != nil && !row.Equal(lv, rv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAggStateDiskRoundTrip(t *testing.T) {
	specs := specAll()
	fns := argFnsFor(specs)
	st := newAggState(row.Row{"grp", int64(7)}, specs)
	for i := int64(0); i < 10; i++ {
		st.update(specs, fns, row.Row{i % 4, float64(i)})
	}
	tag, fields := st.MarshalShuffle()
	back := unmarshalAggState(fields).(*aggState)
	if tag != aggStateTag {
		t.Errorf("tag = %q", tag)
	}
	if len(back.groupVals) != 2 || back.groupVals[0].(string) != "grp" {
		t.Errorf("groupVals = %v", back.groupVals)
	}
	for i, s := range specs {
		a, b := st.finalize(i, s), back.finalize(i, s)
		if (a == nil) != (b == nil) || (a != nil && !row.Equal(a, b)) {
			t.Errorf("spec %d: %v != %v after round trip", i, b, a)
		}
	}
	// round-tripped states must still merge
	merged := back.merge(st, specs)
	if merged.finalize(0, specs[0]).(int64) != 20 {
		t.Errorf("merged count = %v", merged.finalize(0, specs[0]))
	}
}

// TestGroupKeyForms pins the shuffle keys the group table emits — the
// reduce side merges partial states on them, so every partial
// aggregator (and every engine version in one job) must agree.
func TestGroupKeyForms(t *testing.T) {
	g := newGroupTable(nil)
	key := func(i int) any { return g.pairs[i].(shuffle.Pair).K }
	vals := func(i int) row.Row { return g.pairs[i].(shuffle.Pair).V.(*aggState).groupVals }

	five := g.byValue(int64(5))
	if key(0).(int64) != 5 || vals(0)[0].(int64) != 5 {
		t.Errorf("single key = %v", key(0))
	}
	if g.byInt(5) != five || len(g.pairs) != 1 {
		t.Error("typed and boxed lookups of one key must find one group")
	}
	// nil single key distinct from empty-string key
	null, empty := g.byValue(nil), g.byValue("")
	if null == empty || key(1) == key(2) || vals(1)[0] != nil {
		t.Error("nil key must not collide with empty string")
	}
	if g.byString("") != empty || g.byNull() != null {
		t.Error("typed and boxed lookups of one key must find one group")
	}
	// int64(1), float64(1) and true are three groups, as in map[any].
	if g.byValue(int64(1)) == g.byValue(float64(1)) || g.byValue(true) == g.byValue(float64(1)) {
		t.Error("keys of different types must not collide")
	}

	g = newGroupTable(nil)
	var enc row.BinaryEncoder
	composite := func(r row.Row) *aggState {
		enc.Reset(len(r))
		for _, v := range r {
			enc.Value(v)
		}
		if st := g.composite(enc.Bytes()); st != nil {
			return st
		}
		return g.addComposite(enc.Bytes(), r)
	}
	a := composite(row.Row{int64(1), "a"})
	if composite(row.Row{int64(1), "b"}) == a {
		t.Error("composite keys must differ")
	}
	if composite(row.Row{int64(1), "a"}) != a {
		t.Error("composite keys must be stable")
	}
	if want := string(row.EncodeBinary(nil, row.Row{int64(1), "a"})); key(0) != want {
		t.Errorf("composite key = %q, want row.EncodeBinary's %q", key(0), want)
	}

	g = newGroupTable(nil)
	g.global()
	if key(0).(string) != "" || vals(0) != nil {
		t.Error("no group-by → constant key")
	}
}

func TestEstimateSideUDFBlindness(t *testing.T) {
	cat := &catalog.Table{Name: "t", Schema: row.Schema{{Name: "a", Type: row.TInt}}, EstRows: 1000}
	scanPlain := &plan.Scan{Table: cat, NeededCols: []int{0}}
	est0 := estimateSide(scanPlain)

	// simple predicate discounts the estimate
	scanFiltered := &plan.Scan{Table: cat, NeededCols: []int{0},
		Filters: []expr.Expr{&expr.Cmp{Op: expr.Gt, L: &expr.Col{Idx: 0, T: row.TInt}, R: expr.NewConst(int64(1))}}}
	if estimateSide(scanFiltered) >= est0 {
		t.Error("simple filter should discount the estimate")
	}

	// UDF predicate must NOT discount (static optimizer is blind)
	udf := &expr.UDF{Name: "F", Ret: row.TBool, MinArgs: 1, MaxArgs: 1, RetFromArg: -1,
		Fn: func(args []any) any { return true }}
	call, _ := expr.NewCall(udf, []expr.Expr{&expr.Col{Idx: 0, T: row.TInt}})
	scanUDF := &plan.Scan{Table: cat, NeededCols: []int{0}, Filters: []expr.Expr{call}}
	if estimateSide(scanUDF) != est0 {
		t.Errorf("UDF filter should not change estimate: %d vs %d", estimateSide(scanUDF), est0)
	}
}

func TestJoinBucketSwapPreservesColumnOrder(t *testing.T) {
	build := []shuffle.Pair{{K: int64(1), V: row.Row{"L", int64(1)}}}
	probe := []shuffle.Pair{{K: int64(1), V: row.Row{"R", 9.5}}}
	// build side is left
	out := joinBucket(nil, build, probe, false)
	r := out[0].(row.Row)
	if r[0].(string) != "L" || r[2].(string) != "R" {
		t.Errorf("unswapped order: %v", r)
	}
	// build side is right: output must still be left++right
	out = joinBucket(nil, probe, build, true)
	r = out[0].(row.Row)
	if r[0].(string) != "L" || r[2].(string) != "R" {
		t.Errorf("swapped order: %v", r)
	}
}

func TestJoinBucketNullKeysDropped(t *testing.T) {
	build := []shuffle.Pair{{K: nil, V: row.Row{"x"}}}
	probe := []shuffle.Pair{{K: nil, V: row.Row{"y"}}}
	if out := joinBucket(nil, build, probe, false); len(out) != 0 {
		t.Errorf("NULL keys must not join: %v", out)
	}
}
