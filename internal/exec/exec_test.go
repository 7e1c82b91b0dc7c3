package exec

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"shark/internal/catalog"
	"shark/internal/cluster"
	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/rdd"
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

// groupOf returns a table over specs (grouped by column 2 of the fed
// rows, a string) and the id of its group "g".
func groupOf(specs []plan.AggSpec) (*groupTable, int32) {
	g := newGroupTable(&plan.Aggregate{GroupBy: []expr.Expr{&expr.Col{Idx: 2, T: row.TString}}, Aggs: specs})
	return g, g.byValue("g")
}

// feed folds row r into group id, as the row path does.
func feed(g *groupTable, id int32, r row.Row) {
	sel, ids := []int32{0}, []int32{id}
	for k, s := range g.specs {
		if s.Arg == nil {
			g.accumulate(k, nil, sel, ids)
			continue
		}
		arg := columnar.Vec{Kind: columnar.VecAny, Anys: []any{s.Arg.Eval(r)}}
		g.accumulate(k, &arg, sel, ids)
	}
}

// results returns every aggregate of group id.
func results(g *groupTable, id int32) row.Row {
	out := make(row.Row, len(g.specs))
	for k := range g.specs {
		v := g.results(k)
		out[k] = v.At(id)
	}
	return out
}

// folded folds blocks into a fresh table over specs and returns the
// results of its one group.
func folded(specs []plan.AggSpec, blocks ...*block) row.Row {
	g, _ := groupOf(specs)
	for _, b := range blocks {
		g.fold(b)
	}
	return results(g, 0)
}

func TestAggStateUpdateFinalize(t *testing.T) {
	specs := specAll()
	g, id := groupOf(specs)
	for i := int64(1); i <= 4; i++ {
		feed(g, id, row.Row{i, float64(i) * 2})
	}
	feed(g, id, row.Row{int64(2), nil}) // duplicate + NULL float

	want := row.Row{
		int64(5),  // count
		int64(12), // sumI: 1+2+3+4+2
		20.0,      // sumF: 2+4+6+8
		5.0,       // avg: 20/4 non-null
		int64(1), int64(4),
		int64(4), // distinct {1,2,3,4}
	}
	if got := results(g, id); !reflect.DeepEqual(got, want) {
		t.Errorf("results = %v, want %v", got, want)
	}
	// An untouched group: COUNT 0, every other aggregate NULL but COUNT(DISTINCT)'s 0.
	empty := g.byValue("h")
	if got := results(g, empty); !reflect.DeepEqual(got, row.Row{int64(0), nil, nil, nil, nil, nil, int64(0)}) {
		t.Errorf("empty group = %v", got)
	}
}

// TestAggStateMergeDoesNotMutate: folding reads a block and never
// writes it — retried and speculative reduce tasks re-read the same
// blocks — so folding the same blocks twice gives the same answer.
func TestAggStateMergeDoesNotMutate(t *testing.T) {
	specs := specAll()
	a, ida := groupOf(specs)
	b, idb := groupOf(specs)
	feed(a, ida, row.Row{int64(1), 1.0})
	feed(b, idb, row.Row{int64(2), 2.0})
	before := [2]string{marshalled(&a.block), marshalled(&b.block)}

	merged := folded(specs, &a.block, &b.block)
	if after := [2]string{marshalled(&a.block), marshalled(&b.block)}; after != before {
		t.Fatal("fold mutated a block")
	}
	if merged[0].(int64) != 2 {
		t.Errorf("merged count = %v", merged[0])
	}
	if again := folded(specs, &a.block, &b.block); !reflect.DeepEqual(again, merged) {
		t.Errorf("re-fold differs: %v vs %v", again, merged)
	}
	// Speculative reduce tasks fold, and the spill tier marshals, the
	// same blocks at once (the race detector checks they only read).
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := folded(specs, &a.block, &b.block); !reflect.DeepEqual(got, merged) {
				t.Errorf("concurrent fold: %v, want %v", got, merged)
			}
			if marshalled(&a.block) != before[0] {
				t.Error("concurrent marshal changed a block")
			}
		}()
	}
	wg.Wait()
}

func marshalled(b *block) string {
	_, fields := b.MarshalShuffle()
	return string(row.EncodeBinary(nil, fields))
}

func TestAggStateMergeAssociativeProperty(t *testing.T) {
	specs := specAll()
	f := func(vals []int8) bool {
		if len(vals) < 3 {
			return true
		}
		mk := func(xs []int8) *block {
			g, id := groupOf(specs)
			for _, x := range xs {
				feed(g, id, row.Row{int64(x), float64(x)})
			}
			return &g.block
		}
		// (a ⊕ b) ⊕ c: a table's columns are a block, so a folded table
		// folds on.
		merge := func(x, y *block) *block {
			g, _ := groupOf(specs)
			g.fold(x)
			g.fold(y)
			return &g.block
		}
		third := len(vals) / 3
		a, b, c := mk(vals[:third]), mk(vals[third:2*third]), mk(vals[2*third:])
		left := folded(specs, merge(a, b), c)
		right := folded(specs, a, merge(b, c))
		return reflect.DeepEqual(left, right) && reflect.DeepEqual(left, folded(specs, mk(vals)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAggStateDiskRoundTrip(t *testing.T) {
	specs := specAll()
	agg := &plan.Aggregate{GroupBy: []expr.Expr{&expr.Col{Idx: 2, T: row.TString}, &expr.Col{Idx: 3, T: row.TInt}}, Aggs: specs}
	g := newGroupTable(agg)
	keys := []columnar.Vec{{Kind: columnar.VecAny, Anys: []any{nil}}, {Kind: columnar.VecAny, Anys: []any{nil}}}
	for i := int64(0); i < 10; i++ {
		r := row.Row{i % 4, float64(i), []any{"grp", nil, ""}[i%3], []any{int64(7), nil}[i%2]}
		keys[0].Anys[0], keys[1].Anys[0] = r[2], r[3]
		feed(g, g.byKeys(keys, 0), r)
	}
	tag, fields := g.MarshalShuffle()
	if tag != blockTag {
		t.Errorf("tag = %q", tag)
	}
	back, err := unmarshalBlock(fields)
	if err != nil {
		t.Fatal(err)
	}
	if back.n != g.n || marshalled(back) != marshalled(&g.block) {
		t.Fatalf("round trip changed the block:\n%v\n%v", fields, back)
	}
	for id := range int32(g.n) {
		for k := range g.cols {
			if a, b := g.cols[k].At(id), back.cols[k].At(id); a != b {
				t.Errorf("group %d key %d: %v != %v after round trip", id, k, b, a)
			}
		}
	}
	// Round-tripped blocks fold like the originals.
	again := newGroupTable(agg)
	again.fold(back)
	again.fold(&g.block)
	for id := range int32(g.n) {
		want := results(g, id)
		want[0] = 2 * want[0].(int64)
		if got := results(again, id); !reflect.DeepEqual(got[0], want[0]) || !reflect.DeepEqual(got[4:], want[4:]) {
			t.Errorf("group %d folded twice: %v, from %v", id, got, want)
		}
	}
	for _, bad := range []row.Row{
		nil,
		{int64(0), int64(0)},                 // no groups
		{int64(2), int64(0), ""},             // two groups without GROUP BY
		{int64(1 << 40), int64(1), "\x01"},   // more groups than bytes
		{int64(1), int64(2), ""},             // a missing key blob
		{int64(1), int64(0), int64(3)},       // a blob that is not a string
		{int64(1), int64(0), "\x00"},         // not three blobs per aggregate
		{int64(1), int64(0), "", "\x20", ""}, // a vector of an unknown kind
		{int64(1), int64(1), ""},             // an empty key blob
	} {
		if _, err := unmarshalBlock(bad); err == nil {
			t.Errorf("unmarshalBlock(%q) accepted", bad)
		}
	}
}

// TestGroupKeyForms pins how the group table finds groups: typed and
// boxed lookups of one key agree, NULL is a group of its own (not a
// string, not ""), keys of different types stay apart as in map[any],
// composite keys are their values' row.EncodeBinary — and a group's
// block lands in the bucket shuffle.HashPartitioner gives its key.
func TestGroupKeyForms(t *testing.T) {
	single := func() *groupTable {
		return newGroupTable(&plan.Aggregate{GroupBy: []expr.Expr{&expr.Col{Idx: 0, T: row.TInt}}})
	}
	g := single()
	five := g.byValue(int64(5))
	if byKey(g, &g.ints, int64(5)) != five || g.n != 1 || g.cols[0].At(five) != int64(5) {
		t.Error("typed and boxed lookups of one key must find one group")
	}
	null, empty := g.byValue(nil), g.byValue("")
	if null == empty || g.cols[0].At(null) != nil || g.cols[0].At(empty) != "" {
		t.Error("nil key must not collide with empty string")
	}
	if byKey(g, &g.strs, "") != empty || g.nullGroup() != null {
		t.Error("typed and boxed lookups of one key must find one group")
	}
	marker := g.byValue("\x00null\x00")
	if marker == null {
		t.Error("NULL must not be a string")
	}
	// int64(1), float64(1) and true are three groups, as in map[any].
	if g.byValue(int64(1)) == g.byValue(float64(1)) || g.byValue(true) == g.byValue(float64(1)) {
		t.Error("keys of different types must not collide")
	}

	// Every group goes to its key's HashPartitioner bucket.
	const n = 7
	for _, p := range g.blocks(n) {
		pair := p.(shuffle.Pair)
		b := pair.V.(*block)
		for i := range int32(b.n) {
			if want := (shuffle.HashPartitioner{N: n}).PartitionFor(b.cols[0].At(i)); int64(want) != pair.K.(int64) {
				t.Errorf("key %v in bucket %v, want %d", b.cols[0].At(i), pair.K, want)
			}
		}
	}

	g = newGroupTable(&plan.Aggregate{GroupBy: []expr.Expr{&expr.Col{Idx: 0, T: row.TInt}, &expr.Col{Idx: 1, T: row.TString}}})
	composite := func(r row.Row) int32 {
		keys := []columnar.Vec{{Kind: columnar.VecAny, Anys: r[:1]}, {Kind: columnar.VecAny, Anys: r[1:]}}
		return g.byKeys(keys, 0)
	}
	a := composite(row.Row{int64(1), "a"})
	if composite(row.Row{int64(1), "b"}) == a || composite(row.Row{nil, "a"}) == a {
		t.Error("composite keys must differ")
	}
	if composite(row.Row{int64(1), "a"}) != a || g.cols[0].At(a) != int64(1) || g.cols[1].At(a) != "a" {
		t.Error("composite keys must be stable")
	}
	if _, ok := g.keyed[string(row.EncodeBinary(nil, row.Row{int64(1), "a"}))]; !ok {
		t.Error("composite key is not row.EncodeBinary's")
	}
	for _, p := range g.blocks(n) {
		pair := p.(shuffle.Pair)
		b := pair.V.(*block)
		for i := range int32(b.n) {
			key := string(row.EncodeBinary(nil, row.Row{b.cols[0].At(i), b.cols[1].At(i)}))
			if want := (shuffle.HashPartitioner{N: n}).PartitionFor(key); int64(want) != pair.K.(int64) {
				t.Errorf("composite key %q in bucket %v, want %d", key, pair.K, want)
			}
		}
	}

	g = newGroupTable(&plan.Aggregate{})
	if g.nullGroup() != 0 || g.nullGroup() != 0 || g.n != 1 || len(g.blocks(n)) != 1 {
		t.Error("no group-by → one group")
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

// boxedCols returns r's values as one-slot boxed vectors.
func boxedCols(r row.Row) []columnar.Vec {
	vecs := make([]columnar.Vec, len(r))
	for c, v := range r {
		vecs[c] = columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: []any{v}}
	}
	return vecs
}

// rowBody is rows as a body of one window of boxed columns.
func rowBody(rows []row.Row, width int) *columnar.Body {
	vecs := make([]columnar.Vec, width)
	for c := range vecs {
		vecs[c] = columnar.Vec{Kind: columnar.VecAny, Mask: -1, Anys: make([]any, len(rows)), Owned: true}
		for i, r := range rows {
			vecs[c].Anys[i] = r[c]
		}
	}
	return &columnar.Body{Windows: []columnar.Window{{N: len(rows), Vecs: vecs}}, Len: len(rows)}
}

func TestJoinBucketSwapPreservesColumnOrder(t *testing.T) {
	left, right := row.Row{"L", int64(1)}, row.Row{"R", 9.5}
	one := []int32{0}
	for _, buildLeft := range []bool{true, false} {
		build, probe := left, right
		if !buildLeft {
			build, probe = right, left
		}
		blk := &block{}
		blk.add(&boxedCols(row.Row{int64(1)})[0], boxedCols(build), one)
		tbl := newJoinTable([]*block{blk}, buildLeft)
		// Whichever side built, the output is left++right.
		out := bodyOf(rdd.SliceIter(tbl.probe(nil, &boxedCols(row.Row{int64(1)})[0], one,
			func() []columnar.Vec { return boxedCols(probe) }))).Rows()
		if len(out) != 1 || out[0][0] != "L" || out[0][2] != "R" {
			t.Errorf("buildLeft=%v: %v", buildLeft, out)
		}
		// A NULL key is in no group, so it matches nothing.
		if out := tbl.probe(nil, &boxedCols(row.Row{nil})[0], one, nil); len(out) != 0 {
			t.Errorf("buildLeft=%v: a NULL key matched", buildLeft)
		}
	}
}

// TestJoinBucketNullKeysDropped: a NULL key equals nothing, itself
// included, so a shuffle join's map side drops the row before any
// bucket sees it.
func TestJoinBucketNullKeysDropped(t *testing.T) {
	cl := cluster.New(cluster.Config{Workers: 1, Slots: 1})
	defer cl.Close()
	ctx := rdd.NewContext(cl, shuffle.NewService(cl, shuffle.Memory, t.TempDir()), rdd.Options{})
	e := New(ctx, catalog.New(), nil, Options{})
	side := &joinSide{
		rdd:   e.bodyBatches(rowBody([]row.Row{{nil, "x"}, {int64(1), "y"}, {nil, "z"}}, 2), 2),
		key:   &expr.Col{Idx: 0, T: row.TInt},
		width: 2,
	}
	dep, st, err := e.preShuffle(context.Background(), side, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRecords != 1 {
		t.Errorf("%d rows shuffled, want the one non-NULL key", st.TotalRecords)
	}
	var blocks []*block
	for b := range dep.Partitioner.NumPartitions() {
		got, err := ctx.Shuffle.Fetch(dep.ID, b, ctx.Tracker().Locations(dep.ID))
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blocksOf(got)...)
	}
	// A map join's small side is one block per task, empty for a task
	// whose rows all had NULL keys.
	tbl := newJoinTable(append(blocks, &block{}), true)
	var out []any
	for _, b := range blocks {
		out = tbl.probe(out, &b.cols[0], upTo[int32](b.n), func() []columnar.Vec { return b.cols[1:] })
	}
	if rows := bodyOf(rdd.SliceIter(out)).Rows(); len(rows) != 1 {
		t.Errorf("self-join of the shuffled side: %v, want only key 1 with itself", rows)
	}
}
