package exec

import (
	"cmp"
	"hash/maphash"
	"strings"

	"shark/internal/columnar"
	"shark/internal/expr"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// groupTable is one task's groups of a hash aggregation: a map task's
// partial aggregate, or a reduce task folding the blocks it fetched.
// Groups are dense int32 ids, slots in the columns of the embedded
// block. A single int64 or string key is found through an index over
// the key column itself, another single key through map[any], and a
// composite key through its row.EncodeBinary bytes. NULL is a key's
// null bit, never a value. A map task's table copies the strings it
// keeps out of the batch; a reduce task's keeps its blocks' strings.
type groupTable struct {
	block
	specs  []plan.AggSpec
	ints   index            // int64 keys
	strs   index            // string keys
	keyed  map[string]int32 // composite keys
	others map[any]int32    // float64 and bool keys
	null   int32            // the NULL key's group (without GROUP BY, the one group); -1 until made
	borrow bool             // folding blocks: their strings are immutable and need no copy
	enc    row.BinaryEncoder
	sel    []int32 // 0, 1, 2, …: every row of a block being folded
	ids    []int32 // the table's group of each of those rows
}

func newGroupTable(a *plan.Aggregate) *groupTable {
	g := &groupTable{specs: a.Aggs, null: -1}
	g.cols = make([]columnar.Vec, len(a.GroupBy))
	for k, x := range a.GroupBy {
		g.cols[k] = slotsFor(x.Type())
	}
	g.accs = make([]accum, len(a.Aggs))
	for k, s := range a.Aggs {
		g.accs[k].val = slotsFor(s.Out)
	}
	return g
}

// newGroup makes a group: NULL keys, empty accumulators.
func (g *groupTable) newGroup() int32 {
	for k := range g.cols {
		grow(&g.cols[k], g.n)
	}
	for k, s := range g.specs {
		g.accs[k].grow(s, g.n)
	}
	g.n++
	return int32(g.n - 1)
}

// nullGroup is the group of the NULL key — and, without GROUP BY, the
// one group.
func (g *groupTable) nullGroup() int32 {
	if g.null < 0 {
		g.null = g.newGroup()
	}
	return g.null
}

var indexSeed = maphash.MakeSeed()

// byKey finds or makes the group of a single int64 or string key.
func byKey[T int64 | string](g *groupTable, x *index, key T) int32 {
	col := &g.cols[0]
	id, slot := x.lookup(maphash.Comparable(indexSeed, key), func(id int32) bool { return at[T](col, id) == key })
	if id < 0 {
		id = g.newGroup()
		put(g, col, id, key)
		x.add(slot, id, func(id int32) uint64 { return maphash.Comparable(indexSeed, at[T](col, id)) })
	}
	return id
}

// find returns the group of v's value at window position i, or -1: a
// join's probe, which makes no group. NULL is in no group it finds.
func (g *groupTable) find(v *columnar.Vec, i int32) int32 {
	switch {
	case v.Kind == columnar.VecAny:
		return g.findValue(v.Anys[i])
	case v.Nulls.Has(int(i)):
		return -1
	case v.Kind == columnar.VecInt:
		return findKey(g, &g.ints, v.Ints[i&v.Mask])
	case v.Kind == columnar.VecStr:
		return findKey(g, &g.strs, v.Strs[i&v.Mask])
	}
	return g.findValue(v.Floats[i&v.Mask])
}

func (g *groupTable) findValue(x any) int32 {
	switch x := x.(type) {
	case nil:
		return -1
	case int64:
		return findKey(g, &g.ints, x)
	case string:
		return findKey(g, &g.strs, x)
	}
	if id, ok := g.others[x]; ok {
		return id
	}
	return -1
}

func findKey[T int64 | string](g *groupTable, x *index, key T) int32 {
	if x.slots == nil {
		return -1
	}
	col := &g.cols[0]
	id, _ := x.lookup(maphash.Comparable(indexSeed, key), func(id int32) bool { return at[T](col, id) == key })
	return id
}

// index finds a group from the hash of its key: open addressing over
// slots holding a group id + 1 (0: empty), at most half full. It keeps
// no keys, so a group costs it 8 to 16 bytes, a third of a map entry.
type index struct {
	slots []int32
	n     int
}

// lookup returns the group whose key hashes to h and is the one sought,
// or -1 and the empty slot where its probe ended.
func (x *index) lookup(h uint64, is func(id int32) bool) (int32, int) {
	if x.slots == nil {
		x.slots = make([]int32, 8)
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if id := x.slots[i] - 1; id < 0 || is(id) {
			return id, int(i)
		}
	}
}

// add puts group id in slot (where its lookup ended), doubling the
// slots once they are half full; hash rehashes a group's key.
func (x *index) add(slot int, id int32, hash func(id int32) uint64) {
	x.slots[slot] = id + 1
	if x.n++; 2*x.n > len(x.slots) {
		x.reserve(x.n, hash)
	}
}

// reserve doubles the slots until n groups fill at most half of them.
func (x *index) reserve(n int, hash func(id int32) uint64) {
	size := max(len(x.slots), 8)
	for size < 2*n {
		size *= 2
	}
	if size == len(x.slots) {
		return
	}
	old := x.slots
	x.slots = make([]int32, size)
	for _, s := range old {
		if s != 0 {
			_, slot := x.lookup(hash(s-1), func(int32) bool { return false })
			x.slots[slot] = s
		}
	}
}

// byValue resolves a single boxed key of any type.
func (g *groupTable) byValue(v any) int32 {
	switch x := v.(type) {
	case nil:
		return g.nullGroup()
	case int64:
		return byKey(g, &g.ints, x)
	case string:
		return byKey(g, &g.strs, x)
	}
	if id, ok := g.others[v]; ok {
		return id
	}
	id := g.newGroup()
	g.set(&g.cols[0], id, v)
	return insert(&g.others, v, id)
}

// byKeys resolves a composite key: the key vectors' values at window
// position i.
func (g *groupTable) byKeys(keys []columnar.Vec, i int32) int32 {
	g.enc.Reset(len(keys))
	for k := range keys {
		g.enc.Value(keys[k].At(i))
	}
	key := g.enc.Bytes()
	if id, ok := g.keyed[string(key)]; ok {
		return id
	}
	id := g.newGroup()
	for k := range keys {
		if x := keys[k].At(i); x != nil {
			g.set(&g.cols[k], id, x)
		}
	}
	return insert(&g.keyed, string(key), id)
}

func insert[K comparable](m *map[K]int32, k K, id int32) int32 {
	if *m == nil {
		*m = make(map[K]int32)
	}
	(*m)[k] = id
	return id
}

// resolve sets ids[j] to the group of the key vectors' values at window
// position sel[j], making a group for each new key.
func (g *groupTable) resolve(keys []columnar.Vec, sel, ids []int32) {
	switch len(keys) {
	case 0:
		id := g.nullGroup()
		for j := range sel {
			ids[j] = id
		}
	case 1:
		switch v := &keys[0]; v.Kind {
		case columnar.VecInt:
			resolveKeys(g, &g.ints, sel, v.Ints, v.Mask, v.Nulls, ids)
		case columnar.VecStr:
			resolveKeys(g, &g.strs, sel, v.Strs, v.Mask, v.Nulls, ids)
		default:
			for j, i := range sel {
				ids[j] = g.byValue(v.At(i))
			}
		}
	default:
		for j, i := range sel {
			ids[j] = g.byKeys(keys, i)
		}
	}
}

// resolveKeys resolves a typed single-column key through its index.
// Clustered data repeats its key, so the last group is remembered and
// most rows never reach the index.
func resolveKeys[T int64 | string](g *groupTable, x *index, sel []int32, keys []T, mask int32, nulls columnar.Bitmap, ids []int32) {
	last := int32(-1)
	var lastKey T
	for j, i := range sel {
		switch k := keys[i&mask]; {
		case nulls.Has(int(i)):
			ids[j] = g.nullGroup()
		case last >= 0 && k == lastKey:
			ids[j] = last
		default:
			last, lastKey = byKey(g, x, k), k
			ids[j] = last
		}
	}
}

// accumulate folds aggregate k's argument (nil for COUNT(*)) at window
// positions sel into groups ids, ignoring NULL.
func (g *groupTable) accumulate(k int, arg *columnar.Vec, sel, ids []int32) {
	a, kind := &g.accs[k], g.specs[k].Kind
	switch {
	case arg == nil:
		for j := range sel {
			a.count[ids[j]]++
		}
	case arg.Kind == columnar.VecInt:
		addAll(g, k, sel, ids, arg.Ints, arg.Mask, arg.Nulls)
	case arg.Kind == columnar.VecFloat && a.val.Kind == columnar.VecFloat && (kind == plan.AggSum || kind == plan.AggAvg): // the hot loop
		for j, i := range sel {
			if !arg.Nulls.Has(int(i)) {
				a.val.Floats[ids[j]] += arg.Floats[i&arg.Mask]
				valid(&a.val, ids[j])
				if a.count != nil {
					a.count[ids[j]]++
				}
			}
		}
	case arg.Kind == columnar.VecFloat:
		addAll(g, k, sel, ids, arg.Floats, arg.Mask, arg.Nulls)
	case arg.Kind == columnar.VecStr:
		addAll(g, k, sel, ids, arg.Strs, arg.Mask, arg.Nulls)
	default:
		for j, i := range sel {
			if x := arg.Anys[i]; x != nil {
				g.addAny(k, ids[j], x)
			}
		}
	}
}

func addAll[T int64 | float64 | string](g *groupTable, k int, sel, ids []int32, xs []T, mask int32, nulls columnar.Bitmap) {
	for j, i := range sel {
		if !nulls.Has(int(i)) {
			add(g, k, ids[j], xs[i&mask])
		}
	}
}

// add folds a non-NULL value of aggregate k into group id.
func add[T int64 | float64 | string](g *groupTable, k int, id int32, x T) {
	a, kind := &g.accs[k], g.specs[k].Kind
	switch kind {
	case plan.AggMin, plan.AggMax:
		if cur := slots[T](&a.val); cur == nil {
			g.keep(k, id, x)
		} else if a.val.Nulls.Has(int(id)) || better(x, (*cur)[id], kind == plan.AggMax) {
			put(g, &a.val, id, x)
		}
	case plan.AggCountDistinct:
		if _, seen := a.distinct[id][x]; !seen {
			a.note(id, own(g, x))
		}
	case plan.AggSum, plan.AggAvg:
		switch x := any(x).(type) {
		case int64:
			if a.val.Kind == columnar.VecInt {
				a.val.Ints[id] += x
			} else {
				a.val.Floats[id] += float64(x)
			}
		case float64:
			if a.val.Kind == columnar.VecFloat {
				a.val.Floats[id] += x
			}
		}
		valid(&a.val, id)
		fallthrough
	default:
		if a.count != nil {
			a.count[id]++
		}
	}
}

// addAny is add for a boxed value.
func (g *groupTable) addAny(k int, id int32, x any) {
	switch x := x.(type) {
	case int64:
		add(g, k, id, x)
	case float64:
		add(g, k, id, x)
	case string:
		add(g, k, id, x)
	default: // a bool
		switch a, kind := &g.accs[k], g.specs[k].Kind; kind {
		case plan.AggMin, plan.AggMax:
			g.keep(k, id, x)
		case plan.AggCountDistinct:
			a.note(id, x)
		case plan.AggCount:
			a.count[id]++
		}
	}
}

func (a *accum) note(id int32, x any) {
	if a.distinct[id] == nil {
		a.distinct[id] = make(map[any]struct{})
	}
	a.distinct[id][x] = struct{}{}
}

// keep is add's MIN and MAX for a value of another type than the kept.
func (g *groupTable) keep(k int, id int32, x any) {
	v, max := &g.accs[k].val, g.specs[k].Kind == plan.AggMax
	if cur := v.At(id); cur == nil || better(row.Compare(x, cur), 0, max) {
		g.set(v, id, x)
	}
}

func better[T cmp.Ordered](x, cur T, max bool) bool {
	if max {
		return x > cur
	}
	return x < cur
}

// put stores non-NULL x in slot i of v, boxing v if x is of another type.
func put[T int64 | float64 | string](g *groupTable, v *columnar.Vec, i int32, x T) {
	x = own(g, x)
	if xs := slots[T](v); xs != nil {
		(*xs)[i] = x
	} else {
		box(v, g.n)
		v.Anys[i] = x
	}
	valid(v, i)
}

// set is put for a boxed value.
func (g *groupTable) set(v *columnar.Vec, i int32, x any) {
	switch x := x.(type) {
	case int64:
		put(g, v, i, x)
	case float64:
		put(g, v, i, x)
	case string:
		put(g, v, i, x)
	default:
		box(v, g.n)
		v.Anys[i] = x
		valid(v, i)
	}
}

// own returns x as the table may keep it.
func own[T int64 | float64 | string](g *groupTable, x T) T {
	if s, ok := any(x).(string); ok && !g.borrow {
		return any(strings.Clone(s)).(T)
	}
	return x
}

// reserve makes room for n groups in the table's vectors and in the
// index of its key column's kind.
func (g *groupTable) reserve(n int) {
	for k := range g.cols {
		reserve(&g.cols[k], n)
	}
	for k, s := range g.specs {
		a := &g.accs[k]
		if s.Kind == plan.AggCount || s.Kind == plan.AggAvg {
			a.count = room(a.count, n)
		}
		if s.Kind == plan.AggCountDistinct {
			a.distinct = room(a.distinct, n)
		} else if s.Kind != plan.AggCount {
			reserve(&a.val, n)
		}
	}
	if col := g.cols; len(col) == 1 && col[0].Kind == columnar.VecInt {
		g.ints.reserve(n, func(id int32) uint64 { return maphash.Comparable(indexSeed, col[0].Ints[id]) })
	} else if len(col) == 1 && col[0].Kind == columnar.VecStr {
		g.strs.reserve(n, func(id int32) uint64 { return maphash.Comparable(indexSeed, col[0].Strs[id]) })
	}
}

// reduce folds a reduce task's blocks, fetched bucket by bucket, into a
// table of its own; records is the rows PDE counted in its buckets.
// Fixed-seed hashing spreads groups evenly over buckets, so once the
// first bucket is in, the table makes room for as many groups per
// record as it had, over every record; past that it doubles.
func reduce(a *plan.Aggregate, in rdd.Iter, records int64) *groupTable {
	g := newGroupTable(a)
	g.borrow = true
	var first any
	var rows int64 // the first bucket's
	for v, ok := in.Next(); ok; v, ok = in.Next() {
		p := v.(shuffle.Pair)
		switch {
		case first == nil || p.K == first:
			first, rows = p.K, rows+p.V.(*block).Records()
		case rows > 0:
			g.reserve(int(int64(g.n) * records / rows))
			rows = 0
		}
		g.fold(p.V.(*block))
	}
	return g
}

// fold adds a block's groups into the table, a column at a time, and
// only reads the block. Blocks are folded in fetch order — bucket, then
// map partition — so a float sum is the same from run to run.
func (g *groupTable) fold(b *block) {
	for len(g.sel) < b.n {
		g.sel = append(g.sel, int32(len(g.sel)))
	}
	if cap(g.ids) < b.n {
		g.ids = make([]int32, b.n)
	}
	sel, ids := g.sel[:b.n], g.ids[:b.n]
	g.resolve(b.cols, sel, ids)
	for k, s := range g.specs {
		a, x := &g.accs[k], &b.accs[k]
		switch s.Kind {
		case plan.AggCountDistinct:
			for r, set := range x.distinct {
				for m := range set {
					g.addAny(k, ids[r], m)
				}
			}
		case plan.AggAvg:
			addInto(a.count, x.count, ids)
			addInto(a.val.Floats, x.val.Floats, ids)
		case plan.AggCount:
			addInto(a.count, x.count, ids)
		default: // SUM, MIN, MAX: the block's values fold in as arguments
			g.accumulate(k, &x.val, sel, ids)
		}
	}
}

func addInto[T int64 | float64](dst, src []T, ids []int32) {
	for r, x := range src {
		dst[ids[r]] += x
	}
}

// batch returns the groups as a batch of vectors: the key columns,
// then each aggregate's results. Its strings are the table's own.
func (g *groupTable) batch() *columnar.Batch {
	vecs := make([]columnar.Vec, 0, len(g.cols)+len(g.specs))
	vecs = append(vecs, g.cols...)
	for k := range g.specs {
		vecs = append(vecs, g.results(k))
	}
	for k := range vecs {
		vecs[k].Owned = true
	}
	return columnar.VecBatch(g.n, vecs)
}

// results is aggregate k's value for every group.
func (g *groupTable) results(k int) columnar.Vec {
	out := columnar.Vec{Kind: columnar.VecInt, Mask: -1}
	switch a, s := &g.accs[k], g.specs[k]; s.Kind {
	case plan.AggCount:
		out.Ints = a.count
	case plan.AggCountDistinct:
		out.Ints = make([]int64, g.n)
		for i, set := range a.distinct {
			out.Ints[i] = int64(len(set))
		}
	case plan.AggAvg:
		out.Kind, out.Floats = columnar.VecFloat, make([]float64, g.n)
		for i, n := range a.count {
			if n == 0 {
				if out.Nulls == nil {
					out.Nulls = make(columnar.Bitmap, (g.n+63)/64)
				}
				out.Nulls.Set(i)
			} else {
				out.Floats[i] = a.val.Floats[i] / float64(n)
			}
		}
	default:
		return a.val
	}
	return out
}

// blocks cuts the table into one block per non-empty bucket of n, a
// shuffle pair keyed by bucket. A key goes where
// shuffle.HashPartitioner{N: n} sends it, hashed unboxed.
func (g *groupTable) blocks(n int) []any {
	bucket := make([]int32, g.n) // without GROUP BY, the one group goes to bucket 0
	if len(g.cols) == 1 {
		for id := range int32(g.n) {
			bucket[id] = int32(hashAt(&g.cols[0], id) % uint64(n))
		}
	}
	for k, id := range g.keyed {
		bucket[id] = int32(row.HashString(k) % uint64(n))
	}
	return g.block.cut(bucket, n)
}

// cut returns b's rows as one block per non-empty bucket of n, each a
// shuffle pair keyed by its bucket; row i goes to bucket[i]. b is
// sorted by bucket in place, stably, and a block is a view of its rows,
// capped at its last so that no append reaches its neighbour's; only
// NULL bitmaps, which cannot be sliced at a row, are copied.
func (b *block) cut(bucket []int32, n int) []any {
	// A counting sort by bucket: bucket k's rows are order[start[k]:start[k+1]].
	start := make([]int32, n+1)
	for _, k := range bucket {
		start[k+1]++
	}
	for k := range n {
		start[k+1] += start[k]
	}
	order, next := make([]int32, b.n), append([]int32(nil), start[:n]...)
	for i, k := range bucket {
		order[next[k]] = int32(i)
		next[k]++
	}
	live := 0
	for k := range n {
		if start[k+1] > start[k] {
			live++
		}
	}
	if live == 1 { // the one bucket: b is the block
		return []any{shuffle.Pair{K: int64(bucket[0]), V: b}}
	}
	// Position p takes row order[p]: each cycle of order is followed
	// from its first position, once per vector.
	var leads []int32
	seen := make(columnar.Bitmap, (b.n+63)/64)
	for p, q := range order {
		if q != int32(p) && !seen.Has(p) {
			leads = append(leads, int32(p))
			for ; q != int32(p); q = order[q] {
				seen.Set(int(q))
			}
		}
	}
	arrange := func(v *columnar.Vec) {
		permute(v.Ints, order, leads)
		permute(v.Floats, order, leads)
		permute(v.Strs, order, leads)
		permute(v.Anys, order, leads)
		permute(v.Codes, order, leads)
	}
	for k := range b.cols {
		arrange(&b.cols[k])
	}
	for k := range b.accs {
		permute(b.accs[k].count, order, leads)
		arrange(&b.accs[k].val)
		permute(b.accs[k].distinct, order, leads)
	}
	// The blocks, and their column and accumulator slices, come from
	// one allocation each.
	nc, na := len(b.cols), len(b.accs)
	blocks, cols, accs := make([]block, live), make([]columnar.Vec, live*nc), make([]accum, live*na)
	out := make([]any, 0, live)
	for k := range n {
		if lo, hi := start[k], start[k+1]; hi > lo {
			i := len(out)
			blk := &blocks[i]
			blk.n, blk.cols, blk.accs = int(hi-lo), cols[i*nc:(i+1)*nc:(i+1)*nc], accs[i*na:(i+1)*na:(i+1)*na]
			rows := order[lo:hi]
			for c := range b.cols {
				blk.cols[c] = view(&b.cols[c], lo, hi, rows)
			}
			for c, a := range b.accs {
				blk.accs[c] = accum{part(a.count, lo, hi), view(&a.val, lo, hi, rows), part(a.distinct, lo, hi)}
			}
			out = append(out, shuffle.Pair{K: int64(k), V: blk})
		}
	}
	return out
}

// permute moves xs[order[p]] to xs[p] for every p, following each cycle
// of order from its lead.
func permute[T any](xs []T, order, leads []int32) {
	if xs == nil {
		return
	}
	for _, p := range leads {
		x, q := xs[p], p
		for r := order[q]; r != p; q, r = r, order[r] {
			xs[q] = xs[r]
		}
		xs[q] = x
	}
}

// view is slots [lo, hi) of v, once sorted, as a vector: its NULL bits,
// those of v's rows before the sort, are a bitmap of its own.
func view(v *columnar.Vec, lo, hi int32, rows []int32) columnar.Vec {
	return columnar.Vec{Kind: v.Kind, Mask: -1, Owned: v.Owned, Dict: v.Dict, Nulls: v.Nulls.Gather(rows), Ints: part(v.Ints, lo, hi),
		Floats: part(v.Floats, lo, hi), Strs: part(v.Strs, lo, hi), Anys: part(v.Anys, lo, hi), Codes: part(v.Codes, lo, hi)}
}

// part is xs[lo:hi], capped at hi (nil for nil).
func part[T any](xs []T, lo, hi int32) []T {
	if xs == nil {
		return nil
	}
	return xs[lo:hi:hi]
}

// hashAt is row.Hash of v's value at i, hashed unboxed where v is typed.
func hashAt(v *columnar.Vec, i int32) uint64 {
	switch {
	case v.Kind == columnar.VecAny:
		return row.Hash(v.Anys[i])
	case v.Nulls.Has(int(i)):
		return row.Hash(nil)
	case v.Kind == columnar.VecInt:
		return row.HashInt(v.Ints[i&v.Mask])
	case v.Kind == columnar.VecFloat:
		return row.HashFloat(v.Floats[i&v.Mask])
	}
	return row.HashString(v.Strs[i&v.Mask])
}

// ---------------------------------------------------------------------------
// Partial aggregation over column batches

// partialAggregate runs the map side of a over the task's batches,
// reading keys and arguments as typed vectors wherever they have
// kernels: resolve finds each window's groups, then every aggregate
// folds in its argument, in row order. It returns the blocks for
// buckets shuffle buckets.
func (t *scanTask) partialAggregate(a *plan.Aggregate, src *selSource, buckets int) []any {
	g := newGroupTable(a)
	var resolve func(sel, ids []int32)
	args := make([]valFn, len(g.specs))
	src.bind = func() {
		if resolve = t.bindDictGroups(a.GroupBy, g); resolve == nil {
			resolve = g.resolver(a.GroupBy, t.bindValue)
		}
		for k, s := range g.specs {
			if s.Arg != nil {
				args[k] = t.bindValue(s.Arg)
			}
		}
	}
	var ids []int32 // ids[j]: the group of the window's j-th selected row
	for sel, ok := src.next(); ok; sel, ok = src.next() {
		if len(sel) == 0 {
			continue
		}
		if cap(ids) < len(sel) {
			ids = make([]int32, len(sel))
		}
		ids = ids[:len(sel)]
		resolve(sel, ids)
		for k, arg := range args {
			if arg == nil {
				g.accumulate(k, nil, sel, ids)
			} else {
				v := arg(sel)
				g.accumulate(k, &v, sel, ids)
			}
		}
	}
	// Global aggregation must produce a row even over empty input
	// (COUNT(*) = 0, SUM = NULL), so make its group regardless.
	if len(g.cols) == 0 {
		g.nullGroup()
	}
	return g.blocks(buckets)
}

// resolver binds GROUP BY to a function filling ids[j] with the group
// of row sel[j].
func (g *groupTable) resolver(groupBy []expr.Expr, bind func(expr.Expr) valFn) func(sel, ids []int32) {
	keys := make([]valFn, len(groupBy))
	for k, x := range groupBy {
		keys[k] = bind(x)
	}
	vecs := make([]columnar.Vec, len(keys))
	return func(sel, ids []int32) {
		for k, key := range keys {
			vecs[k] = key(sel)
		}
		g.resolve(vecs, sel, ids)
	}
}

// bindDictGroups resolves a single dictionary-encoded group column
// through a code-indexed table: no hashing at all. Nil unless groupBy
// is a bare reference to a column this partition dictionary-encoded.
func (t *scanTask) bindDictGroups(groupBy []expr.Expr, g *groupTable) func(sel, ids []int32) {
	if len(groupBy) != 1 || t.interpret() {
		return nil
	}
	col, ok := groupBy[0].(*expr.Col)
	if !ok {
		return nil
	}
	c := t.cols[col.Idx]
	d := t.b.Dict(c)
	if d == nil {
		return nil
	}
	byCode := make([]int32, d.DictLen()) // a code's group id + 1; 0 until met
	return func(sel, ids []int32) {
		codes, nulls := t.b.Codes(c), t.b.Nulls(c)
		for j, i := range sel {
			if nulls.Has(int(i)) {
				ids[j] = g.nullGroup()
				continue
			}
			code := codes[i]
			if byCode[code] == 0 {
				byCode[code] = g.byValue(d.DictValue(int(code))) + 1
			}
			ids[j] = byCode[code] - 1
		}
	}
}
