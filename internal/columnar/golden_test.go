package columnar

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"shark/internal/row"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encodings.golden")

const goldenPath = "testdata/encodings.golden"

// goldenCase is one seeded single-column partition of the golden file.
type goldenCase struct {
	name string
	typ  row.Type
	vals []any
}

var goldenTypes = []row.Type{row.TInt, row.TDate, row.TFloat, row.TString, row.TBool}

// goldenCases covers every encoding decision's boundary: row counts
// around the 64-row bitmap words and the 1024-row batch, distinct
// counts around the 256-entry dictionary cap and the n ≥ 2d / n ≥ 4d
// rules, average runs around the RLE cut-over, int ranges around 2^32
// and the bit-packing halving rule, the float and int extremes, and
// NULL densities none / sparse / all.
func goldenCases() []goldenCase {
	rng := rand.New(rand.NewSource(26))
	var cs []goldenCase
	add := func(name string, typ row.Type, n int, gen func(i int) any) {
		vals := make([]any, n)
		for i := range vals {
			vals[i] = gen(i)
		}
		cs = append(cs, goldenCase{fmt.Sprintf("%s/%v/n=%d", name, typ, n), typ, vals})
	}
	wide := func(typ row.Type) func(int) any {
		return func(int) any {
			switch typ {
			case row.TFloat:
				return rng.NormFloat64()
			case row.TString:
				return fmt.Sprintf("s%x", rng.Int63())
			case row.TBool:
				return rng.Intn(2) == 0
			}
			return rng.Int63() - rng.Int63()
		}
	}
	// of maps a small integer onto the type, distinct k to distinct values.
	of := func(typ row.Type, k int) any {
		switch typ {
		case row.TFloat:
			return float64(k) / 4
		case row.TString:
			return fmt.Sprintf("k%03d", k)
		case row.TBool:
			return k%2 == 1
		}
		return int64(k) * 1000003
	}
	sparse := func(gen func(int) any) func(int) any {
		return func(i int) any {
			if rng.Intn(8) == 0 {
				return nil
			}
			return gen(i)
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 1023, 1024, 1025, 8000} {
		for _, typ := range goldenTypes {
			add("wide", typ, n, wide(typ))
			add("enum7", typ, n, func(int) any { return of(typ, rng.Intn(7)) })
			add("sparse", typ, n, sparse(wide(typ)))
			add("sparse-enum", typ, n, sparse(func(int) any { return of(typ, rng.Intn(5)) }))
			add("all-null", typ, n, func(int) any { return nil })
			add("runs4", typ, n, func(i int) any { return of(typ, i/4) })
		}
	}
	for _, typ := range []row.Type{row.TInt, row.TString, row.TFloat} {
		for _, d := range []int{255, 256, 257} {
			add(fmt.Sprintf("cycle%d", d), typ, 1100, func(i int) any { return of(typ, i%d) })
			add(fmt.Sprintf("cycle%d-nulls", d), typ, 1100, func(i int) any {
				if i%9 == 4 {
					return nil
				}
				return of(typ, i%d)
			})
		}
		// n ≥ 2d (strings) and n ≥ 4d (ints), one row either side.
		for _, n := range []int{199, 200, 399, 400} {
			add("cycle100", typ, n, func(i int) any { return of(typ, i%100) })
		}
		for _, run := range []int{3, 4, 5} {
			for _, n := range []int{999, 1000} {
				add(fmt.Sprintf("run%d", run), typ, n, func(i int) any { return of(typ, i/run) })
			}
		}
	}
	// Int ranges: exactly 2^31-1, 2^31, 2^32-1 and 2^32 wide.
	for _, typ := range []row.Type{row.TInt, row.TDate} {
		for _, span := range []uint64{1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32} {
			for _, n := range []int{3, 100} {
				base := int64(-1) << 40
				add(fmt.Sprintf("span%d", span), typ, n, func(i int) any {
					return base + int64(span*uint64(i)/uint64(n-1))
				})
			}
		}
		for _, w := range []int{1, 7, 8, 31, 32, 33} {
			add(fmt.Sprintf("width%d", w), typ, 777, func(i int) any {
				return int64(1000) + rng.Int63n(int64(1)<<w)
			})
		}
	}
	ints := []any{int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(-1), int64(1)}
	add("extremes", row.TInt, 64, func(i int) any { return ints[i%len(ints)] })
	add("extremes-runs", row.TInt, 64, func(i int) any { return ints[i/16%len(ints)] })
	add("zero-nulls", row.TInt, 64, func(i int) any {
		if i%3 == 0 {
			return nil
		}
		return int64(0)
	})
	floats := []any{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.0, 1.5}
	add("specials", row.TFloat, 66, func(i int) any { return floats[i%len(floats)] })
	add("nan-first", row.TFloat, 100, func(i int) any {
		if i == 0 {
			return math.NaN()
		}
		return float64(i)
	})
	add("nan-runs", row.TFloat, 100, func(i int) any { return floats[i/20%len(floats)] })
	add("zero-then-negzero", row.TFloat, 10, func(i int) any {
		if i < 5 {
			return 0.0
		}
		return math.Copysign(0, -1)
	})
	add("negzero-then-zero", row.TFloat, 10, func(i int) any {
		if i < 5 {
			return math.Copysign(0, -1)
		}
		return 0.0
	})
	texts := []any{"", "|", `\`, "\n", `\N`, "a|b\\c\nd", "\x00\xff"}
	add("texts", row.TString, 70, func(i int) any { return texts[i%len(texts)] })
	add("texts-nulls", row.TString, 70, func(i int) any {
		if i%4 == 0 {
			return nil
		}
		return texts[i%len(texts)]
	})
	add("true", row.TBool, 130, func(int) any { return true })
	add("false-nulls", row.TBool, 130, func(i int) any {
		if i%2 == 0 {
			return nil
		}
		return false
	})
	return cs
}

// goldenValue renders one value exactly: floats by bits, so -0, NaN
// payloads and ±Inf are told apart.
func goldenValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		return fmt.Sprintf("f%016x", math.Float64bits(x))
	case string:
		return strconv.Quote(x)
	}
	return fmt.Sprint(v)
}

// describeGolden renders what the golden file pins for one column:
// encoding, footprint, statistics (distinct as a count and a hash of
// the sorted set) and a hash of every cell.
func describeGolden(name string, p *Partition) string {
	col, st := p.Cols[0], p.Stats[0]
	h := fnv.New64a()
	for i := 0; i < p.N; i++ {
		fmt.Fprintf(h, "%s;", goldenValue(col.Get(i)))
	}
	distinct := "untracked"
	if st.Distinct != nil {
		vals := make([]string, len(st.Distinct))
		for i, v := range st.Distinct {
			vals[i] = goldenValue(v)
		}
		sort.Strings(vals)
		dh := fnv.New64a()
		fmt.Fprint(dh, strings.Join(vals, ";"))
		distinct = fmt.Sprintf("%d:%016x", len(vals), dh.Sum64())
	}
	return fmt.Sprintf("%s enc=%s size=%d min=%s max=%s nulls=%d distinct=%s cells=%016x",
		name, col.Encoding(), col.SizeBytes(), goldenValue(st.Min), goldenValue(st.Max),
		st.NullCount, distinct, h.Sum64())
}

func buildGolden(t *testing.T, c goldenCase) *Partition {
	t.Helper()
	b := NewBuilder(row.Schema{{Name: "v", Type: c.typ}})
	for _, v := range c.vals {
		if err := b.Append(row.Row{v}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	return b.Seal()
}

// buildTyped builds the case through the typed appenders.
func buildTyped(c goldenCase) *Partition {
	b := NewBuilder(row.Schema{{Name: "v", Type: c.typ}})
	b.Grow(len(c.vals))
	for _, v := range c.vals {
		switch x := v.(type) {
		case nil:
			b.AppendNull(0)
		case int64:
			b.AppendInt(0, x)
		case float64:
			b.AppendFloat(0, x)
		case string:
			b.AppendString(0, []byte(x))
		case bool:
			b.AppendBool(0, x)
		}
		b.EndRow()
	}
	return b.Seal()
}

// buildText builds the case from its text encoding, tokenized straight
// into the builder.
func buildText(t *testing.T, c goldenCase) *Partition {
	t.Helper()
	schema := row.Schema{{Name: "v", Type: c.typ}}
	b := NewBuilder(schema)
	tok := row.NewTextTokenizer(schema, []int{0})
	var line []byte
	for _, v := range c.vals {
		line = row.EncodeText(line[:0], row.Row{v})
		if err := row.TokenizeText(tok, line[:len(line)-1], row.TextSink[[]byte](b)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	return b.Seal()
}

// TestEncodingsGolden pins every encoding decision, footprint,
// statistic and cell of the seeded columns to the golden file, which
// the boxed builder this replaced wrote. Boxed appends, typed appends,
// text tokenized into the builder and a marshal round trip must each
// reproduce it, and re-marshalling must reproduce the marshalled
// fields. Run with -update to rewrite it.
func TestEncodingsGolden(t *testing.T) {
	var out strings.Builder
	for _, c := range goldenCases() {
		p := buildGolden(t, c)
		want := describeGolden(c.name, p)
		fmt.Fprintln(&out, want)
		_, fields := p.MarshalShuffle()
		q, err := UnmarshalPartition(fields)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, again := q.MarshalShuffle()
		if string(row.EncodeBinary(nil, again)) != string(row.EncodeBinary(nil, fields)) {
			t.Errorf("%s: re-marshalling changed the fields", c.name)
		}
		for path, p := range map[string]*Partition{"typed": buildTyped(c), "text": buildText(t, c), "unmarshalled": q} {
			if got := describeGolden(c.name, p); got != want {
				t.Errorf("%s path:\n got  %s\n want %s", path, got, want)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
