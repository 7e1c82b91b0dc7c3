package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"shark/internal/columnar"
)

// FuzzKernelsMatchEval: over a partition of mixedSchema (raw, RLE,
// bit-packed and dictionary columns, one-fifth NULL) and random typed
// expressions that call every built-in, CASE and CAST — with BIGINT and
// DOUBLE operands mixed and NULL literals — the kernels' value at every
// row is the one expr's Eval gives that row, Go type included (a -0
// stays -0), and a filter keeps exactly the rows Eval's is true at.
// The seeds cover partitions just short of, at and just past a batch,
// and small ones, whose kernels' buffers are shorter than a batch.
func FuzzKernelsMatchEval(f *testing.F) {
	for _, n := range []uint16{1, 64, 330, 1023, 1024, 1025} {
		for seed := range int64(3) {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		rows := int(n%2100) + 1
		part := sealPartition(t, mixedSchema, mixedRows(seed, rows))
		if rows >= columnar.BatchSize-1 {
			for c, want := range []string{"raw", "rle", "bitpack", "dict", "raw", "rle", "raw", "dict"} {
				if got := part.Cols[c].Encoding(); got != want {
					t.Fatalf("column %s is %s-encoded, want %s", mixedSchema[c].Name, got, want)
				}
			}
		}
		g := &exprGen{rng: rand.New(rand.NewSource(seed))}
		for range 6 {
			items := []string{g.int(3), g.int(2), g.float(3), g.str(3), g.str(2), g.value(2)}
			sql := "SELECT " + strings.Join(items, ", ") + " FROM t"
			if g.rng.Intn(2) == 0 {
				sql += " WHERE " + g.pred(2)
			}
			m := fusedChain(t, mixedSchema, sql)
			_, got := runChain(&Engine{}, m, part)
			_, want := evalChain(m, part)
			if len(got) != len(want) {
				t.Fatalf("%s\n  kernels emit %d rows, Eval %d", sql, len(got), len(want))
			}
			for i := range got {
				for j := range got[i] {
					if !same(got[i][j], want[i][j]) {
						t.Fatalf("%s\n  row %d, %s: kernels %#v, Eval %#v", sql, i, items[j], got[i][j], want[i][j])
					}
				}
			}
		}
	})
}

// same reports whether a and b are one value of one Go type; floats
// compare by bits, but any NaN equals any other.
func same(a, b any) bool {
	x, ok1 := a.(float64)
	y, ok2 := b.(float64)
	if ok1 && ok2 {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return a == b
}

// exprGen writes random expressions over mixedSchema, by result type.
type exprGen struct{ rng *rand.Rand }

func (g *exprGen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

func (g *exprGen) int(d int) string {
	if d <= 0 || g.rng.Intn(4) == 0 {
		return g.pick("i_raw", "i_rle", "i_pack", "i_dict", "allnull", "d", "7", "-3", "0")
	}
	switch g.rng.Intn(11) {
	case 0:
		return fmt.Sprintf("LENGTH(%s)", g.str(d-1))
	case 1:
		return fmt.Sprintf("ABS(%s)", g.int(d-1))
	case 2:
		return fmt.Sprintf("%s(%s)", g.pick("FLOOR", "CEIL"), g.num(d-1))
	case 3:
		return fmt.Sprintf("%s(%s)", g.pick("YEAR", "MONTH", "DAY"), g.pick("d", "(d + i_pack)", "i_rle", "(d - 0.5)", "NULL"))
	case 4:
		return fmt.Sprintf("CAST(%s AS BIGINT)", g.pick(g.num(d-1), g.str(d-1), "' 42 '"))
	case 5:
		return fmt.Sprintf("COALESCE(%s, %s, %s)", g.int(d-1), g.int(d-1), g.pick("NULL", "1"))
	case 6:
		return fmt.Sprintf("IF(%s, %s, %s)", g.pred(d-1), g.int(d-1), g.pick(g.int(d-1), "NULL"))
	case 7:
		return g.caseOf(d, g.int)
	case 8:
		return fmt.Sprintf("(%s %s %s)", g.int(d-1), g.pick("+", "-", "*", "%"), g.int(d-1))
	case 9:
		return fmt.Sprintf("(-(%s))", g.int(d-1))
	}
	return g.int(0)
}

func (g *exprGen) float(d int) string {
	if d <= 0 || g.rng.Intn(4) == 0 {
		return g.pick("f_raw", "f_rle", "2.5", "-0.0", "(f_raw * -1.0)")
	}
	switch g.rng.Intn(10) {
	case 0:
		return fmt.Sprintf("ABS(%s)", g.float(d-1))
	case 1:
		return fmt.Sprintf("ROUND(%s%s)", g.num(d-1), g.pick("", ", 1", ", -1", ", i_dict", ", NULL"))
	case 2:
		return fmt.Sprintf("POW(%s, %s)", g.num(d-1), g.pick("2", "0.5", "i_dict", g.num(d-1)))
	case 3:
		return fmt.Sprintf("SQRT(%s)", g.num(d-1))
	case 4:
		return fmt.Sprintf("CAST(%s AS DOUBLE)", g.pick(g.int(d-1), g.str(d-1), "'2.5e3'"))
	case 5:
		return fmt.Sprintf("COALESCE(%s, %s)", g.float(d-1), g.num(d-1)) // DOUBLE or BIGINT
	case 6:
		return fmt.Sprintf("IF(%s, %s, %s)", g.pred(d-1), g.float(d-1), g.num(d-1))
	case 7:
		return g.caseOf(d, g.num)
	case 8:
		return fmt.Sprintf("(%s %s %s)", g.num(d-1), g.pick("/", "*", "-", "%"), g.num(d-1))
	}
	return fmt.Sprintf("(-(%s))", g.float(d-1))
}

func (g *exprGen) num(d int) string {
	if g.rng.Intn(2) == 0 {
		return g.int(d)
	}
	return g.float(d)
}

func (g *exprGen) str(d int) string {
	if d <= 0 || g.rng.Intn(4) == 0 {
		return g.pick("s_raw", "s_dict", "'lit'", "''")
	}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("SUBSTR(%s, %s%s)", g.str(d-1), g.pick("1", "0", "-2", "9", "i_dict", "2.7", "NULL"), g.pick("", ", 3", ", -1", ", i_pack % 4", ", NULL"))
	case 1:
		return fmt.Sprintf("CONCAT(%s, %s)", g.str(d-1), g.pick(g.int(d-1), g.float(d-1), g.str(d-1)))
	case 2:
		return fmt.Sprintf("%s(%s)", g.pick("LOWER", "UPPER"), g.str(d-1))
	case 3:
		return fmt.Sprintf("CAST(%s AS STRING)", g.num(d-1))
	case 4:
		return fmt.Sprintf("COALESCE(%s, %s)", g.str(d-1), g.str(d-1))
	case 5:
		return fmt.Sprintf("IF(%s, %s, %s)", g.pred(d-1), g.str(d-1), g.pick(g.str(d-1), "NULL"))
	case 6:
		return g.caseOf(d, g.str)
	}
	return g.str(0)
}

// value is a projection of any type: a boolean among them.
func (g *exprGen) value(d int) string {
	switch g.rng.Intn(4) {
	case 0:
		return g.pred(d)
	case 1:
		return fmt.Sprintf("CAST(%s AS BOOLEAN)", g.pick("i_pack", "b", "i_dict"))
	case 2:
		return fmt.Sprintf("COALESCE(%s, %s)", g.pick("b", "EVENISH(i_pack)"), g.pred(d-1))
	}
	return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", g.pred(d-1), g.int(d-1), g.str(d-1))
}

func (g *exprGen) caseOf(d int, arm func(int) string) string {
	sql := fmt.Sprintf("CASE WHEN %s THEN %s", g.pred(d-1), arm(d-1))
	if g.rng.Intn(2) == 0 {
		sql += fmt.Sprintf(" WHEN %s THEN %s", g.pred(d-1), g.pick(arm(d-1), "NULL"))
	}
	if g.rng.Intn(3) > 0 {
		sql += " ELSE " + arm(d-1)
	}
	return sql + " END"
}

func (g *exprGen) pred(d int) string {
	if d > 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("(%s %s %s)", g.pred(d-1), g.pick("AND", "OR"), g.pred(d-1))
		case 1:
			return "NOT " + g.pred(d-1)
		}
	}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("%s %s %s", g.num(d), g.pick("<", "<=", "=", "<>", ">"), g.num(d))
	case 1:
		return fmt.Sprintf("%s %s %s", g.str(d), g.pick("<", "=", ">="), g.str(d))
	case 2:
		return fmt.Sprintf("%s IS %sNULL", g.pick(g.int(d), g.str(d), g.float(d)), g.pick("", "NOT "))
	case 3:
		return fmt.Sprintf("%s %sIN (%s)", g.num(d), g.pick("", "NOT "), g.pick("1, 7, 42", "0.5, 2", "i_dict, 3"))
	case 4:
		return fmt.Sprintf("%s LIKE '%s'", g.str(d), g.pick("u1%", "%a", "_"))
	case 5:
		return g.pick("b", "EVENISH(i_pack)", "CAST(i_dict AS BOOLEAN)")
	case 6:
		return fmt.Sprintf("%s IN ('alpha', 'lit', '')", g.str(d))
	}
	return fmt.Sprintf("%s > %s", g.int(d), g.int(d))
}
