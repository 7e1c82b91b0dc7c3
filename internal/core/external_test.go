package core

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"testing"

	"shark/internal/columnar"
	"shark/internal/exec"
	"shark/internal/rdd"
	"shark/internal/row"
)

// bagOf renders rows as a sorted list, for bag comparison.
func bagOf(rows []row.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// rowsOf is the rows= count on an EXPLAIN ANALYZE line.
func rowsOf(line string) string {
	if m := regexp.MustCompile(`rows=(\d+)`).FindStringSubmatch(line); m != nil {
		return m[1]
	}
	return ""
}

// TestExternalScanKernels: a scan of an external table runs the same
// fused batch kernels as a cached one — EXPLAIN ANALYZE counts the rows
// each stage passes — and a cached CTAS of it yields the same table
// whether it stores the parsed blocks as they are (SELECT *) or loads
// result rows (a reordering projection, a filter).
func TestExternalScanKernels(t *testing.T) {
	e := newEnv(t, exec.Options{})
	defer e.s.Close()
	rows := genVisits(3000)
	e.writeDFS(t, "visits_ext", visitsSchema, rows)
	e.mustExec(t, `CREATE TABLE visits_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM visits_ext`)

	// adRevenue is (i % 100) / 2, so 2400 rows pass, in all 5 countries.
	for _, table := range []string{"visits_ext", "visits_mem"} {
		res := e.mustExec(t, `EXPLAIN ANALYZE SELECT countryCode, COUNT(*), SUM(adRevenue) FROM `+table+
			` WHERE adRevenue >= 10.0 GROUP BY countryCode`)
		var scan, agg string
		for _, r := range res.Rows {
			switch line := strings.TrimSpace(r[0].(string)); {
			case strings.HasPrefix(line, "Scan("):
				scan = line
			case strings.HasPrefix(line, "Aggregate("):
				agg = line
			}
		}
		if rowsOf(scan) != "2400" || rowsOf(agg) != "5" {
			t.Errorf("%s: EXPLAIN ANALYZE counts\n%s\n%s\nwant 2400 scanned rows and 5 groups", table, scan, agg)
		}
	}

	e.mustExec(t, `CREATE TABLE as_is TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM visits_ext`)
	e.mustExec(t, `CREATE TABLE swapped TBLPROPERTIES ("shark.cache"="true") AS
		SELECT countryCode, adRevenue, visitDate, destURL, sourceIP FROM visits_ext`)
	e.mustExec(t, `CREATE TABLE filtered TBLPROPERTIES ("shark.cache"="true") AS
		SELECT * FROM visits_ext WHERE adRevenue >= 0.0`)
	want := bagOf(rows)
	for _, table := range []string{"as_is", "swapped", "filtered"} {
		res := e.mustExec(t, `SELECT sourceIP, destURL, visitDate, adRevenue, countryCode FROM `+table)
		if got := bagOf(res.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: %d rows differ from the %d written", table, len(got), len(want))
		}
	}

	// SELECT * keeps each block's partition: the encodings a builder
	// picks for exactly that block's rows.
	tbl, err := e.s.Cat.Get("as_is")
	if err != nil {
		t.Fatal(err)
	}
	meta, err := e.fs.Stat("data/visits_ext")
	if err != nil {
		t.Fatal(err)
	}
	parts, err := tbl.Mem.ScanPartitions("parts", nil, func(_ *rdd.TaskContext, p *columnar.Partition) rdd.Iter {
		return rdd.SliceIter([]any{p})
	}).CollectCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(meta.Blocks) || len(parts) < 2 {
		t.Fatalf("%d cached partitions for %d blocks", len(parts), len(meta.Blocks))
	}
	for i, v := range parts {
		rd, err := e.fs.OpenBlock("data/visits_ext", i)
		if err != nil {
			t.Fatal(err)
		}
		b := columnar.NewBuilder(visitsSchema)
		for {
			r, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		rd.Close()
		want, got := b.Seal(), v.(*columnar.Partition)
		for c := range visitsSchema {
			if got.Cols[c].Encoding() != want.Cols[c].Encoding() || got.Cols[c].SizeBytes() != want.Cols[c].SizeBytes() {
				t.Errorf("block %d column %d: cached as %s (%d B), the block's rows build %s (%d B)", i, c,
					got.Cols[c].Encoding(), got.Cols[c].SizeBytes(), want.Cols[c].Encoding(), want.Cols[c].SizeBytes())
			}
		}
	}
}
