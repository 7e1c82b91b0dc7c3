package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"shark/internal/exec"
	"shark/internal/row"
)

var factSchema = row.Schema{
	{Name: "k", Type: row.TInt},
	{Name: "val", Type: row.TInt},
}

var dimSchema = row.Schema{
	{Name: "k", Type: row.TInt},
	{Name: "grp", Type: row.TString},
}

// genSkewedFact puts half the rows on key 0 and spreads the rest over
// keys 1..96 — the hot-key workload where one shuffle bucket
// serializes a static reduce stage.
func genSkewedFact(n int) []row.Row {
	out := make([]row.Row, n)
	for i := 0; i < n; i++ {
		k := int64(0)
		if i%2 == 1 {
			k = 1 + int64((i*7919)%96)
		}
		out[i] = row.Row{k, int64(i)}
	}
	return out
}

func genDim() []row.Row {
	out := make([]row.Row, 97)
	for k := range out {
		out[k] = row.Row{int64(k), fmt.Sprintf("g%d", k)}
	}
	return out
}

func sortedRowStrings(rows []row.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprint(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestAdaptiveJoinMatchesStaticAndCounts drives both runtime
// adaptations end to end: the skewed join must split its hot bucket
// (SkewSplits) with the sliced probe side on the left (fact JOIN dim)
// and, mirrored, on the right (dim JOIN fact), the UDF-filtered join
// must convert to a broadcast join (BroadcastConversions), and all must
// produce exactly the static plan's results.
func TestAdaptiveJoinMatchesStaticAndCounts(t *testing.T) {
	// Thresholds scaled to the tiny fixture: both unfiltered sides are
	// bigger than BroadcastThreshold (shuffle join), the hot bucket far
	// exceeds SkewFactor × mean, and TargetPerReducerBytes forces real
	// splits.
	adaptiveOpts := exec.Options{BroadcastThreshold: 1024, TargetPerReducerBytes: 8 << 10}
	staticOpts := exec.Options{BroadcastThreshold: 1024, TargetPerReducerBytes: 8 << 10,
		DisableAdaptiveExec: true, JoinStrategy: exec.StrategyStatic}

	run := func(opts exec.Options) (joinRows, mirrorRows, convRows []string, stats map[string]int64, strategies []string) {
		e := newEnv(t, opts)
		defer e.s.Close()
		e.writeDFS(t, "fact", factSchema, genSkewedFact(8000))
		e.writeDFS(t, "dim", dimSchema, genDim())
		if err := e.s.RegisterUDF("ENDS7", row.TBool, 1, 1, func(args []any) any {
			s, _ := args[0].(string)
			return strings.HasSuffix(s, "7")
		}); err != nil {
			t.Fatal(err)
		}
		res := e.mustExec(t, `SELECT dim.grp, COUNT(*), SUM(fact.val)
			FROM fact JOIN dim ON fact.k = dim.k GROUP BY dim.grp`)
		strategies = res.Stats.JoinStrategies
		splits := e.s.Stats().SkewSplits
		mirror := e.mustExec(t, `SELECT dim.grp, COUNT(*), SUM(fact.val)
			FROM dim JOIN fact ON dim.k = fact.k GROUP BY dim.grp`)
		mirrorSplits := e.s.Stats().SkewSplits - splits
		conv := e.mustExec(t, `SELECT COUNT(*) FROM fact JOIN dim ON fact.k = dim.k
			WHERE ENDS7(dim.grp)`)
		ss := e.s.Stats()
		stats = map[string]int64{
			"skewSplits":           ss.SkewSplits,
			"broadcastConversions": ss.BroadcastConversions,
			"adaptiveCoalesces":    ss.AdaptiveCoalesces,
			"mirrorSkewSplits":     mirrorSplits,
		}
		return sortedRowStrings(res.Rows), sortedRowStrings(mirror.Rows), sortedRowStrings(conv.Rows), stats, strategies
	}

	aJoin, aMirror, aConv, aStats, aStrategies := run(adaptiveOpts)
	sJoin, sMirror, sConv, sStats, _ := run(staticOpts)

	if fmt.Sprint(aJoin) != fmt.Sprint(sJoin) {
		t.Errorf("adaptive join rows differ from static:\nadaptive: %v\nstatic:   %v", aJoin, sJoin)
	}
	if fmt.Sprint(aMirror) != fmt.Sprint(sMirror) || fmt.Sprint(aMirror) != fmt.Sprint(aJoin) {
		t.Errorf("adaptive dim JOIN fact rows differ from static or from fact JOIN dim:\nadaptive: %v\nstatic:   %v", aMirror, sMirror)
	}
	if aStats["mirrorSkewSplits"] == 0 {
		t.Errorf("adaptive dim JOIN fact split no hot bucket: %v", aStats)
	}
	if fmt.Sprint(aConv) != fmt.Sprint(sConv) {
		t.Errorf("adaptive UDF-join rows differ from static:\nadaptive: %v\nstatic:   %v", aConv, sConv)
	}
	if aStats["skewSplits"] == 0 {
		t.Errorf("adaptive run recorded no skew splits: %v (strategies %v)", aStats, aStrategies)
	}
	if aStats["broadcastConversions"] == 0 {
		t.Errorf("adaptive run recorded no broadcast conversions: %v", aStats)
	}
	if aStats["adaptiveCoalesces"] == 0 {
		t.Errorf("adaptive run recorded no adaptive coalesces: %v", aStats)
	}
	for k, v := range sStats {
		if v != 0 {
			t.Errorf("static run must make no adaptive decisions, got %s = %d", k, v)
		}
	}
}
