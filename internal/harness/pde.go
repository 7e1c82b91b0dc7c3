package harness

import (
	"context"
	"fmt"
	"sort"

	"shark/internal/core"
	"shark/internal/exec"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// runPDE measures the adaptive-execution layer (§3.1) end to end on a
// skewed join: a fact table with most of its rows on one hot key
// joined to a dimension table, plus a UDF-filtered variant of the same
// join.
// The adaptive engine must (a) split the hot reduce bucket across
// several tasks (SkewSplits), (b) convert the UDF-filtered join to a
// broadcast join once the observed build side comes in under the
// threshold (BroadcastConversions), and (c) beat the static plan's
// tail latency while producing byte-identical results. The experiment
// fails on a latency inversion or a missed adaptation — the acceptance
// signal for PDE.
func runPDE(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_pde: skewed fact ⋈ dim, static vs adaptive reduce planning"

	adaptive, err := pdePoint(sc, false)
	if err != nil {
		return err
	}
	static, err := pdePoint(sc, true)
	if err != nil {
		return err
	}

	if fmt.Sprint(adaptive.joinRows) != fmt.Sprint(static.joinRows) {
		return fmt.Errorf("abl_pde: adaptive join rows differ from static")
	}
	if fmt.Sprint(adaptive.convRows) != fmt.Sprint(static.convRows) {
		return fmt.Errorf("abl_pde: adaptive UDF-join rows differ from static")
	}
	if adaptive.skewSplits == 0 {
		return fmt.Errorf("abl_pde: adaptive run recorded no skew splits")
	}
	if adaptive.broadcastConversions == 0 {
		return fmt.Errorf("abl_pde: adaptive run recorded no broadcast conversions")
	}
	if static.skewSplits != 0 || static.broadcastConversions != 0 {
		return fmt.Errorf("abl_pde: static run made adaptive decisions (splits %d, conversions %d)",
			static.skewSplits, static.broadcastConversions)
	}

	r.Add(exp, "Static (skew-blind reduce)", static.p95,
		fmt.Sprintf("p50 %.1fms over %d queries", static.p50*1000, static.queries))
	r.Add(exp, "Adaptive (PDE)", adaptive.p95,
		fmt.Sprintf("p50 %.1fms, %d skew splits, %d broadcast conversions",
			adaptive.p50*1000, adaptive.skewSplits, adaptive.broadcastConversions))

	if adaptive.p95 >= static.p95 {
		return fmt.Errorf("abl_pde: adaptive p95 %.1fms >= static p95 %.1fms",
			adaptive.p95*1000, static.p95*1000)
	}
	return nil
}

type pdeResult struct {
	p50, p95             float64
	queries              int
	skewSplits           int64
	broadcastConversions int64
	joinRows, convRows   []string
}

// pdePoint runs the skewed-join workload under one engine config and
// returns latency percentiles plus the adaptive-decision counters.
func pdePoint(sc Scale, disableAdaptive bool) (*pdeResult, error) {
	// The broadcast threshold sits between the observed dimension table
	// (so the plain join keeps its shuffle plan) and the UDF-filtered
	// dimension table (so the filtered join converts to a map join).
	// The static optimizer, blind to the UDF, estimates the full table
	// either way.
	opts := exec.Options{
		BroadcastThreshold:    int64(pdeDimRows(sc)) * 18,
		TargetPerReducerBytes: 256 << 10,
	}
	if disableAdaptive {
		opts.DisableAdaptiveExec = true
		opts.JoinStrategy = exec.StrategyStatic
	}
	// Cache the fact table so the timed rounds measure shuffle + reduce
	// (where the adaptations act) rather than re-parsing text from DFS.
	// The dimension table stays external: its size estimate must come
	// from table statistics, not exact cached bytes, for the broadcast
	// threshold to behave as it does on a warehouse catalog.
	e, err := newEnv(sc, opts, shuffle.Memory, "fact_mem", "dim")
	if err != nil {
		return nil, err
	}
	defer e.Close()
	// The fig8 scenario folded into the PDE ablation: the UDF selects
	// ~1% of dimension rows, invisible to the static optimizer.
	if err := e.registerSelectiveUDF("PDE_UDF"); err != nil {
		return nil, err
	}

	const joinSQL = `SELECT dim.grp, COUNT(*), SUM(fact_mem.val)
FROM fact_mem JOIN dim ON fact_mem.k = dim.k GROUP BY dim.grp`
	const convSQL = `SELECT COUNT(*) FROM fact_mem JOIN dim ON fact_mem.k = dim.k
WHERE PDE_UDF(dim.grp)`

	var joinRes *core.Result
	lats, err := timeRounds(12, func() (err error) {
		joinRes, err = e.Shark.Exec(joinSQL)
		return err
	})
	if err != nil {
		return nil, err
	}
	convRes, err := e.Shark.Exec(convSQL)
	if err != nil {
		return nil, err
	}

	stats := e.Shark.Stats()
	p50, p95 := quantiles(lats)
	return &pdeResult{
		p50:                  p50,
		p95:                  p95,
		queries:              len(lats),
		skewSplits:           stats.SkewSplits,
		broadcastConversions: stats.BroadcastConversions,
		joinRows:             sortedRows(joinRes),
		convRows:             sortedRows(convRes),
	}, nil
}

var pdeFactSchema = row.Schema{
	{Name: "k", Type: row.TInt},
	{Name: "val", Type: row.TInt},
	{Name: "pad", Type: row.TString},
}

var pdeDimSchema = row.Schema{
	{Name: "k", Type: row.TInt},
	{Name: "grp", Type: row.TString},
}

func pdeDimRows(sc Scale) int { return max(sc.Supplier, 2000) }

// pdeFact generates the fact table: ~three quarters of the rows on hot
// key 0, the rest spread over the dimension keys, with a per-row
// payload (incompressible, so the cached columnar size stays honest)
// that makes the hot shuffle bucket several times TargetPerReducerBytes.
func pdeFact(sc Scale, emit emitFunc) error {
	nDim := pdeDimRows(sc)
	for i := 0; i < sc.UserVisits; i++ {
		k := int64(0)
		if i%4 == 3 {
			k = 1 + int64((i*2654435761)%(nDim-1))
		}
		pad := fmt.Sprintf("%096d", i*2654435761)
		if err := emit(row.Row{k, int64(i % 1000), pad}); err != nil {
			return err
		}
	}
	return nil
}

func pdeDim(sc Scale, emit emitFunc) error {
	for k := 0; k < pdeDimRows(sc); k++ {
		if err := emit(row.Row{int64(k), fmt.Sprintf("addr-%d", k)}); err != nil {
			return err
		}
	}
	return nil
}

// sortedRows renders a result's rows as a sorted string multiset so
// two runs can be compared independent of row order.
func sortedRows(res *core.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// quantiles returns the median and 95th-percentile samples; samples
// itself is left in measurement order.
func quantiles(samples []float64) (p50, p95 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[len(s)/2], s[(len(s)-1)*95/100]
}
