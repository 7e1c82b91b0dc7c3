package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"shark/internal/exec"
	"shark/internal/obs"
	"shark/internal/shuffle"
)

// obsOverheadGate is the tracing-tax budget: the traced p95 may not
// exceed the untraced p95 by more than this fraction (plus a small
// absolute floor so a 3ms query isn't failed over scheduler jitter).
const (
	obsOverheadGate  = 0.05
	obsOverheadFloor = 2 * time.Millisecond
)

// runObs measures the observability tax: the same query mix executed
// with statement tracing off and on, strictly interleaved so drift
// (cache warmth, GC pauses, machine load) lands on both series
// equally. Unlike the other ablations this one is gating — tracing
// was designed as a zero-cost-when-off, cheap-when-on path, and the
// experiment fails if the traced p95 regresses past the budget.
func runObs(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_obs: statement tracing overhead (off vs on)"
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory, pavloTables...)
	if err != nil {
		return err
	}
	defer e.Close()

	// A representative mix over cached tables: a selection (short,
	// overhead-sensitive) and a shuffling aggregation (spans, task
	// attribution and fetch counters all active).
	queries := []string{
		`SELECT pageURL, pageRank FROM rankings_mem WHERE pageRank > 9000`,
		`SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits_mem GROUP BY SUBSTR(sourceIP, 1, 7)`,
	}
	for _, q := range queries { // warm both plans and caches
		if _, err := e.Shark.ExecContext(ctx, q); err != nil {
			return err
		}
	}

	// Enough samples that p95 is a stable order statistic, not the
	// worst GC pause of a 20-element series.
	rounds := sc.Reps * 30
	if rounds < 30 {
		rounds = 30
	}
	// off[i] and on[i] come from the same (round, query) pair, so
	// on[i]-off[i] is a paired overhead sample.
	var off, on []float64
	var traced int64
	runOff := func(q string) error {
		t0 := time.Now()
		if _, err := e.Shark.ExecContext(ctx, q); err != nil {
			return err
		}
		off = append(off, time.Since(t0).Seconds())
		return nil
	}
	runOn := func(q string) error {
		tr := obs.NewTrace(e.Shark.Tag, q)
		t0 := time.Now()
		_, err := e.Shark.ExecContext(obs.WithTrace(ctx, tr), q)
		tr.Finish(err)
		if err != nil {
			return err
		}
		on = append(on, time.Since(t0).Seconds())
		// The traced run must actually trace: lifecycle spans and task
		// attribution, not a silently-dropped context value.
		snap := tr.Snapshot()
		if len(snap.Spans) == 0 || snap.Tasks == 0 {
			return fmt.Errorf("abl_obs: traced statement recorded %d spans, %d tasks", len(snap.Spans), snap.Tasks)
		}
		traced += snap.Tasks
		return nil
	}
	for round := 0; round < rounds; round++ {
		for _, q := range queries {
			// Alternate which mode runs first so warmth and drift
			// can't systematically favor either series.
			first, second := runOff, runOn
			if round%2 == 1 {
				first, second = runOn, runOff
			}
			if err := first(q); err != nil {
				return err
			}
			if err := second(q); err != nil {
				return err
			}
		}
	}

	medianOff, p95Off := quantiles(off)
	_, p95On := quantiles(on)
	overhead := p95On/p95Off - 1
	// The gate: p95 is the reported SLO statistic, but a single-order
	// statistic over ~60 samples swings with whichever series caught
	// the worst GC pause. A real tracing tax shifts every pair, so a
	// p95 excursion only fails the experiment when the median paired
	// delta — drift-immune by construction — confirms it.
	deltas := make([]float64, len(on))
	for i := range on {
		deltas[i] = on[i] - off[i]
	}
	medianDelta, _ := quantiles(deltas)
	r.Add(exp, "tracing off p95", p95Off,
		fmt.Sprintf("%d statements over %d rounds", len(off), rounds))
	r.Add(exp, "tracing on p95", p95On,
		fmt.Sprintf("p95 %+.1f%%, median paired delta %+.2fms (budget %.0f%% + %v); %d tasks attributed",
			overhead*100, medianDelta*1000, obsOverheadGate*100, obsOverheadFloor, traced))
	p95Exceeded := p95On > p95Off*(1+obsOverheadGate)+obsOverheadFloor.Seconds()
	pairedExceeded := medianDelta > obsOverheadGate*medianOff+obsOverheadFloor.Seconds()/2
	if p95Exceeded && pairedExceeded {
		return fmt.Errorf("abl_obs: tracing p95 %.4fs vs untraced %.4fs (%+.1f%%, median paired delta %+.2fms) exceeds the %.0f%%+%v budget",
			p95On, p95Off, overhead*100, medianDelta*1000, obsOverheadGate*100, obsOverheadFloor)
	}

	// CI artifact: a full EXPLAIN ANALYZE trace of the join workload,
	// uploaded alongside the bench trajectory so every commit keeps an
	// example of what the instrumented plan actually reported.
	if dir := os.Getenv("SHARK_OBS_ARTIFACT_DIR"); dir != "" {
		res, err := e.Shark.Exec(fmt.Sprintf("EXPLAIN ANALYZE "+pavloJoinTemplate, "uservisits_mem", "rankings_mem"))
		if err != nil {
			return fmt.Errorf("abl_obs: explain analyze artifact: %w", err)
		}
		var lines []string
		for _, row := range res.Rows {
			lines = append(lines, fmt.Sprint(row[0]))
		}
		if err := writeArtifact(dir, "explain-analyze.txt", strings.Join(lines, "\n")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// quantiles returns the median and 95th-percentile samples; samples
// itself is left in measurement order.
func quantiles(samples []float64) (p50, p95 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[len(s)/2], s[(len(s)-1)*95/100]
}

// writeArtifact drops one observability artifact into the CI upload
// directory, creating it on first use.
func writeArtifact(dir, name, body string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}
