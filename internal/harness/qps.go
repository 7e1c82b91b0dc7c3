package harness

import (
	"context"
	"fmt"
	"slices"
)

// qpsConns is the client fleet size for the high-QPS ablation: enough
// concurrency to saturate the serving path without drowning the
// smoke-scale cluster in admission queueing.
const qpsConns = 32

// runQPS is the gating ablation for the high-QPS path: the same
// parameterized workload is driven through driver prepared statements
// twice — once with the plan cache disabled and no result cache
// (every execution pays lex/parse/analyze/execute), once with both
// caches on — and the cached configuration must beat the uncached one
// on QPS while returning byte-identical rows, including after an
// invalidating write from another session. A cached QPS at or below
// uncached fails the run.
func runQPS(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_qps: plan + result caches on the high-QPS serving path"

	fs, err := newFleetServer(sc, "qps")
	if err != nil {
		return err
	}
	defer fs.close()
	params := []int64{0, 100, 250, 500}
	refs, err := fs.references(ctx, params)
	if err != nil {
		return err
	}

	// One pinned connection = one cluster session; a real prepared
	// handle reused across every round, which is what a high-QPS
	// dashboard workload looks like.
	rounds := sc.Reps * 8
	spec := fleetSpec{conns: qpsConns, rounds: rounds, query: fleetQuery, params: params, refs: refs, prepared: true}

	// Phase A — uncached: plan cache off, no result cache. Every
	// execution re-parses, re-plans and runs the full job.
	spec.dsn = fs.addr + "?catalog=shared&session=qps-cold&plancache=off"
	lats, elapsed, coldDB, err := fleet(ctx, spec)
	if err != nil {
		return fmt.Errorf("qps uncached phase: %w", err)
	}
	coldDB.Close()
	coldQPS := float64(len(lats)) / elapsed
	p50, p95 := quantiles(lats)
	r.AddValue(exp, "uncached QPS", coldQPS,
		fmt.Sprintf("plancache=off, no rescache; p50 %.1fms p95 %.1fms over %d conns x %d rounds",
			p50*1000, p95*1000, qpsConns, rounds))

	// Phase B — cached: plan cache on (shared across the fleet's
	// shared-catalog sessions) and a per-session result cache.
	spec.dsn = fs.addr + "?catalog=shared&session=qps-hot&rescache=4194304"
	lats, elapsed, hotDB, err := fleet(ctx, spec)
	if err != nil {
		return fmt.Errorf("qps cached phase: %w", err)
	}
	defer hotDB.Close()
	hotQPS := float64(len(lats)) / elapsed
	p50, p95 = quantiles(lats)
	r.AddValue(exp, "cached QPS", hotQPS,
		fmt.Sprintf("plan + result caches; p50 %.1fms p95 %.1fms, results byte-identical to embedded",
			p50*1000, p95*1000))

	// An invalidating write from the embedded session: the fleet's
	// cached entries must not survive it. The recomputed result is
	// checked against a fresh embedded reference over the new data.
	if _, err := fs.loader.Exec(`DROP TABLE events_mem`); err != nil {
		return err
	}
	if err := fs.loadEvents("events2", 7); err != nil {
		return err
	}
	newRefs, err := fs.references(ctx, params)
	if err != nil {
		return err
	}
	for _, p := range params {
		if slices.Equal(refs[p], newRefs[p]) {
			return fmt.Errorf("qps: invalidating write produced an identical reference for val >= %d; the staleness check would be vacuous", p)
		}
		got, err := scanGroups(hotDB.QueryContext(ctx, fleetQuery, p))
		if err != nil {
			return fmt.Errorf("qps post-invalidation query: %w", err)
		}
		if err := sameAsEmbedded(got, newRefs[p]); err != nil {
			return fmt.Errorf("qps: cached session served stale rows after an invalidating write: %w", err)
		}
	}
	r.Add(exp, "post-invalidation correctness", 0,
		"peer DDL invalidated every cached entry; recomputed rows byte-identical to embedded")

	// The gate: caching must pay for itself, strictly.
	if hotQPS <= coldQPS {
		return fmt.Errorf("qps: cached QPS %.1f not above uncached QPS %.1f", hotQPS, coldQPS)
	}
	r.AddValue(exp, "cached/uncached speedup", hotQPS/coldQPS, "gate: must be > 1.0")
	return nil
}
