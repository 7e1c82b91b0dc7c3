package harness

import (
	"context"
	"fmt"

	"shark"
)

// runConcurrency exercises the multi-tenant API: one long-scan session
// and K short-query sessions share one cluster, under FIFO and under
// fair sharing, reporting per-session short-query p50/p95 latency.
// This is the warehouse shape the redesign targets — an interactive
// dashboard must stay interactive while a batch scan's task wave
// floods the queues.
func runConcurrency(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_concurrency: K short-query sessions vs one long scan (shared cluster)"
	for _, pol := range []struct {
		label string
		p     shark.SchedulingPolicy
	}{
		{"FIFO queues", shark.FIFOScheduling},
		{"fair sharing (min-running-job-first)", shark.FairScheduling},
	} {
		// K interactive sessions each cache a small 2-partition table
		// and stream their queries free-running.
		lats, longScans, err := contend(sc, contendSpec{
			policy:     pol.p,
			heavy:      shark.SessionConfig{Name: "long-scan"},
			lights:     []shark.SessionConfig{{Name: "dash-0"}, {Name: "dash-1"}, {Name: "dash-2"}},
			lightParts: 2,
			lightRows:  sc.Rankings / 8,
			lightSQL:   `SELECT COUNT(*), SUM(val) FROM lookup_mem`,
			rounds:     10,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", pol.label, err)
		}
		var pooled []float64
		for _, l := range lats {
			pooled = append(pooled, l...)
		}
		p50, p95 := quantiles(pooled)
		r.Add(exp, "short-query p95 / "+pol.label, p95,
			fmt.Sprintf("p50 %.1fms over %d queries from %d sessions; long scan completed %d passes",
				p50*1000, len(pooled), len(lats), longScans))
	}
	return nil
}

// runPriority exercises weighted fair scheduling: one heavy weight-1
// session floods the shared cluster with long-scan task waves while
// three light sessions at priorities 1, 2 and 4 issue the same short
// query stream. Under weighted fair sharing a freed slot runs the job
// with the smallest (running+1)/weight ratio, so the priority-4 session
// should sustain several times the in-flight tasks of the priority-1
// session and see strictly lower tail latency. The experiment fails if the
// weight-4 p95 is not strictly below the weight-1 p95 — the acceptance
// signal for per-tenant priorities.
func runPriority(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_priority: 1 heavy + 3 light sessions at weights 1:2:4 (shared cluster)"
	weights := []int{1, 2, 4}
	lights := make([]shark.SessionConfig, len(weights))
	for i, w := range weights {
		lights[i] = shark.SessionConfig{Name: fmt.Sprintf("light-w%d", w), Priority: w}
	}
	// Identical multi-task tables: each light query carries 3x-slots
	// tasks — more than the cluster can hold at once — so with the
	// three query streams overlapping, the weighted (running+1)/weight
	// ratio (how many slots a session sustains), not first-task FIFO
	// order, decides each query's drain rate. Barrier rounds keep every
	// measured latency contending against the other two weights.
	lats, _, err := contend(sc, contendSpec{
		heavy:      shark.SessionConfig{Name: "heavy", Priority: 1},
		lights:     lights,
		lightParts: sc.Workers * sc.Slots * 3,
		lightRows:  sc.Rankings / 4,
		lightSQL:   `SELECT grp, COUNT(*), SUM(val) FROM lookup_mem GROUP BY grp`,
		rounds:     24,
		barrier:    true,
	})
	if err != nil {
		return err
	}
	p95s := make([]float64, len(weights))
	for i, w := range weights {
		var p50 float64
		p50, p95s[i] = quantiles(lats[i])
		r.Add(exp, fmt.Sprintf("light session p95 / priority %d", w), p95s[i],
			fmt.Sprintf("p50 %.1fms over %d queries", p50*1000, len(lats[i])))
	}
	if p95s[2] >= p95s[0] {
		return fmt.Errorf("abl_priority: weighted fairness inverted: priority-4 p95 %.1fms >= priority-1 p95 %.1fms",
			p95s[2]*1000, p95s[0]*1000)
	}
	return nil
}
