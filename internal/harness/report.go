package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"shark/internal/rdd"
)

// Entry is one measured series point of an experiment.
type Entry struct {
	Experiment string
	Series     string  // e.g. "Shark", "Shark (disk)", "Hive"
	Seconds    float64 // primary measurement (negative = not a time)
	Value      float64 // secondary value (throughput, ratio, count)
	Notes      string
}

// ClusterNote is one experiment environment's dispatcher/cache metric
// snapshot, recorded when the environment closes so every shark-bench
// report surfaces scheduling and memory-pressure behavior, not only
// the dedicated ablations.
type ClusterNote struct {
	Experiment string
	Label      string // which environment within the experiment
	Notes      string
}

// Report accumulates experiment results.
type Report struct {
	Entries      []Entry
	ClusterNotes []ClusterNote
}

// Add records a timing entry.
func (r *Report) Add(exp, series string, seconds float64, notes string) {
	r.Entries = append(r.Entries, Entry{Experiment: exp, Series: series, Seconds: seconds, Notes: notes})
}

// AddValue records a non-timing entry (bytes, ratios, counts).
func (r *Report) AddValue(exp, series string, value float64, notes string) {
	r.Entries = append(r.Entries, Entry{Experiment: exp, Series: series, Seconds: -1, Value: value, Notes: notes})
}

// AddClusterNote records one environment's dispatcher/cache metrics.
func (r *Report) AddClusterNote(exp, label, notes string) {
	r.ClusterNotes = append(r.ClusterNotes, ClusterNote{Experiment: exp, Label: label, Notes: notes})
}

// activeReport routes environment teardown metrics into the report of
// the experiment currently executing under Run (runs are sequential;
// the mutex only guards against misuse).
var (
	activeMu     sync.Mutex
	activeReport *Report
	activeExp    string
)

// noteClusterMetrics snapshots ctx's dispatcher and scheduler counters
// into the active report, if an experiment is running.
func noteClusterMetrics(label string, ctx *rdd.Context) {
	activeMu.Lock()
	r, exp := activeReport, activeExp
	activeMu.Unlock()
	if r == nil || ctx == nil {
		return
	}
	cm := ctx.Cluster.Metrics()
	sm := ctx.Scheduler().Metrics()
	ds := ctx.Cluster.DiskTierStats()
	r.AddClusterNote(exp, label, fmt.Sprintf(
		"steals %d, locality %d/%d hits/misses, "+
			"cache hits %d, remote hits %d, disk hits %d, recomputes %d, evictions %d (%d KB), "+
			"spilled %d (%d KB), disk evictions %d, cancelled tasks %d",
		cm.Steals.Load(),
		cm.LocalityHits.Load(), cm.LocalityMisses.Load(),
		sm.CacheHits.Load(), sm.RemoteCacheHits.Load(), sm.DiskHits.Load(), sm.CacheRecomputes.Load(),
		cm.CacheEvictions.Load(), cm.BytesEvicted.Load()/1024,
		ds.SpilledBlocks, ds.BytesSpilled/1024, ds.DiskEvictions,
		cm.CancelledTasks.Load()))
}

// byExperiment groups the entries by experiment title, titles in
// first-appearance order.
func (r *Report) byExperiment() (byExp map[string][]Entry, order []string) {
	byExp = map[string][]Entry{}
	for _, e := range r.Entries {
		if _, ok := byExp[e.Experiment]; !ok {
			order = append(order, e.Experiment)
		}
		byExp[e.Experiment] = append(byExp[e.Experiment], e)
	}
	return byExp, order
}

// Fprint renders the report as an aligned text table grouped by
// experiment, with speedup ratios versus the slowest series in each
// experiment.
func (r *Report) Fprint(w io.Writer) {
	byExp, order := r.byExperiment()
	for _, exp := range order {
		entries := byExp[exp]
		fmt.Fprintf(w, "\n== %s ==\n", exp)
		slowest := 0.0
		for _, e := range entries {
			if e.Seconds > slowest {
				slowest = e.Seconds
			}
		}
		for _, e := range entries {
			if e.Seconds >= 0 {
				ratio := ""
				if slowest > 0 && e.Seconds > 0 {
					ratio = fmt.Sprintf("  %6.1fx vs slowest", slowest/e.Seconds)
				}
				fmt.Fprintf(w, "  %-38s %9.3fs%s", e.Series, e.Seconds, ratio)
			} else {
				fmt.Fprintf(w, "  %-38s %12.2f", e.Series, e.Value)
			}
			if e.Notes != "" {
				fmt.Fprintf(w, "   [%s]", e.Notes)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.ClusterNotes) > 0 {
		fmt.Fprintf(w, "\n== dispatcher / cache metrics ==\n")
		for _, n := range r.ClusterNotes {
			fmt.Fprintf(w, "  %-38s %s\n", n.Experiment+" ("+n.Label+")", n.Notes)
		}
	}
}

// Markdown renders the report as Markdown tables (shark-bench -markdown).
func (r *Report) Markdown(w io.Writer) {
	byExp, order := r.byExperiment()
	for _, exp := range order {
		entries := byExp[exp]
		fmt.Fprintf(w, "\n### %s\n\n", exp)
		fmt.Fprintln(w, "| series | seconds | value | notes |")
		fmt.Fprintln(w, "|---|---|---|---|")
		for _, e := range entries {
			secs := ""
			if e.Seconds >= 0 {
				secs = fmt.Sprintf("%.3f", e.Seconds)
			}
			val := ""
			if e.Value != 0 {
				val = fmt.Sprintf("%.2f", e.Value)
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s |\n", e.Series, secs, val, e.Notes)
		}
	}
	if len(r.ClusterNotes) > 0 {
		fmt.Fprintf(w, "\n### dispatcher / cache metrics\n\n")
		fmt.Fprintln(w, "| experiment | environment | metrics |")
		fmt.Fprintln(w, "|---|---|---|")
		for _, n := range r.ClusterNotes {
			fmt.Fprintf(w, "| %s | %s | %s |\n", n.Experiment, n.Label, n.Notes)
		}
	}
}

// ExperimentIDs lists the registered experiments, sorted.
func ExperimentIDs() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id into the report. While the
// experiment runs, environments it closes snapshot their dispatcher /
// cache metrics into the report's ClusterNotes. Cancelling ctx aborts
// the experiment's in-flight distributed work.
func Run(ctx context.Context, id string, sc Scale, r *Report) error {
	f, ok := experiments[strings.ToLower(id)]
	if !ok {
		return fmt.Errorf("harness: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	activeMu.Lock()
	activeReport, activeExp = r, strings.ToLower(id)
	activeMu.Unlock()
	defer func() {
		activeMu.Lock()
		activeReport, activeExp = nil, ""
		activeMu.Unlock()
	}()
	return f(ctx, sc, r)
}

// RunAll executes every experiment.
func RunAll(ctx context.Context, sc Scale, r *Report) error {
	for _, id := range ExperimentIDs() {
		if err := Run(ctx, id, sc, r); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	return nil
}
