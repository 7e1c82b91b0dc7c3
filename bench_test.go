// Macro-benchmarks: one sub-benchmark per table/figure of the paper's
// evaluation (docs/ARCHITECTURE.md; `shark-bench -list` prints the
// experiment ids), e.g. `go test -bench 'Experiments/fig7$' -run '^$' .`.
// Each iteration runs the full experiment — data generation, Shark
// and Hive/Hadoop executions — at SmallScale; per-series wall-clock
// times are attached as custom benchmark metrics (suffix "_s").
//
// For the full-size numbers as a Markdown report run:
//
//	go run ./cmd/shark-bench -run all -scale default -markdown out.md
package shark_test

import (
	"context"
	"strings"
	"testing"

	"shark/internal/harness"
)

// benchExperiments are the paper's tables and figures plus the §5 /
// §3 ablations that assert nothing about timing; the gating abl_*
// experiments run under `make bench-smoke` instead.
var benchExperiments = []string{
	"fig1", "fig5_selection", "fig5_agg", "fig6_join", "loading",
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
	"tbl_columnar", "abl_shuffle", "abl_compile", "abl_binpack", "pruning",
}

// BenchmarkExperiments runs each harness experiment once per iteration
// and reports the mean seconds of every measured series.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range benchExperiments {
		b.Run(id, func(b *testing.B) {
			report := &harness.Report{}
			for i := 0; i < b.N; i++ {
				if err := harness.Run(context.Background(), id, harness.SmallScale(), report); err != nil {
					b.Fatal(err)
				}
			}
			// Aggregate series → mean seconds as custom metrics.
			sums := map[string]float64{}
			counts := map[string]int{}
			for _, e := range report.Entries {
				if e.Seconds < 0 {
					continue
				}
				sums[e.Series] += e.Seconds
				counts[e.Series]++
			}
			for series, total := range sums {
				name := strings.Map(func(r rune) rune {
					switch {
					case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
						return r
					default:
						return '_'
					}
				}, series)
				b.ReportMetric(total/float64(counts[series]), name+"_s")
			}
		})
	}
}
