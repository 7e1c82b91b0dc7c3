// Macro-benchmarks: one testing.B target per table/figure of the
// paper's evaluation (docs/ARCHITECTURE.md; `shark-bench -list` prints the experiment ids).
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
	"os"
	"strings"
	"testing"

	"shark/internal/harness"
)

func benchScale() harness.Scale {
	if os.Getenv("SHARK_BENCH_SCALE") == "default" {
		return harness.DefaultScale()
	}
	return harness.SmallScale()
}

// benchExperiment runs one harness experiment per iteration and
// reports the mean seconds of every measured series.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	report := &harness.Report{}
	for i := 0; i < b.N; i++ {
		if err := harness.Run(context.Background(), id, sc, report); err != nil {
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
}

// Figure 1: headline Shark-vs-Hive queries plus one logistic
// regression iteration.
func BenchmarkFig1_Headline(b *testing.B) { benchExperiment(b, "fig1") }

// Figure 5 (§6.2.1): selection on rankings.
func BenchmarkFig5_Selection(b *testing.B) { benchExperiment(b, "fig5_selection") }

// Figure 5 (§6.2.2): the two Pavlo aggregation queries.
func BenchmarkFig5_Aggregation(b *testing.B) { benchExperiment(b, "fig5_agg") }

// Figure 6 (§6.2.3): Pavlo join query with the co-partitioned variant.
func BenchmarkFig6_Join(b *testing.B) { benchExperiment(b, "fig6_join") }

// §6.2.4: data loading throughput into DFS vs memstore.
func BenchmarkLoading(b *testing.B) { benchExperiment(b, "loading") }

// Figure 7 (§6.3.1): group-by cardinality sweep on lineitem at both
// dataset scales, with tuned and untuned Hive.
func BenchmarkFig7_AggregationSweep(b *testing.B) { benchExperiment(b, "fig7") }

// Figure 8 (§6.3.2): static vs adaptive vs static+adaptive join
// planning under an opaque UDF.
func BenchmarkFig8_JoinStrategies(b *testing.B) { benchExperiment(b, "fig8") }

// Figure 9 (§6.3.3): mid-query fault tolerance.
func BenchmarkFig9_FaultTolerance(b *testing.B) { benchExperiment(b, "fig9") }

// Figure 10 (§6.4): the four warehouse queries.
func BenchmarkFig10_Warehouse(b *testing.B) { benchExperiment(b, "fig10") }

// Figure 11 (§6.5): logistic regression per-iteration runtimes.
func BenchmarkFig11_LogisticRegression(b *testing.B) { benchExperiment(b, "fig11") }

// Figure 12 (§6.5): k-means per-iteration runtimes.
func BenchmarkFig12_KMeans(b *testing.B) { benchExperiment(b, "fig12") }

// Figure 13 (§7.1): job time vs reduce-task count, Hadoop vs Spark
// scheduling profiles.
func BenchmarkFig13_TaskOverhead(b *testing.B) { benchExperiment(b, "fig13") }

// §3.2 prose table: boxed vs serialized vs columnar footprints.
func BenchmarkColumnarFootprint(b *testing.B) { benchExperiment(b, "tbl_columnar") }

// §5 ablation: memory-based vs disk-based shuffle.
func BenchmarkAblationShuffle(b *testing.B) { benchExperiment(b, "abl_shuffle") }

// §5 ablation: compiled vs interpreted expression evaluation.
func BenchmarkAblationExprCompile(b *testing.B) { benchExperiment(b, "abl_compile") }

// §3.1.2 ablation: bin-packed coalescing vs naive reducers vs
// many-fine-tasks under skew.
func BenchmarkAblationSkew(b *testing.B) { benchExperiment(b, "abl_binpack") }

// §3.5: map pruning on/off across the warehouse queries.
func BenchmarkMapPruning(b *testing.B) { benchExperiment(b, "pruning") }
