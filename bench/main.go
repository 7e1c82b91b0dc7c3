// Command bench is the repository's one benchmark: six named
// workloads, the end-to-end metrics a user of Shark would see and a
// per-layer budget that says where a round's time goes. BENCHMARK.json
// at the repository root is its contract; README.md here explains the
// workloads, the metrics and how they are predicted to interact.
//
//	bench --workload scan_agg --seed 1 --seconds 10 --trace 0   one run, result as the last line
//	bench [--runs 10] [--out a.json]                            every workload, each run in a fresh process
//	bench compare a.json b.json                                 medians, difference and verdict per metric
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload in this process (default: all, one process each)")
	seed := flag.Int64("seed", 1, "seed of the data generators and parameter lists")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	runs := flag.Int("runs", 3, "with no --workload: timed runs per workload, seeds seed..seed+runs-1")
	out := flag.String("out", "", "with no --workload: write every run's metrics to this JSON file")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(root, *seed, *seconds, *runs, *out))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runOne(w, root, *seed, *seconds, 1, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printMetrics(os.Stdout, w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// findRoot locates the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json and the engine's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errB := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		_, errM := os.Stat(filepath.Join(dir, "go.mod"))
		_, errD := os.Stat(filepath.Join(dir, "bench"))
		if errB == nil && errM == nil && errD == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout with BENCHMARK.json, go.mod and bench/ at or above the working directory")
		}
		dir = parent
	}
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outDir is where run directories and trace files go; .gitignore names
// it.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// runOne measures one workload in this process. scale multiplies the
// table sizes: 1 everywhere except in the smoke test.
func runOne(w *workload, root string, seed int64, seconds, scale float64, traced bool) (*result, error) {
	measured := time.Duration(seconds * float64(time.Second))
	// The traced run reports no set-up time, so it sets up once.
	p, err := prepare(w, seed, scale, outDir(root), !traced, measured)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if !traced {
		ph := runPhase(p.e, p.clients, p.expected, measured)
		if ph.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: first failed round: %v\n", w.name, ph.firstErr)
		}
		if ph.ops() == 0 {
			return nil, fmt.Errorf("%s: no round completed correctly in %s", w.name, measured)
		}
		return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: endToEnd(p, ph)}, nil
	}
	return tracedRun(p, measured, filepath.Join(outDir(root), "trace-"+w.name+".json"))
}

func printMetrics(f *os.File, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "workload %s: %d rounds attempted, %d failed (failed_frac %g)\n",
		workload, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
