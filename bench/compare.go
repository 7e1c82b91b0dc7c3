package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runRecord is one run of one workload as kept in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// resultsFile is what `bench --out` writes and `bench compare` reads.
type resultsFile struct {
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload `runs` times with tracing off and once
// traced, each run in a fresh process so no run inherits another's
// heap, caches or peak RSS. A run that died leaves no record, which
// compare counts against the side it is missing from.
func runAll(root string, seed int64, seconds float64, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := resultsFile{Seconds: seconds}
	code := 0
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			rec := runRecord{Workload: w.name, Seed: seed + int64(i)}
			if i == runs {
				rec.Trace, rec.Seed = 1, seed
			}
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(rec.Seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(rec.Trace))
			cmd.Dir, cmd.Stderr = root, os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %v\n", w.name, rec.Seed, rec.Trace, err)
				code = 1
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: unreadable result line: %v\n", w.name, err)
				code = 1
				continue
			}
			if rec.Failed > 0 {
				code = 1
			}
			file.Runs = append(file.Runs, rec)
		}
		printSummary(w.name, file.Runs)
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// valuesOf gathers, per metric, the values of every run of workload
// with the given trace mode, plus how many such runs there are and the
// rounds they attempted and failed.
func valuesOf(runs []runRecord, workload string, trace int) (vals map[string][]float64, units map[string]string, n, attempted, failed int) {
	vals, units = map[string][]float64{}, map[string]string{}
	for _, r := range runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		n++
		attempted += r.Attempted
		failed += r.Failed
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	return vals, units, n, attempted, failed
}

func printSummary(workload string, runs []runRecord) {
	for trace := 0; trace <= 1; trace++ {
		vals, units, n, attempted, failed := valuesOf(runs, workload, trace)
		if n == 0 {
			continue
		}
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("%s, trace %d: median of %d run(s); %d rounds attempted, %d failed (failed_frac %g)\n",
			workload, trace, n, attempted, failed, float64(failed)/float64(max(attempted, 1)))
		for _, n := range names {
			fmt.Printf("  %-40s %14.6g %s\n", n, median(vals[n]), units[n])
		}
	}
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the spread the acceptance
// check computes.
func quartileSpread(values []float64) float64 {
	m := len(values)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// contract is the part of BENCHMARK.json compare needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain prints, per workload and end-to-end metric, both medians,
// how much worse b is than a, and a verdict against the metric's bound:
// regressed when b's median is worse by more than the bound, when b has
// failed rounds, fewer runs than a or lacks the workload or the metric
// altogether (a run that crashed or failed its oracle check leaves no
// record); unresolved when either side's quartile spread exceeds the
// bound so the medians cannot settle it; ok otherwise. Files measured
// for different lengths are not comparable and are refused.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.json b.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	c, err := readContract(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if a.Seconds != b.Seconds {
		fmt.Fprintf(os.Stderr, "bench: %s measured for %g s a run, %s for %g s: not comparable\n", args[0], a.Seconds, args[1], b.Seconds)
		return 2
	}
	regressed := 0
	fmt.Printf("%-13s %-17s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, w := range c.Workloads {
		av, _, aRuns, _, _ := valuesOf(a.Runs, w.Name, 0)
		bv, _, bRuns, _, bFailed := valuesOf(b.Runs, w.Name, 0)
		if bFailed > 0 {
			fmt.Printf("%-13s %-17s b has %d failed round(s)  regressed\n", w.Name, "failed_frac", bFailed)
			regressed++
		}
		if bRuns < aRuns {
			fmt.Printf("%-13s %-17s b has %d run(s), a has %d  regressed\n", w.Name, "runs", bRuns, aRuns)
			regressed++
		}
		for _, m := range c.EndToEnd {
			x, y := av[m.Name], bv[m.Name]
			if len(y) == 0 {
				fmt.Printf("%-13s %-17s missing from b  regressed\n", w.Name, m.Name)
				regressed++
				continue
			}
			if len(x) == 0 {
				fmt.Printf("%-13s %-17s missing from a  unresolved\n", w.Name, m.Name)
				continue
			}
			ma, mb := median(x), median(y)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			spread := max(quartileSpread(x), quartileSpread(y))
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-13s %-17s %12.5g %12.5g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return 1
	}
	return 0
}
