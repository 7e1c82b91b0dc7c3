package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at 1/50 scale with a 0.3 s measured
// phase, both with tracing off and traced, so a benchmark that no
// longer builds, fails its oracle check or drops a metric is caught
// without paying for a full run.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, c.Workloads[i].Name, w.name)
		}
	}
	wantUnits := [2]map[string]string{{}, {}}
	for _, m := range c.EndToEnd {
		wantUnits[0][m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		wantUnits[1][m.Name] = m.Unit
	}
	if len(c.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, layerMetrics %d", len(c.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if i < len(c.PerLayer) && (c.PerLayer[i].Name != m.name || c.PerLayer[i].Unit != m.unit || c.PerLayer[i].Better != m.better) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, layerMetrics %+v", i, c.PerLayer[i], m)
		}
	}

	for _, w := range workloads {
		if !name.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
		for trace, want := range wantUnits {
			res, err := runOne(w, root, 7, 0.3, 0.02, trace == 1)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace %d: %d of %d rounds failed", w.name, trace, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := res.Metrics[n]
				switch {
				case !name.MatchString(n):
					t.Errorf("metric name %q", n)
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.name, trace, n)
				case m.Unit != unit:
					t.Errorf("%s trace %d: %s has unit %q, BENCHMARK.json %q", w.name, trace, n, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %d: %s = %v", w.name, trace, n, m.Value)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, n, m.Value)
				}
			}
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := genUserVisits(1, 500, 100), genUserVisits(2, 500, 100)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d and %d", len(a), len(b))
	}
	same := 0
	for i := range a {
		if a[i][0] == b[i][0] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("%d of %d rows share a sourceIP across seeds", same, len(a))
	}
	if c := genUserVisits(1, 500, 100); c[17][0] != a[17][0] || c[17][3] != a[17][3] {
		t.Error("the same seed gave different rows")
	}
}

// TestCompareMissingRuns holds compare to its job as a gate: a workload
// whose runs died (and so left no record) or a file measured for another
// length must not pass as ok.
func TestCompareMissingRuns(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	full := resultsFile{Seconds: 15}
	for _, w := range c.Workloads {
		rec := runRecord{Workload: w.Name, result: result{Correct: true, Attempted: 100, Metrics: map[string]metric{}}}
		for _, m := range c.EndToEnd {
			rec.Metrics[m.Name] = metric{1, m.Unit}
		}
		full.Runs = append(full.Runs, rec, rec)
	}
	write := func(name string, f resultsFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", full)
	if got := compareMain([]string{a, a}); got != 0 {
		t.Errorf("a file against itself: exit %d, want 0", got)
	}
	oneDied := resultsFile{Seconds: 15, Runs: full.Runs[1:]}
	if got := compareMain([]string{a, write("b.json", oneDied)}); got != 1 {
		t.Errorf("b lacks one run of %s: exit %d, want 1", c.Workloads[0].Name, got)
	}
	allDied := resultsFile{Seconds: 15, Runs: full.Runs[2:]}
	if got := compareMain([]string{a, write("b.json", allDied)}); got != 1 {
		t.Errorf("b lacks %s altogether: exit %d, want 1", c.Workloads[0].Name, got)
	}
	shorter := resultsFile{Seconds: 5, Runs: full.Runs}
	if got := compareMain([]string{a, write("b.json", shorter)}); got != 2 {
		t.Errorf("files of different --seconds: exit %d, want 2", got)
	}
}
