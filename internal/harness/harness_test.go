package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"shark/internal/exec"
	"shark/internal/memtable"
	"shark/internal/shuffle"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		Rankings: 3000, UserVisits: 8000,
		Lineitem: 6000, LineitemBig: 16000, Supplier: 2000,
		Sessions: 8000, MLPoints: 4000, MLDim: 5, MLIters: 2,
		Workers: 4, Slots: 2, Reps: 1,
	}
}

func runOne(t *testing.T, id string) *Report {
	t.Helper()
	r := &Report{}
	if err := Run(context.Background(), id, tinyScale(), r); err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	if len(r.Entries) == 0 {
		t.Fatalf("experiment %s produced no entries", id)
	}
	return r
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig5_selection", "fig5_agg", "fig6_join", "loading",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"tbl_columnar", "abl_shuffle", "abl_compile", "abl_binpack",
		"abl_memory", "abl_storage", "abl_pde", "pruning",
	}
	have := map[string]bool{}
	for _, id := range ExperimentIDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(have), len(want), ExperimentIDs())
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := Run(context.Background(), "nope", tinyScale(), &Report{}); err == nil {
		t.Error("unknown id must fail")
	}
}

func TestFig5Selection(t *testing.T) {
	r := runOne(t, "fig5_selection")
	series := map[string]float64{}
	for _, e := range r.Entries {
		series[e.Series] = e.Seconds
	}
	if len(series) != 3 {
		t.Fatalf("series = %v", series)
	}
	// Shape: Shark (mem) beats Hive.
	if series["Shark"] >= series["Hive"] {
		t.Errorf("Shark (%.3fs) should beat Hive (%.3fs)", series["Shark"], series["Hive"])
	}
}

func TestFig8Strategies(t *testing.T) {
	r := runOne(t, "fig8")
	if len(r.Entries) != 3 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	notes := map[string]string{}
	secs := map[string]float64{}
	for _, e := range r.Entries {
		notes[e.Series] = e.Notes
		secs[e.Series] = e.Seconds
	}
	if !strings.Contains(notes["Static"], "shuffle-join") {
		t.Errorf("static should shuffle-join: %q", notes["Static"])
	}
	if !strings.Contains(notes["Adaptive"], "map-join") {
		t.Errorf("adaptive should map-join: %q", notes["Adaptive"])
	}
	if !strings.Contains(notes["Static + Adaptive"], "map-join") {
		t.Errorf("static+adaptive should map-join: %q", notes["Static + Adaptive"])
	}
	// Shape: static+adaptive fastest (paper: 3x over static).
	if secs["Static + Adaptive"] >= secs["Static"] {
		t.Errorf("static+adaptive (%.3f) should beat static (%.3f)",
			secs["Static + Adaptive"], secs["Static"])
	}
}

func TestFig9FaultTolerance(t *testing.T) {
	r := runOne(t, "fig9")
	secs := map[string]float64{}
	for _, e := range r.Entries {
		secs[e.Series] = e.Seconds
	}
	if len(secs) != 4 {
		t.Fatalf("series: %v", secs)
	}
	// Shape: recovery is cheaper than a full reload.
	if secs["Single failure (recovery in-query)"] >= secs["Full reload (load + query)"] {
		t.Errorf("recovery (%.3f) should beat full reload (%.3f)",
			secs["Single failure (recovery in-query)"], secs["Full reload (load + query)"])
	}
}

// TestStorageExperiment: the tiered-storage ablation's internal
// assertions (identical results, DiskHits > 0 on the spill point,
// recomputes strictly below the eviction-only point) hold at tiny
// scale, and all four sweep points report.
func TestStorageExperiment(t *testing.T) {
	r := runOne(t, "abl_storage")
	if len(r.Entries) != 4 {
		t.Fatalf("entries = %d, want 4 sweep points", len(r.Entries))
	}
	notes := map[string]string{}
	for _, e := range r.Entries {
		notes[e.Series] = e.Notes
	}
	if n := notes["25% memory + disk, MEMORY_AND_DISK"]; !strings.Contains(n, "disk hits") {
		t.Errorf("spill point notes missing disk hits: %q", n)
	}
}

func TestColumnarFootprint(t *testing.T) {
	r := runOne(t, "tbl_columnar")
	vals := map[string]float64{}
	for _, e := range r.Entries {
		vals[e.Series] = e.Value
	}
	boxed := vals["boxed rows (MB)"]
	ser := vals["serialized (MB)"]
	col := vals["columnar+compressed (MB)"]
	if !(col < ser && ser < boxed) {
		t.Errorf("expected columnar < serialized < boxed, got %.2f / %.2f / %.2f", col, ser, boxed)
	}
	// §3.2: roughly 3x between boxed and serialized
	if boxed/ser < 1.5 {
		t.Errorf("boxed/serialized ratio too small: %.2f", boxed/ser)
	}
}

func TestPruningExperiment(t *testing.T) {
	r := runOne(t, "pruning")
	if len(r.Entries) != 2 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	on, off := r.Entries[0], r.Entries[1]
	if !strings.Contains(on.Notes, "/") {
		t.Errorf("notes should contain scan fractions: %q", on.Notes)
	}
	_ = off
}

func TestLoadingThroughput(t *testing.T) {
	// Loading needs enough data for I/O cost to dominate fixed
	// scheduling overhead, so this test uses a larger input.
	sc := tinyScale()
	sc.UserVisits = 60000
	r := &Report{}
	if err := Run(context.Background(), "loading", sc, r); err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 2 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	dfsT, memT := r.Entries[0].Seconds, r.Entries[1].Seconds
	// Shape: memstore ingest faster than replicated DFS ingest.
	if memT >= dfsT {
		t.Errorf("memstore load (%.3f) should beat DFS load (%.3f)", memT, dfsT)
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{}
	r.Add("exp1", "A", 1.5, "note")
	r.Add("exp1", "B", 3.0, "")
	r.AddValue("exp2", "bytes", 42, "")
	r.AddClusterNote("exp1", "shark env", "steals 1 events/2 tasks")
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"exp1", "A", "2.0x", "42.00", "dispatcher / cache metrics", "steals 1 events/2 tasks"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	r.Markdown(&buf)
	md := buf.String()
	if !strings.Contains(md, "| series |") {
		t.Error("markdown header missing")
	}
	if !strings.Contains(md, "### dispatcher / cache metrics") {
		t.Error("markdown cluster metrics section missing")
	}
}

// TestClusterMetricsInEveryReport: any experiment that builds an Env
// leaves a dispatcher/cache metrics note in the report — not only the
// dedicated scheduling ablations.
func TestClusterMetricsInEveryReport(t *testing.T) {
	r := runOne(t, "fig5_selection")
	if len(r.ClusterNotes) == 0 {
		t.Fatal("fig5_selection report has no cluster metrics notes")
	}
	n := r.ClusterNotes[0]
	if n.Experiment != "fig5_selection" || !strings.Contains(n.Notes, "steals") {
		t.Errorf("unexpected cluster note: %+v", n)
	}
}

// TestNewEnvFailureLeavesNothingBehind: an unknown dataset name is an
// error, reported after earlier tables were already built, and the
// half-built environment removes its temp directory.
func TestNewEnvFailureLeavesNothingBehind(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	_, err := newEnv(tinyScale(), exec.Options{}, shuffle.Memory, "rankings_mem", "no_such_table")
	if err == nil || !strings.Contains(err.Error(), `unknown dataset "no_such_table"`) {
		t.Fatalf("err = %v, want unknown dataset", err)
	}
	left, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(left) != 0 {
		t.Errorf("failed newEnv left %d entries in the temp dir, first %q", len(left), left[0].Name())
	}
}

// sweepTestSpec visits three unbounded points; pass and finish are
// filled in per test.
func sweepTestSpec() sweepSpec {
	return sweepSpec{
		exp:   "sweep under test",
		table: "t_sweep",
		points: func(share int64) []sweepPoint {
			return []sweepPoint{{label: "p0"}, {label: "p1", mem: share}, {label: "p2"}}
		},
		pass: func(ctx context.Context, tbl *memtable.Table, probe *sweepProbe) (int64, error) {
			return tbl.Scan(nil, nil).CountCtx(ctx)
		},
		finish: func(context.Context, *world, *memtable.Table, sweepPoint) (string, error) {
			return "ok", nil
		},
	}
}

// TestSweepFreshWorldPerPoint: every point runs on its own cluster,
// and each is closed — including the one whose point fails, after
// which no further point is visited.
func TestSweepFreshWorldPerPoint(t *testing.T) {
	boom := errors.New("point failed")
	var worlds []*world
	spec := sweepTestSpec()
	spec.finish = func(_ context.Context, w *world, _ *memtable.Table, pt sweepPoint) (string, error) {
		worlds = append(worlds, w)
		if pt.label == "p1" {
			return "", boom
		}
		return "ok", nil
	}
	r := &Report{}
	err := sweep(context.Background(), tinyScale(), r, spec)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "p1") {
		t.Fatalf("err = %v, want p1's failure", err)
	}
	if len(worlds) != 2 || worlds[0] == worlds[1] {
		t.Fatalf("visited worlds = %v, want two distinct (p0, p1)", worlds)
	}
	for i, w := range worlds {
		if !w.cl.Closed() {
			t.Errorf("world of point %d left open", i)
		}
	}
	if len(r.Entries) != 1 || r.Entries[0].Series != "p0" {
		t.Errorf("entries = %+v, want only p0", r.Entries)
	}
}

// TestSweepChecksRowCount: a point whose full scan disagrees with the
// unbounded probe fails.
func TestSweepChecksRowCount(t *testing.T) {
	spec := sweepTestSpec()
	spec.pass = func(ctx context.Context, tbl *memtable.Table, probe *sweepProbe) (int64, error) {
		return probe.rows + 1, nil
	}
	err := sweep(context.Background(), tinyScale(), &Report{}, spec)
	if err == nil || !strings.Contains(err.Error(), "scan returned") {
		t.Fatalf("err = %v, want a row-count mismatch", err)
	}
}
