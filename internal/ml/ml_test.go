package ml

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"shark/internal/cluster"
	"shark/internal/dfs"
	"shark/internal/mr"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

func newCtx(t *testing.T) *rdd.Context {
	t.Helper()
	c := cluster.New(cluster.Config{Workers: 4, Slots: 2})
	t.Cleanup(c.Close)
	return rdd.NewContext(c, shuffle.NewService(c, shuffle.Memory, t.TempDir()), rdd.Options{})
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	o := Vector{4, 5, 6}
	if v.Dot(o) != 32 {
		t.Errorf("dot = %v", v.Dot(o))
	}
	w := v.Clone().AddScaled(o, 2)
	if w[0] != 9 || w[2] != 15 {
		t.Errorf("addScaled = %v", w)
	}
	if v[0] != 1 {
		t.Error("clone should not alias")
	}
	if d := (Vector{0, 0}).SquaredDistance(Vector{3, 4}); d != 25 {
		t.Errorf("dist = %v", d)
	}
}

// separablePoints makes linearly separable data: label = sign(x·trueW).
func separablePoints(n, dim int, seed int64) ([]LabeledPoint, Vector) {
	rng := rand.New(rand.NewSource(seed))
	trueW := Zeros(dim)
	for i := range trueW {
		trueW[i] = rng.NormFloat64()
	}
	pts := make([]LabeledPoint, n)
	for i := range pts {
		x := Zeros(dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := 1.0
		if x.Dot(trueW) < 0 {
			y = -1.0
		}
		pts[i] = LabeledPoint{X: x, Y: y}
	}
	return pts, trueW
}

func accuracy(w Vector, pts []LabeledPoint) float64 {
	right := 0
	for _, p := range pts {
		pred := 1.0
		if w.Dot(p.X) < 0 {
			pred = -1.0
		}
		if pred == p.Y {
			right++
		}
	}
	return float64(right) / float64(len(pts))
}

func TestLogisticRegressionLearns(t *testing.T) {
	ctx := newCtx(t)
	pts, _ := separablePoints(2000, 5, 11)
	data := make([]any, len(pts))
	for i, p := range pts {
		data[i] = p
	}
	rddPts := ctx.Parallelize(data, 8).Cache()
	timer := &IterTimer{}
	w, err := LogisticRegression(rddPts, 5, 10, 0.001, timer)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(w, pts); acc < 0.9 {
		t.Errorf("accuracy = %.3f, want > 0.9", acc)
	}
	if len(timer.Durations) != 10 {
		t.Errorf("iterations timed = %d", len(timer.Durations))
	}
}

func TestKMeansFindsClusters(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(5))
	trueCenters := []Vector{{0, 0}, {10, 10}, {-10, 10}}
	var data []any
	for i := 0; i < 1500; i++ {
		c := trueCenters[i%3]
		data = append(data, Vector{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()})
	}
	rddPts := ctx.Parallelize(data, 6).Cache()
	centers, err := KMeansCtx(t.Context(), rddPts, 3, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// every true center must be near some found center
	for _, tc := range trueCenters {
		best := math.Inf(1)
		for _, c := range centers {
			if d := tc.SquaredDistance(c); d < best {
				best = d
			}
		}
		if best > 1.0 {
			t.Errorf("center %v not found (closest dist² %.2f); got %v", tc, best, centers)
		}
	}
}

func TestLinearRegressionFits(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(9))
	trueW := Vector{2.0, -3.0, 0.5}
	var data []any
	var pts []LabeledPoint
	for i := 0; i < 2000; i++ {
		x := Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		p := LabeledPoint{X: x, Y: x.Dot(trueW) + rng.NormFloat64()*0.01}
		pts = append(pts, p)
		data = append(data, p)
	}
	rddPts := ctx.Parallelize(data, 8).Cache()
	w, err := LinearRegressionCtx(t.Context(), rddPts, 3, 200, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trueW {
		if math.Abs(w[i]-trueW[i]) > 0.1 {
			t.Errorf("w[%d] = %.3f, want %.3f", i, w[i], trueW[i])
		}
	}
	_ = pts
}

func TestRowConversions(t *testing.T) {
	p, err := RowToLabeledPoint(row.Row{float64(1), float64(2), int64(3)})
	if err != nil || p.Y != 1 || p.X[1] != 3 {
		t.Errorf("point = %+v, err %v", p, err)
	}
	if _, err := RowToLabeledPoint(row.Row{float64(1)}); err == nil {
		t.Error("too short row must fail")
	}
	if _, err := RowToLabeledPoint(row.Row{"x", float64(1)}); err == nil {
		t.Error("bad label must fail")
	}
	v, err := RowToVector(row.Row{float64(1), int64(2)})
	if err != nil || v[1] != 2 {
		t.Errorf("vector = %v", v)
	}
}

func TestInitWeightsDeterministic(t *testing.T) {
	a := InitWeights(10, 42)
	b := InitWeights(10, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
		if a[i] < -1 || a[i] > 1 {
			t.Fatalf("out of range: %v", a[i])
		}
	}
}

// --- MR baselines ---

func newMREnv(t *testing.T) (*mr.Engine, *dfs.FS) {
	t.Helper()
	c := cluster.New(cluster.Config{Workers: 4, Slots: 2})
	t.Cleanup(c.Close)
	fs, err := dfs.New(dfs.Config{Dir: t.TempDir(), BlockSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return mr.NewEngine(c, fs, t.TempDir()), fs
}

func writePointsFile(t *testing.T, fs *dfs.FS, name string, pts []LabeledPoint, format dfs.Format) {
	t.Helper()
	dim := len(pts[0].X)
	schema := row.Schema{{Name: "y", Type: row.TFloat}}
	for i := 0; i < dim; i++ {
		schema = append(schema, row.Field{Name: "x", Type: row.TFloat})
	}
	w, err := fs.Create(name, format, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		r := make(row.Row, dim+1)
		r[0] = p.Y
		for i, f := range p.X {
			r[i+1] = f
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogisticRegressionMRMatchesRDD(t *testing.T) {
	eng, fs := newMREnv(t)
	pts, _ := separablePoints(1200, 4, 21)
	writePointsFile(t, fs, "points", pts, dfs.Binary)
	timer := &IterTimer{}
	w, err := LogisticRegressionMR(eng, "points", 4, 5, 0.001, timer)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(w, pts); acc < 0.85 {
		t.Errorf("MR accuracy = %.3f", acc)
	}
	if len(timer.Durations) != 5 {
		t.Errorf("iterations = %d", len(timer.Durations))
	}

	// The MR and RDD implementations are the same algorithm: weights
	// must agree to floating-point precision.
	ctx := newCtx(t)
	data := make([]any, len(pts))
	for i, p := range pts {
		data[i] = p
	}
	w2, err := LogisticRegression(ctx.Parallelize(data, 6), 4, 5, 0.001, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Abs(w[i]-w2[i]) > 1e-6 {
			t.Errorf("w[%d]: MR %.9f vs RDD %.9f", i, w[i], w2[i])
		}
	}
}

func TestKMeansMRConverges(t *testing.T) {
	eng, fs := newMREnv(t)
	rng := rand.New(rand.NewSource(13))
	trueCenters := []Vector{{0, 0}, {20, 20}}
	var pts []LabeledPoint
	var vecs []Vector
	for i := 0; i < 800; i++ {
		c := trueCenters[i%2]
		v := Vector{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()}
		vecs = append(vecs, v)
		pts = append(pts, LabeledPoint{X: v, Y: 0})
	}
	// write features-only file
	schema := row.Schema{{Name: "x0", Type: row.TFloat}, {Name: "x1", Type: row.TFloat}}
	w, err := fs.Create("kpoints", dfs.Binary, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs {
		if err := w.Write(row.Row{v[0], v[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	centers, err := KMeansMR(eng, "kpoints", 2, 2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range trueCenters {
		best := math.Inf(1)
		for _, c := range centers {
			if d := tc.SquaredDistance(c); d < best {
				best = d
			}
		}
		if best > 1.0 {
			t.Errorf("MR kmeans missed center %v: %v", tc, centers)
		}
	}
}

func TestMLSurvivesWorkerFailure(t *testing.T) {
	// §4.2: lineage covers the ML stage too — kill a worker between
	// iterations and training still completes correctly.
	ctx := newCtx(t)
	pts, _ := separablePoints(1000, 4, 31)
	data := make([]any, len(pts))
	for i, p := range pts {
		data[i] = p
	}
	rddPts := ctx.Parallelize(data, 8).Cache()
	if _, err := LogisticRegression(rddPts, 4, 2, 0.001, nil); err != nil {
		t.Fatal(err)
	}
	ctx.Cluster.Kill(2)
	ctx.NotifyWorkerLost(2)
	w, err := LogisticRegression(rddPts, 4, 5, 0.001, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(w, pts); acc < 0.85 {
		t.Errorf("post-failure accuracy = %.3f", acc)
	}
}

// A cancelled context must abort training instead of running every
// iteration's job to completion — the cancellation path the Ctx
// variants exist for.
func TestTrainingHonorsCancelledContext(t *testing.T) {
	ctx := newCtx(t)
	pts, _ := separablePoints(500, 5, 11)
	data := make([]any, len(pts))
	for i, p := range pts {
		data[i] = p
	}
	rddPts := ctx.Parallelize(data, 8)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LogisticRegressionCtx(cctx, rddPts, 5, 10, 0.001, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("LogisticRegressionCtx err = %v, want context.Canceled", err)
	}
	if _, err := KMeansCtx(cctx, rddPts, 2, 3, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("KMeansCtx err = %v, want context.Canceled", err)
	}
	if _, err := LinearRegressionCtx(cctx, rddPts, 5, 3, 0.001, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("LinearRegressionCtx err = %v, want context.Canceled", err)
	}
}
