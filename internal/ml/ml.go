// Package ml implements the machine-learning side of Shark (§4):
// iterative algorithms — logistic regression, k-means, linear
// regression — expressed over RDDs so they share workers, cached data
// and lineage-based fault tolerance with SQL, plus the equivalent
// per-iteration MapReduce drivers used as the paper's Hadoop
// baselines (Figures 11 and 12).
package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"shark/internal/rdd"
	"shark/internal/row"
)

// Vector is a dense float vector.
type Vector []float64

// Zeros allocates an n-vector.
func Zeros(n int) Vector { return make(Vector, n) }

// Clone copies v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Dot returns v·o.
func (v Vector) Dot(o Vector) float64 {
	var s float64
	for i := range v {
		s += v[i] * o[i]
	}
	return s
}

// AddScaled adds s*o to v in place and returns v.
func (v Vector) AddScaled(o Vector, s float64) Vector {
	for i := range v {
		v[i] += s * o[i]
	}
	return v
}

// Scale multiplies in place and returns v.
func (v Vector) Scale(s float64) Vector {
	for i := range v {
		v[i] *= s
	}
	return v
}

// SquaredDistance returns ||v-o||².
func (v Vector) SquaredDistance(o Vector) float64 {
	var s float64
	for i := range v {
		d := v[i] - o[i]
		s += d * d
	}
	return s
}

// LabeledPoint is one training example; Y is ±1 for classification.
type LabeledPoint struct {
	X Vector
	Y float64
}

// RowToLabeledPoint interprets a row as (label, features...).
func RowToLabeledPoint(r row.Row) (LabeledPoint, error) {
	if len(r) < 2 {
		return LabeledPoint{}, fmt.Errorf("ml: row needs label + ≥1 feature, got %d fields", len(r))
	}
	y, ok := row.AsFloat(r[0])
	if !ok {
		return LabeledPoint{}, fmt.Errorf("ml: non-numeric label %v", r[0])
	}
	x := make(Vector, len(r)-1)
	for i := 1; i < len(r); i++ {
		f, ok := row.AsFloat(r[i])
		if !ok {
			return LabeledPoint{}, fmt.Errorf("ml: non-numeric feature %v", r[i])
		}
		x[i-1] = f
	}
	return LabeledPoint{X: x, Y: y}, nil
}

// RowToVector interprets a row as a dense feature vector.
func RowToVector(r row.Row) (Vector, error) {
	x := make(Vector, len(r))
	for i := range r {
		f, ok := row.AsFloat(r[i])
		if !ok {
			return nil, fmt.Errorf("ml: non-numeric feature %v", r[i])
		}
		x[i] = f
	}
	return x, nil
}

// InitWeights returns the deterministic pseudo-random start vector of
// Listing 1 (w = 2*rand - 1 per dimension, fixed seed for
// reproducibility).
func InitWeights(dim int, seed int64) Vector {
	rng := rand.New(rand.NewSource(seed))
	w := Zeros(dim)
	for i := range w {
		w[i] = 2*rng.Float64() - 1
	}
	return w
}

// IterTimer records per-iteration wall-clock (Figures 11/12 report
// per-iteration runtime).
type IterTimer struct {
	Durations []time.Duration
}

func (t *IterTimer) time(f func() error) error {
	start := time.Now()
	err := f()
	t.Durations = append(t.Durations, time.Since(start))
	return err
}

// logisticGradient accumulates one example's gradient contribution
// into grad: (1/(1+exp(-y·w·x)) - 1) · y · x  (Listing 1).
func logisticGradient(grad, w Vector, p LabeledPoint) {
	denom := 1 + math.Exp(-p.Y*w.Dot(p.X))
	scale := (1/denom - 1) * p.Y
	grad.AddScaled(p.X, scale)
}

// LogisticRegression runs gradient descent over an RDD of
// LabeledPoint. Each iteration is one distributed job: map tasks
// accumulate a local gradient per partition and the master sums the
// partials — exactly the §4.1 pipeline. Cache the input RDD to get
// Shark's in-memory iteration speed.
func LogisticRegression(points *rdd.RDD, dim, iters int, lr float64, timer *IterTimer) (Vector, error) {
	return LogisticRegressionCtx(context.Background(), points, dim, iters, lr, timer)
}

// LogisticRegressionCtx is LogisticRegression under a caller context:
// cancellation aborts the current per-iteration job between (or mid)
// partitions.
func LogisticRegressionCtx(ctx context.Context, points *rdd.RDD, dim, iters int, lr float64, timer *IterTimer) (Vector, error) {
	w := InitWeights(dim, 42)
	for it := 0; it < iters; it++ {
		step := func() error {
			wCur := w.Clone() // closure-captured, read-only in tasks
			partials, err := points.MapPartitions(func(_ *rdd.TaskContext, part int, in rdd.Iter) rdd.Iter {
				grad := Zeros(dim)
				for {
					v, ok := in.Next()
					if !ok {
						break
					}
					logisticGradient(grad, wCur, v.(LabeledPoint))
				}
				return rdd.SliceIter([]any{grad})
			}).CollectCtx(ctx)
			if err != nil {
				return err
			}
			grad := Zeros(dim)
			for _, g := range partials {
				grad.AddScaled(g.(Vector), 1)
			}
			w.AddScaled(grad, -lr)
			return nil
		}
		var err error
		if timer != nil {
			err = timer.time(step)
		} else {
			err = step()
		}
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// KMeansCtx clusters an RDD of Vector into k clusters with Lloyd
// iterations; initial centers are the first k points.
func KMeansCtx(ctx context.Context, points *rdd.RDD, k, iters int, timer *IterTimer) ([]Vector, error) {
	seed, err := points.TakeCtx(ctx, k)
	if err != nil {
		return nil, err
	}
	if len(seed) < k {
		return nil, fmt.Errorf("ml: need at least %d points, got %d", k, len(seed))
	}
	centers := make([]Vector, k)
	for i, v := range seed {
		centers[i] = v.(Vector).Clone()
	}
	for it := 0; it < iters; it++ {
		step := func() error {
			cur := make([]Vector, k)
			for i := range centers {
				cur[i] = centers[i].Clone()
			}
			partials, err := points.MapPartitions(func(_ *rdd.TaskContext, part int, in rdd.Iter) rdd.Iter {
				sums, counts := newKMeansAcc(k, len(cur[0]))
				for {
					v, ok := in.Next()
					if !ok {
						break
					}
					x := v.(Vector)
					c := NearestCenter(x, cur)
					sums[c].AddScaled(x, 1)
					counts[c]++
				}
				return rdd.SliceIter([]any{kmeansPartial{sums: sums, counts: counts}})
			}).CollectCtx(ctx)
			if err != nil {
				return err
			}
			sums, counts := newKMeansAcc(k, len(cur[0]))
			for _, p := range partials {
				kp := p.(kmeansPartial)
				for c := 0; c < k; c++ {
					sums[c].AddScaled(kp.sums[c], 1)
					counts[c] += kp.counts[c]
				}
			}
			for c := 0; c < k; c++ {
				if counts[c] > 0 {
					centers[c] = sums[c].Scale(1 / float64(counts[c]))
				}
			}
			return nil
		}
		var err error
		if timer != nil {
			err = timer.time(step)
		} else {
			err = step()
		}
		if err != nil {
			return nil, err
		}
	}
	return centers, nil
}

type kmeansPartial struct {
	sums   []Vector
	counts []int64
}

func newKMeansAcc(k, dim int) ([]Vector, []int64) {
	sums := make([]Vector, k)
	for i := range sums {
		sums[i] = Zeros(dim)
	}
	return sums, make([]int64, k)
}

// NearestCenter returns the index of the closest center to x.
func NearestCenter(x Vector, centers []Vector) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range centers {
		if d := x.SquaredDistance(c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// LinearRegressionCtx fits w minimizing Σ(w·x − y)² by gradient
// descent over an RDD of LabeledPoint.
func LinearRegressionCtx(ctx context.Context, points *rdd.RDD, dim, iters int, lr float64, timer *IterTimer) (Vector, error) {
	w := InitWeights(dim, 7)
	n, err := points.CountCtx(ctx)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	for it := 0; it < iters; it++ {
		step := func() error {
			wCur := w.Clone()
			partials, err := points.MapPartitions(func(_ *rdd.TaskContext, part int, in rdd.Iter) rdd.Iter {
				grad := Zeros(dim)
				for {
					v, ok := in.Next()
					if !ok {
						break
					}
					p := v.(LabeledPoint)
					grad.AddScaled(p.X, 2*(wCur.Dot(p.X)-p.Y))
				}
				return rdd.SliceIter([]any{grad})
			}).CollectCtx(ctx)
			if err != nil {
				return err
			}
			grad := Zeros(dim)
			for _, g := range partials {
				grad.AddScaled(g.(Vector), 1)
			}
			w.AddScaled(grad, -lr/float64(n))
			return nil
		}
		var err error
		if timer != nil {
			err = timer.time(step)
		} else {
			err = step()
		}
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}
