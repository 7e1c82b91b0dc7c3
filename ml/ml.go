// Package ml is the public machine-learning API (paper §4): iterative
// algorithms over RDDs that share the cluster, cached data and
// lineage-based fault tolerance with SQL queries.
package ml

import (
	"context"

	"shark/internal/ml"
	"shark/internal/rdd"
)

// Re-exported types.
type (
	// Vector is a dense float vector.
	Vector = ml.Vector
	// LabeledPoint is one training example (Y = ±1 for classifiers).
	LabeledPoint = ml.LabeledPoint
	// IterTimer records per-iteration wall-clock times.
	IterTimer = ml.IterTimer
)

// Zeros allocates an n-vector.
func Zeros(n int) Vector { return ml.Zeros(n) }

// RowToLabeledPoint interprets a row as (label, features...).
var RowToLabeledPoint = ml.RowToLabeledPoint

// RowToVector interprets a row as a feature vector.
var RowToVector = ml.RowToVector

// LogisticRegression trains a binary classifier by gradient descent
// over an RDD of LabeledPoint; each iteration is one distributed job.
func LogisticRegression(points *rdd.RDD, dim, iters int, lr float64, timer *IterTimer) (Vector, error) {
	return ml.LogisticRegression(points, dim, iters, lr, timer)
}

// LogisticRegressionCtx is LogisticRegression under a caller context:
// cancellation aborts the in-flight iteration's job.
func LogisticRegressionCtx(ctx context.Context, points *rdd.RDD, dim, iters int, lr float64, timer *IterTimer) (Vector, error) {
	return ml.LogisticRegressionCtx(ctx, points, dim, iters, lr, timer)
}

// KMeans clusters an RDD of Vector with Lloyd iterations.
func KMeans(points *rdd.RDD, k, iters int, timer *IterTimer) ([]Vector, error) {
	return ml.KMeansCtx(context.Background(), points, k, iters, timer)
}

// KMeansCtx is KMeans under a caller context.
func KMeansCtx(ctx context.Context, points *rdd.RDD, k, iters int, timer *IterTimer) ([]Vector, error) {
	return ml.KMeansCtx(ctx, points, k, iters, timer)
}

// LinearRegression fits least squares by gradient descent over an RDD
// of LabeledPoint.
func LinearRegression(points *rdd.RDD, dim, iters int, lr float64, timer *IterTimer) (Vector, error) {
	return ml.LinearRegressionCtx(context.Background(), points, dim, iters, lr, timer)
}

// LinearRegressionCtx is LinearRegression under a caller context.
func LinearRegressionCtx(ctx context.Context, points *rdd.RDD, dim, iters int, lr float64, timer *IterTimer) (Vector, error) {
	return ml.LinearRegressionCtx(ctx, points, dim, iters, lr, timer)
}

// NearestCenter returns the closest center index to x.
func NearestCenter(x Vector, centers []Vector) int { return ml.NearestCenter(x, centers) }
