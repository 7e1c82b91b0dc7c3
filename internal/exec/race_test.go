//go:build race

package exec

// raceDetector reports whether the tests run under -race, whose runtime
// allocates a temporary for append(s, make([]T, n)...) — so for every
// slices.Grow — and pads small allocations: byte budgets do not hold.
const raceDetector = true
