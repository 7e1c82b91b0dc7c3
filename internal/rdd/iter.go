// Package rdd implements Resilient Distributed Datasets and the DAG
// scheduler that executes them on the simulated cluster (paper §2.1,
// §2.2): immutable partitioned collections built by deterministic
// operators, lineage-based recovery of lost partitions, in-memory
// caching in worker block stores, shuffle dependencies with map-side
// combining, speculative execution, and the partial-DAG-execution
// hooks (§3.1) that let a query materialize a shuffle stage, inspect
// its statistics, and only then decide the downstream plan.
package rdd

import "fmt"

// Iter is a pull iterator over partition elements. Failures inside
// iterators propagate by panicking with an error value; the cluster's
// task wrapper recovers them into task failures, which the scheduler
// retries (this mirrors how JVM engines use exceptions for task
// failure).
type Iter interface {
	Next() (any, bool)
}

// sliceIter iterates a materialized partition.
type sliceIter struct {
	data []any
	i    int
}

// SliceIter returns an Iter over data.
func SliceIter(data []any) Iter { return &sliceIter{data: data} }

func (s *sliceIter) Next() (any, bool) {
	if s.i >= len(s.data) {
		return nil, false
	}
	v := s.data[s.i]
	s.i++
	return v, true
}

// FuncIter adapts a closure to Iter.
type FuncIter func() (any, bool)

// Next implements Iter.
func (f FuncIter) Next() (any, bool) { return f() }

// Drain materializes an iterator.
func Drain(it Iter) []any {
	var out []any
	for {
		v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// EmptyIter yields nothing.
func EmptyIter() Iter { return FuncIter(func() (any, bool) { return nil, false }) }

// Fail aborts the running task with err (recovered by the executor).
func Fail(err error) {
	panic(fmt.Errorf("rdd task failed: %w", err))
}

func mapIter(in Iter, f func(any) any) Iter {
	return FuncIter(func() (any, bool) {
		v, ok := in.Next()
		if !ok {
			return nil, false
		}
		return f(v), true
	})
}

func filterIter(in Iter, pred func(any) bool) Iter {
	return FuncIter(func() (any, bool) {
		for {
			v, ok := in.Next()
			if !ok {
				return nil, false
			}
			if pred(v) {
				return v, true
			}
		}
	})
}

func flatMapIter(in Iter, f func(any) []any) Iter {
	var pending []any
	return FuncIter(func() (any, bool) {
		for {
			if len(pending) > 0 {
				v := pending[0]
				pending = pending[1:]
				return v, true
			}
			v, ok := in.Next()
			if !ok {
				return nil, false
			}
			pending = f(v)
		}
	})
}
