// Package parallel is the shared worker-pool execution layer of the
// benchmark: a bounded pool with deterministic, index-ordered semantics.
//
// Every fan-out in the repo (dataset×setting cells in bench.Run, grid
// branches in the tuners, the per-entity steps of one batch filter run)
// goes through ForEach, Map or Ranges so that the same guarantees hold
// everywhere:
//
//   - work items are identified by their index in a canonical enumeration
//     order, and results/errors are reduced by that index, never by
//     completion order;
//   - a panic inside a work item is recovered and surfaced as a
//     *PanicError instead of killing the process from a bare goroutine;
//   - after the first failure no further items are started
//     (cancellation), and the error reported is the failed item with the
//     lowest index among those that ran — the same error a sequential
//     loop would have returned.
//
// Together these make a parallel grid search a pure performance
// optimization: byte-identical outputs at any worker count.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: values <= 0 select
// runtime.GOMAXPROCS(0), the cores the process may run on, everything else
// is returned unchanged. A count of 1 runs the items one after another on
// the calling goroutine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError wraps a panic recovered from a work item.
type PanicError struct {
	// Index of the work item that panicked.
	Index int
	// Value passed to panic.
	Value any
	// Stack of the panicking goroutine at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: work item %d panicked: %v", e.Index, e.Value)
}

// call runs fn(i), converting a panic into a *PanicError.
func call(fn func(int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 4096)
			err = &PanicError{Index: i, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	return fn(i)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (Workers(workers) resolves the count). Items are dispatched in index
// order; once any item fails, no new items are started. The returned
// error is the one from the lowest-index item that ran and failed, so the
// outcome is independent of goroutine scheduling.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Sequential path: identical dispatch order and first-error
		// semantics, minus the goroutines.
		for i := 0; i < n; i++ {
			if err := call(fn, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := call(fn, i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results in index order — the canonical reduction order for
// deterministic grid searches. Error semantics match ForEach; on error
// the partial results are discarded.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Ranges cuts [0, n) into one contiguous range per runtime.GOMAXPROCS(0)
// worker, runs fn(lo, hi) for each on its own goroutine and returns the
// results in range order: range r ends where range r+1 begins, so whatever
// fn builds, concatenated in that order, is what one loop over [0, n)
// builds. At GOMAXPROCS 1 it is that loop. One range per worker keeps the
// per-range state — a prober's scratch, a chunk's dictionary — to one per
// core; cutting finer balanced no better on the batch workload and held
// more memory. A panic in fn is re-raised as its *PanicError.
func Ranges[T any](n int, fn func(lo, hi int) T) []T {
	k := min(n, runtime.GOMAXPROCS(0))
	out, err := Map(k, k, func(r int) (T, error) { return fn(r*n/k, (r+1)*n/k), nil })
	if err != nil {
		panic(err)
	}
	return out
}
