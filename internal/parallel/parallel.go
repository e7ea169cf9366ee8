// Package parallel provides the bounded, deterministic fan-out primitive
// used by the dataset generators and experiment drivers. Work items are
// claimed from an atomic counter by a fixed pool of workers and every
// result is written to the slot matching its item index, so the output
// order is a pure function of the input order — never of goroutine
// scheduling. Combined with the per-device sub-RNG derivation in
// internal/testbed (seed ⊕ hash(deviceID)), this is what lets the
// pipeline fan per-device generation out across cores while keeping the
// byte-identity determinism regressions green for any worker count.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a worker-count setting: values ≤ 0 mean "one worker
// per available CPU" (GOMAXPROCS). The -workers flags of cmd/gendata and
// cmd/experiments pass their value through unchanged, so 0 is the
// use-all-cores default everywhere.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Map applies fn to every item on up to Resolve(workers) goroutines and
// returns the results in item order. fn receives the item index and the
// item; it must be safe to call concurrently and should depend only on
// its arguments (derive per-item RNGs, never share one) so that the
// result is identical for every worker count. Item 0 is special-cased to
// run inline when there is nothing to parallelize.
func Map[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out
	}
	w := Resolve(workers)
	if w > len(items) {
		w = len(items)
	}
	if w == 1 {
		for i, item := range items {
			out[i] = fn(i, item)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				out[i] = fn(i, items[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// FirstError collects the first error reported by concurrent workers,
// keyed by the lowest item index so the winner is deterministic even
// when several workers fail.
type FirstError struct {
	mu  sync.Mutex // guards err, idx
	err error
	idx int
}

// Report records err for item index i; the error with the lowest index
// wins. A nil err is ignored.
func (fe *FirstError) Report(i int, err error) {
	if err == nil {
		return
	}
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.err == nil || i < fe.idx {
		fe.err, fe.idx = err, i
	}
}

// Err returns the recorded error, if any.
func (fe *FirstError) Err() error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return fe.err
}
