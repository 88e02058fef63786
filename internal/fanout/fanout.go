// Package fanout runs the indices of a grid over a bounded set of workers.
// Algorithm 1's (node, repeat) cells, the whole-host model's (target, mode)
// sweeps and the scenario grid's cases all go through Run.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Run calls work over the index range [0, n), split into contiguous
// [lo, hi) ranges, on at most workers goroutines. track names the trace
// track the range runs on.
//
// With one worker (workers <= 1, or n == 1) Run calls work(tid, 0, n) on the
// calling goroutine; with n == 0 it does nothing. Otherwise k = min(workers,
// n) workers on tracks 1..k claim ranges of max(1, n/(4k)) indices off one
// atomic counter: big enough that claiming costs a handful of atomic adds
// per grid, small enough (about four ranges per worker) that an unlucky
// worker cannot strand a long tail.
//
// After a range fails, no worker claims a new one, and Run returns the
// first error once every worker has stopped. Callers index their results
// by grid position, so the schedule cannot change what they assemble.
func Run(n, workers, tid int, work func(track, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	k := min(workers, n)
	if k <= 1 {
		return work(tid, 0, n)
	}
	chunk := max(1, n/(4*k))
	var (
		next     atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for track := 1; track <= k; track++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if err := work(track, lo, min(hi, n)); err != nil {
					once.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
