package fanout

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	sizes   = []int{0, 1, 5, 64}
	widths  = []int{0, 1, 2, 3, 8, 16}
	errCell = errors.New("cell failed")
)

// goid returns the current goroutine's ID, parsed from its stack header
// ("goroutine 18 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRunCoversEachIndexOnce: every index of [0, n) is handed out exactly
// once, in nonempty contiguous ranges inside [0, n).
func TestRunCoversEachIndexOnce(t *testing.T) {
	for _, n := range sizes {
		for _, w := range widths {
			t.Run(fmt.Sprintf("n%d/w%d", n, w), func(t *testing.T) {
				hits := make([]atomic.Int32, n)
				err := Run(n, w, 0, func(_, lo, hi int) error {
					if lo < 0 || hi > n || lo >= hi {
						return fmt.Errorf("range [%d, %d) outside [0, %d) or empty", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Errorf("index %d handed out %d times", i, got)
					}
				}
			})
		}
	}
}

// TestRunSerialOnCaller: with one worker, the whole range runs as one call
// on the calling goroutine, on track tid.
func TestRunSerialOnCaller(t *testing.T) {
	const tid = 7
	for _, n := range sizes {
		for _, w := range widths {
			if n == 0 || min(w, n) > 1 {
				continue
			}
			t.Run(fmt.Sprintf("n%d/w%d", n, w), func(t *testing.T) {
				caller := goid()
				calls := 0
				err := Run(n, w, tid, func(track, lo, hi int) error {
					calls++
					if track != tid || lo != 0 || hi != n {
						t.Errorf("serial call (track %d, [%d, %d)), want (track %d, [0, %d))", track, lo, hi, tid, n)
					}
					if g := goid(); g != caller {
						t.Errorf("serial work ran on goroutine %d, caller is %d", g, caller)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if calls != 1 {
					t.Errorf("work called %d times, want 1", calls)
				}
			})
		}
	}
}

// TestRunParallelTracks: a parallel run uses exactly tracks 1..min(workers,
// n). Each worker's first range waits until every track has started one,
// so no worker can take the whole grid before the others start.
func TestRunParallelTracks(t *testing.T) {
	for _, n := range sizes {
		for _, w := range widths {
			k := min(w, n)
			if k <= 1 {
				continue
			}
			t.Run(fmt.Sprintf("n%d/w%d", n, w), func(t *testing.T) {
				seen := make([]atomic.Bool, k+1)
				var started atomic.Int32
				all := make(chan struct{})
				caller := goid()
				err := Run(n, w, 0, func(track, _, _ int) error {
					if track < 1 || track > k {
						return fmt.Errorf("track %d outside 1..%d", track, k)
					}
					if goid() == caller {
						return errors.New("parallel work ran on the calling goroutine")
					}
					if !seen[track].Swap(true) && started.Add(1) == int32(k) {
						close(all)
					}
					select {
					case <-all:
						return nil
					case <-time.After(10 * time.Second):
						return fmt.Errorf("only %d of %d tracks started", started.Load(), k)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRunStopsAfterError: the error of a failing range is returned, and
// after it each other worker starts at most one more range (one it claimed
// before the failure was recorded). Run records a failure right after the
// failing range returns, which no test can observe, so a range that starts
// after the failure pauses for far longer than that step takes before its
// worker may claim again.
func TestRunStopsAfterError(t *testing.T) {
	for _, n := range sizes {
		for _, w := range widths {
			if n == 0 {
				continue
			}
			t.Run(fmt.Sprintf("n%d/w%d", n, w), func(t *testing.T) {
				k := min(w, n)
				var failed atomic.Bool
				var mu sync.Mutex
				late := make(map[int]int) // track → ranges started after the failure
				err := Run(n, w, 0, func(track, lo, _ int) error {
					if lo == 0 {
						failed.Store(true)
						return errCell
					}
					if failed.Load() {
						mu.Lock()
						late[track]++
						mu.Unlock()
						time.Sleep(10 * time.Millisecond)
					}
					return nil
				})
				if !errors.Is(err, errCell) {
					t.Fatalf("Run returned %v, want %v", err, errCell)
				}
				for track, starts := range late {
					if track < 1 || track > k {
						t.Errorf("track %d outside 1..%d", track, k)
					}
					if starts > 1 {
						t.Errorf("track %d started %d ranges after the failure, want at most 1", track, starts)
					}
				}
			})
		}
	}
}

// TestRunManyErrors: when every range fails, possibly at once, Run returns
// one of their errors.
func TestRunManyErrors(t *testing.T) {
	for _, w := range widths {
		err := Run(64, w, 0, func(_, lo, _ int) error {
			return fmt.Errorf("range at %d: %w", lo, errCell)
		})
		if !errors.Is(err, errCell) {
			t.Errorf("workers %d: Run returned %v, want a wrapped %v", w, err, errCell)
		}
	}
}
