package loadgen

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Histogram behavior is tested in internal/telemetry, where the shared
// implementation lives.

// TestRunRequestCap: a request-capped run issues exactly that many
// requests across workers and counts errors.
func TestRunRequestCap(t *testing.T) {
	var calls, fails atomic.Int64
	res, err := Run(Config{
		Concurrency: 4,
		Requests:    100,
		DoTagged: func(string) error {
			if calls.Add(1)%10 == 0 {
				fails.Add(1)
				return errors.New("boom")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 100 || res.Requests != 100 {
		t.Errorf("calls = %d, result.Requests = %d, want 100", calls.Load(), res.Requests)
	}
	if res.Errors != fails.Load() {
		t.Errorf("errors = %d, want %d", res.Errors, fails.Load())
	}
	if res.RPS <= 0 || res.P99 < res.P50 || res.Max < res.P99 {
		t.Errorf("implausible stats: %+v", res)
	}
}

// TestRunDurationCap: a duration-capped run stops near the deadline.
func TestRunDurationCap(t *testing.T) {
	res, err := Run(Config{
		Concurrency: 2,
		Duration:    50 * time.Millisecond,
		DoTagged: func(string) error {
			time.Sleep(time.Millisecond)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if res.Duration > time.Second {
		t.Errorf("run overshot its deadline: %v", res.Duration)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{Requests: 1}); err == nil {
		t.Error("nil DoTagged should fail")
	}
	if _, err := Run(Config{DoTagged: func(string) error { return nil }}); err == nil {
		t.Error("no cap should fail")
	}
}

// TestRunTagged: a DoTagged run hands every request a unique generated ID
// and surfaces slowest-decile exemplar IDs in the result.
func TestRunTagged(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]bool)
	var calls atomic.Int64
	res, err := Run(Config{
		Concurrency: 4,
		Requests:    80,
		DoTagged: func(id string) error {
			mu.Lock()
			dup := seen[id]
			seen[id] = true
			mu.Unlock()
			if dup {
				t.Errorf("request ID %q issued twice", id)
			}
			if !strings.HasPrefix(id, "load-") {
				t.Errorf("request ID %q lacks the load- prefix", id)
			}
			// Every ~10th request is slow, so the slowest decile is
			// populated and its exemplars point at real IDs.
			if calls.Add(1)%10 == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 80 || len(seen) != 80 {
		t.Errorf("requests = %d, distinct IDs = %d, want 80", res.Requests, len(seen))
	}
	if len(res.SlowExemplars) == 0 {
		t.Fatal("no slowest-decile exemplars surfaced")
	}
	for _, ex := range res.SlowExemplars {
		if !seen[ex.ID] {
			t.Errorf("exemplar %q names an ID no request carried", ex.ID)
		}
	}
}
