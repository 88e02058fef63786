package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRetryPolicyDelay(t *testing.T) {
	cases := []struct {
		name    string
		policy  RetryPolicy
		attempt int
		want    time.Duration
	}{
		{"no base means no wait", RetryPolicy{MaxRetries: 3}, 0, 0},
		{"first retry waits base", RetryPolicy{Base: time.Millisecond}, 0, time.Millisecond},
		{"doubles by default", RetryPolicy{Base: time.Millisecond}, 1, 2 * time.Millisecond},
		{"third attempt quadruples", RetryPolicy{Base: time.Millisecond}, 2, 4 * time.Millisecond},
		{"default cap is 64x base", RetryPolicy{Base: time.Millisecond}, 20, 64 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Delay(tc.attempt); got != tc.want {
				t.Fatalf("Delay(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
		})
	}
}

func TestRetry(t *testing.T) {
	transient := MarkTransient(errors.New("flaky"))
	permanent := errors.New("permanent")
	cases := []struct {
		name      string
		policy    RetryPolicy
		failures  int   // calls that fail before success
		failWith  error // error returned by failing calls
		wantCalls int
		wantErr   error
	}{
		{"immediate success", RetryPolicy{MaxRetries: 3}, 0, nil, 1, nil},
		{"recovers within budget", RetryPolicy{MaxRetries: 3, Base: time.Millisecond}, 2, transient, 3, nil},
		{"exhausts budget", RetryPolicy{MaxRetries: 2, Base: time.Millisecond}, 5, transient, 3, transient},
		{"permanent error stops retries", RetryPolicy{MaxRetries: 3, Base: time.Millisecond}, 5, permanent, 1, permanent},
		{"zero retries", RetryPolicy{}, 1, transient, 1, transient},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := NewAutoClock(time.Unix(0, 0))
			calls := 0
			err := Retry(context.Background(), clock, tc.policy, func(attempt int) error {
				if attempt != calls {
					t.Fatalf("attempt %d on call %d", attempt, calls)
				}
				calls++
				if calls <= tc.failures {
					return tc.failWith
				}
				return nil
			})
			if calls != tc.wantCalls {
				t.Fatalf("fn called %d times, want %d", calls, tc.wantCalls)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Retry = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestRetryBacksOffOnClock(t *testing.T) {
	clock := NewAutoClock(time.Unix(0, 0))
	start := clock.Now()
	err := Retry(context.Background(), clock, RetryPolicy{MaxRetries: 3, Base: time.Second}, func(int) error {
		return MarkTransient(errors.New("flaky"))
	})
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	// Delays are 1s + 2s + 4s, all taken on the fake clock.
	if got, want := clock.Now().Sub(start), 7*time.Second; got != want {
		t.Fatalf("slept %v on the clock, want %v", got, want)
	}
}

func TestRetryHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	clock := NewFakeClock(time.Unix(0, 0)) // no auto-advance: a real wait would hang
	calls := 0
	err := Retry(ctx, clock, RetryPolicy{MaxRetries: 5, Base: time.Second}, func(int) error {
		calls++
		return MarkTransient(errors.New("flaky"))
	})
	if calls != 1 {
		t.Fatalf("fn called %d times under cancelled ctx, want 1", calls)
	}
	if !IsTransient(err) {
		t.Fatalf("want last transient error back, got %v", err)
	}
}

func TestTransientMarking(t *testing.T) {
	base := errors.New("boom")
	if IsTransient(base) {
		t.Fatal("unmarked error reported transient")
	}
	marked := MarkTransient(base)
	if !IsTransient(marked) {
		t.Fatal("marked error not reported transient")
	}
	wrapped := fmt.Errorf("outer: %w", marked)
	if !IsTransient(wrapped) {
		t.Fatal("wrapping lost the transient mark")
	}
	if !errors.Is(wrapped, base) {
		t.Fatal("marking broke errors.Is")
	}
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) must stay nil")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	type step struct {
		op        string // "fail", "ok", "allow", "deny"
		wantState BreakerState
		advance   time.Duration
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"stays closed under sparse failures", []step{
			{op: "fail", wantState: BreakerClosed},
			{op: "ok", wantState: BreakerClosed},
			{op: "fail", wantState: BreakerClosed},
			{op: "allow", wantState: BreakerClosed},
		}},
		{"opens at threshold and rejects", []step{
			{op: "fail", wantState: BreakerClosed},
			{op: "fail", wantState: BreakerOpen},
			{op: "deny", wantState: BreakerOpen},
		}},
		{"half-opens after cooldown, probe success closes", []step{
			{op: "fail", wantState: BreakerClosed},
			{op: "fail", wantState: BreakerOpen},
			{op: "deny", wantState: BreakerOpen, advance: 5 * time.Second},
			{op: "allow", wantState: BreakerHalfOpen, advance: 6 * time.Second},
			{op: "deny", wantState: BreakerHalfOpen}, // single probe only
			{op: "ok", wantState: BreakerClosed},
			{op: "allow", wantState: BreakerClosed},
		}},
		{"probe failure re-opens", []step{
			{op: "fail", wantState: BreakerClosed},
			{op: "fail", wantState: BreakerOpen},
			{op: "allow", wantState: BreakerHalfOpen, advance: 11 * time.Second},
			{op: "fail", wantState: BreakerOpen},
			{op: "deny", wantState: BreakerOpen},
			{op: "allow", wantState: BreakerHalfOpen, advance: 11 * time.Second},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := NewFakeClock(time.Unix(0, 0))
			b := NewBreaker(2, 10*time.Second, clock)
			for i, s := range tc.steps {
				clock.Advance(s.advance)
				switch s.op {
				case "fail":
					b.Failure()
				case "ok":
					b.Success()
				case "allow":
					if !b.Allow() {
						t.Fatalf("step %d: Allow() = false, want true", i)
					}
				case "deny":
					if b.Allow() {
						t.Fatalf("step %d: Allow() = true, want false", i)
					}
				}
				if got := b.State(); got != s.wantState {
					t.Fatalf("step %d (%s): state %v, want %v", i, s.op, got, s.wantState)
				}
			}
		})
	}
}

func TestBreakerConcurrentProbe(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	b := NewBreaker(1, time.Second, clock)
	b.Failure()
	clock.Advance(2 * time.Second)
	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("half-open breaker admitted %d probes, want exactly 1", admitted)
	}
}

func TestContextWithTimeoutFakeClock(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	ctx, cancel := ContextWithTimeout(context.Background(), clock, time.Second)
	defer cancel()
	select {
	case <-ctx.Done():
		t.Fatal("context done before the clock advanced")
	default:
	}
	clock.Advance(2 * time.Second)
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context never expired after clock advance")
	}
	if cause := context.Cause(ctx); !errors.Is(cause, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want DeadlineExceeded", cause)
	}
}

func TestFakeClockAdvanceFiresDueWaiters(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	early := clock.After(time.Second)
	late := clock.After(time.Minute)
	clock.Advance(2 * time.Second)
	select {
	case <-early:
	default:
		t.Fatal("1s waiter did not fire after 2s advance")
	}
	select {
	case <-late:
		t.Fatal("1m waiter fired after only 2s")
	default:
	}
}
