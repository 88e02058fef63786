// Package resilience holds the small fault-tolerance primitives the
// characterization pipeline and the numaiod daemon share: a clock
// abstraction (so retry backoff and circuit-breaker cooldowns are testable
// without real sleeps), a deterministic exponential-backoff retry policy,
// transient-error marking, and a closed/open/half-open circuit breaker.
//
// Everything here is deliberately deterministic: Delay carries no random
// jitter, so a chaos characterization retried under a seeded fault plan
// (internal/faults) reproduces bit for bit. See docs/RESILIENCE.md.
package resilience

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Clock abstracts time for retry backoff, breaker cooldowns and
// per-measurement timeouts. Production code uses SystemClock; tests use
// FakeClock and never sleep.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// SystemClock is the real time.Now/time.After clock.
type SystemClock struct{}

// Now returns the wall-clock time.
func (SystemClock) Now() time.Time { return time.Now() }

// After waits on the real timer.
func (SystemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeClock is a manually advanced clock for tests. With AutoAdvance set,
// every After call advances the clock by the requested duration and returns
// an already-fired channel, so code that sleeps between retries runs
// instantly while still recording how long it would have waited.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	auto    bool
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock returns a fake clock starting at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// NewAutoClock returns a fake clock that auto-advances on every After call.
func NewAutoClock(start time.Time) *FakeClock {
	return &FakeClock{now: start, auto: true}
}

// Now returns the fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that fires once the clock is advanced past d.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if c.auto || d <= 0 {
		c.now = c.now.Add(d)
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward, firing every waiter whose deadline has
// passed.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// orSystem substitutes the system clock for nil.
func orSystem(c Clock) Clock {
	if c == nil {
		return SystemClock{}
	}
	return c
}

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so IsTransient reports it as retryable. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// transient with MarkTransient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// RetryPolicy is a deterministic exponential backoff: attempt n (0-based)
// waits Base * 2^n, capped at 64 * Base. No jitter — chaos runs must
// reproduce.
type RetryPolicy struct {
	// MaxRetries is the number of retry attempts after the first try; 0
	// disables retries.
	MaxRetries int
	// Base is the delay before the first retry; 0 means no waiting.
	Base time.Duration
}

// Delay returns the backoff before retry attempt (0-based: the delay after
// the first failure is Delay(0)).
func (p RetryPolicy) Delay(attempt int) time.Duration {
	switch {
	case p.Base <= 0:
		return 0
	case attempt <= 0:
		return p.Base
	case attempt >= 6:
		return 64 * p.Base
	}
	return p.Base << attempt
}

// Retry runs fn until it succeeds, returns a non-transient error, or
// exhausts the policy. fn receives the 0-based attempt number. Between
// attempts Retry sleeps the policy delay on the clock, aborting early if
// ctx is done (the last observed error is returned in that case).
func Retry(ctx context.Context, clock Clock, p RetryPolicy, fn func(attempt int) error) error {
	clock = orSystem(clock)
	var err error
	for attempt := 0; ; attempt++ {
		err = fn(attempt)
		if err == nil || attempt >= p.MaxRetries || !IsTransient(err) {
			return err
		}
		if d := p.Delay(attempt); d > 0 {
			select {
			case <-clock.After(d):
			case <-ctx.Done():
				return err
			}
		} else if ctx.Err() != nil {
			return err
		}
	}
}

// ContextWithTimeout derives a context that is cancelled with
// context.DeadlineExceeded as its cause once d elapses on the clock. With
// the system clock this is exactly context.WithTimeout; with a fake clock
// the deadline fires when the test advances time, so timeout paths run
// without real waiting. Use context.Cause to classify the expiry.
func ContextWithTimeout(parent context.Context, clock Clock, d time.Duration) (context.Context, context.CancelFunc) {
	clock = orSystem(clock)
	if _, ok := clock.(SystemClock); ok {
		return context.WithTimeout(parent, d)
	}
	ctx, cancel := context.WithCancelCause(parent)
	timer := clock.After(d)
	go func() {
		select {
		case <-timer:
			cancel(context.DeadlineExceeded)
		case <-ctx.Done():
		}
	}()
	return ctx, func() { cancel(context.Canceled) }
}

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed admits every call.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe call.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a circuit breaker: after Threshold consecutive failures it
// opens and rejects calls; once the cooldown elapses it half-opens and
// admits one probe, whose outcome either closes it or re-opens it for
// another cooldown.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	clock     Clock
	state     BreakerState
	failures  int
	openedAt  time.Time
	probing   bool
	onChange  func(from, to BreakerState)
}

// SetTransitionHook installs fn to be called on every state change
// (telemetry taps breaker transitions onto the active trace). fn runs with
// the breaker's lock held, so it must not call back into the breaker; nil
// clears the hook.
func (b *Breaker) SetTransitionHook(fn func(from, to BreakerState)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onChange = fn
}

// setState moves the breaker to state to, firing the transition hook on an
// actual change. Callers hold b.mu.
func (b *Breaker) setState(to BreakerState) {
	from := b.state
	b.state = to
	if from != to && b.onChange != nil {
		b.onChange(from, to)
	}
}

// NewBreaker builds a breaker tripping after threshold consecutive
// failures and cooling down for cooldown before a probe. threshold < 1
// means 5; cooldown <= 0 means 30s; a nil clock means the system clock.
func NewBreaker(threshold int, cooldown time.Duration, clock Clock) *Breaker {
	if threshold < 1 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, clock: orSystem(clock)}
}

// Allow reports whether a call may proceed, transitioning open breakers to
// half-open when their cooldown has elapsed. In half-open state only one
// probe is admitted until its Success or Failure is recorded.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.clock.Now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful call, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setState(BreakerClosed)
	b.failures = 0
	b.probing = false
}

// Failure records a failed call: in closed state it counts toward the
// threshold; in half-open state it re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.open()
		}
	}
}

func (b *Breaker) open() {
	b.setState(BreakerOpen)
	b.openedAt = b.clock.Now()
	b.failures = 0
	b.probing = false
}

// State returns the breaker's current position (open breakers whose
// cooldown has elapsed still report open until the next Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
