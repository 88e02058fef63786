package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"numaio/internal/core"
	"numaio/internal/resilience"
	"numaio/internal/topology"
)

const resilienceBody = `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}}`

func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStaleModelFallback is the graceful-degradation acceptance test:
// when recomputing an expired model fails, the daemon serves the last
// good model marked stale instead of a 500, counts it, and opens the
// model's breaker after repeated failures so later requests skip the
// doomed computation entirely.
func TestStaleModelFallback(t *testing.T) {
	var calls atomic.Int64
	var induceFailure atomic.Bool
	s := New(Config{
		Workers:          1,
		CacheTTL:         time.Minute,
		BreakerThreshold: 2,
		Clock:            resilience.NewAutoClock(time.Unix(0, 0)),
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			calls.Add(1)
			if induceFailure.Load() {
				return nil, fmt.Errorf("induced characterization failure")
			}
			return DefaultCharacterize(ctx, m, cfg)
		},
	})
	now := time.Unix(1000, 0)
	s.cache.now = func() time.Time { return now }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A healthy characterization populates the cache.
	status, body := postBody(t, ts.URL+"/v1/characterize", resilienceBody)
	if status != http.StatusOK {
		t.Fatalf("healthy characterize = %d %s", status, body)
	}
	var fresh characterizeResponse
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Stale {
		t.Fatal("fresh model marked stale")
	}
	if bytes.Contains(body, []byte(`"stale"`)) {
		t.Fatalf("fresh response carries a stale field: %s", body)
	}

	// The model expires and the characterizer starts failing: the daemon
	// must serve the last good model with a stale marker, not a 500.
	now = now.Add(2 * time.Minute)
	induceFailure.Store(true)
	status, body = postBody(t, ts.URL+"/v1/characterize", resilienceBody)
	if status != http.StatusOK {
		t.Fatalf("characterize under failure = %d %s (want 200 stale)", status, body)
	}
	var degraded characterizeResponse
	if err := json.Unmarshal(body, &degraded); err != nil {
		t.Fatal(err)
	}
	if !degraded.Stale || !degraded.Cached {
		t.Fatalf("degraded response = stale %v cached %v, want both true", degraded.Stale, degraded.Cached)
	}
	if degraded.Fingerprint != fresh.Fingerprint || degraded.Model == nil {
		t.Fatalf("stale response lost the model: %+v", degraded)
	}

	text := metricsText(t, ts.URL)
	for _, want := range []string{
		"numaiod_stale_served_total 1",
		"numaiod_stale_models 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	// A second failure opens the breaker (threshold 2); the request after
	// that is served stale without invoking the characterizer at all.
	if status, _ := postBody(t, ts.URL+"/v1/characterize", resilienceBody); status != http.StatusOK {
		t.Fatalf("second failing characterize = %d", status)
	}
	before := calls.Load()
	status, body = postBody(t, ts.URL+"/v1/characterize", resilienceBody)
	if status != http.StatusOK {
		t.Fatalf("characterize with open breaker = %d %s", status, body)
	}
	var shorted characterizeResponse
	if err := json.Unmarshal(body, &shorted); err != nil {
		t.Fatal(err)
	}
	if !shorted.Stale {
		t.Fatal("open-breaker response not marked stale")
	}
	if got := calls.Load(); got != before {
		t.Fatalf("open breaker still ran the characterizer (%d -> %d calls)", before, got)
	}
	if text := metricsText(t, ts.URL); !strings.Contains(text, "numaiod_breaker_open 1") {
		t.Errorf("metrics missing open breaker gauge:\n%s", text)
	}
}

// TestBreakerWithoutFallbackIs503: a machine that has never characterized
// successfully has no stale model to fall back on — once its breaker
// opens, requests get an explicit 503, not a hung worker.
func TestBreakerWithoutFallbackIs503(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{
		Workers:          1,
		BreakerThreshold: 1,
		Clock:            resilience.NewAutoClock(time.Unix(0, 0)),
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			calls.Add(1)
			return nil, fmt.Errorf("always failing")
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _ := postBody(t, ts.URL+"/v1/characterize", resilienceBody); status != http.StatusInternalServerError {
		t.Fatalf("first failure = %d, want 500", status)
	}
	status, body := postBody(t, ts.URL+"/v1/characterize", resilienceBody)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("open breaker with no fallback = %d %s, want 503", status, body)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("breaker admitted %d calls, want 1", got)
	}
}

// TestCharacterizeRetriesRecover: transient failures inside the retry
// budget are invisible to the client, and the retry counter reports them.
// The injected auto-clock absorbs the backoff, so no real sleeping.
func TestCharacterizeRetriesRecover(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{
		Workers: 1,
		Retries: 2,
		Clock:   resilience.NewAutoClock(time.Unix(0, 0)),
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			if calls.Add(1) < 3 {
				return nil, fmt.Errorf("transient failure %d", calls.Load())
			}
			return DefaultCharacterize(ctx, m, cfg)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	status, body := postBody(t, ts.URL+"/v1/characterize", resilienceBody)
	if status != http.StatusOK {
		t.Fatalf("characterize with retry budget = %d %s", status, body)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("characterizer ran %d times, want 3 (two retries)", got)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("retries took %v of real time; the fake clock should absorb backoff", elapsed)
	}
	if text := metricsText(t, ts.URL); !strings.Contains(text, "numaiod_characterize_retries_total 2") {
		t.Errorf("metrics missing retry counter:\n%s", text)
	}
}

// TestRequestDeadlineIs504: a characterization that outlives the request
// timeout is abandoned and reported as a gateway timeout. The auto-clock
// fires the deadline immediately, so the test never really waits.
func TestRequestDeadlineIs504(t *testing.T) {
	s := New(Config{
		Workers:        1,
		RequestTimeout: time.Second,
		Clock:          resilience.NewAutoClock(time.Unix(0, 0)),
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postBody(t, ts.URL+"/v1/characterize", resilienceBody)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("hung characterization = %d %s, want 504", status, body)
	}
}

// breakerCount is the number of circuit breakers the server holds.
func breakerCount(s *Server) int {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	return len(s.breakers)
}

// TestBreakersBounded: a breaker lives only while its key is failing.
// Distinct successful what-ifs — each a new mutant machine, so a new
// model key — leave none behind; a failure creates one and the next
// successful computation of that key drops it again.
func TestBreakersBounded(t *testing.T) {
	var induceFailure atomic.Bool
	s := New(Config{
		Workers:          1,
		BreakerThreshold: 3,
		Clock:            resilience.NewAutoClock(time.Unix(0, 0)),
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			if induceFailure.Load() {
				return nil, fmt.Errorf("induced characterization failure")
			}
			return DefaultCharacterize(ctx, m, cfg)
		},
	})
	post := func(path, body string) int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}
	for i := 0; i < 1000; i++ {
		body := fmt.Sprintf(`{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}, "target": 3,
			"degrade": [{"a": "node0", "b": "node1", "factor": %g}]}`, 0.2+0.0005*float64(i))
		if code := post("/v1/whatif", body); code != http.StatusOK {
			t.Fatalf("what-if %d = %d", i, code)
		}
	}
	if n := breakerCount(s); n != 0 {
		t.Fatalf("1000 successful what-ifs left %d breakers, want 0", n)
	}

	// A machine the what-ifs never touched, so its model is not cached.
	const fresh = `{"machine": "magny-a", "config": {"repeats": 1, "sigma": -1}}`
	induceFailure.Store(true)
	if code := post("/v1/characterize", fresh); code != http.StatusInternalServerError {
		t.Fatalf("failing characterize = %d, want 500", code)
	}
	if n := breakerCount(s); n != 1 {
		t.Fatalf("after a failure: %d breakers, want 1", n)
	}
	induceFailure.Store(false)
	if code := post("/v1/characterize", fresh); code != http.StatusOK {
		t.Fatalf("recovered characterize = %d, want 200", code)
	}
	if n := breakerCount(s); n != 0 {
		t.Fatalf("after a success: %d breakers, want 0", n)
	}
}
