package service_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numaio/internal/service"
	"numaio/internal/telemetry"
)

// TestTraceRoundTrip drives the /debug/trace lifecycle end to end: start,
// run a characterization, stop, download, and check the recording is a
// valid non-empty Chrome trace with both HTTP and measurement spans.
func TestTraceRoundTrip(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	// Download before anything is recorded: 404.
	if status, _ := getJSON(t, ts.URL+"/debug/trace"); status != http.StatusNotFound {
		t.Fatalf("download with no trace = %d, want 404", status)
	}

	status, body := postJSON(t, ts.URL+"/debug/trace/start", "")
	if status != http.StatusOK {
		t.Fatalf("start = %d %s", status, body)
	}
	var state struct {
		Tracing bool `json:"tracing"`
		Events  int  `json:"events"`
	}
	if err := json.Unmarshal(body, &state); err != nil || !state.Tracing {
		t.Fatalf("start response %s (err %v)", body, err)
	}

	if status, body := postJSON(t, ts.URL+"/v1/characterize", fastBody); status != http.StatusOK {
		t.Fatalf("characterize = %d %s", status, body)
	}

	status, body = postJSON(t, ts.URL+"/debug/trace/stop", "")
	if status != http.StatusOK {
		t.Fatalf("stop = %d %s", status, body)
	}
	if err := json.Unmarshal(body, &state); err != nil || state.Tracing || state.Events == 0 {
		t.Fatalf("stop response %s (err %v): want tracing=false, events>0", body, err)
	}

	// The stopped trace stays downloadable.
	status, body = getJSON(t, ts.URL+"/debug/trace")
	if status != http.StatusOK {
		t.Fatalf("download = %d", status)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace unit %q with %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	cats := make(map[string]int)
	for _, e := range doc.TraceEvents {
		cats[e.Cat]++
	}
	if cats["http"] == 0 {
		t.Error("no http request spans recorded")
	}
	if cats["measure"] == 0 {
		t.Error("no measurement cell spans recorded")
	}
	if cats["characterize"] == 0 {
		t.Error("no characterization sweep spans recorded")
	}

	// A characterization after stop must not grow the frozen recording.
	if status, body := postJSON(t, ts.URL+"/v1/characterize",
		`{"machine": "amd-4s8n", "config": {"repeats": 1, "sigma": -1}}`); status != http.StatusOK {
		t.Fatalf("post-stop characterize = %d %s", status, body)
	}
	_, again := getJSON(t, ts.URL+"/debug/trace")
	if string(again) != string(body) {
		t.Error("stopped trace changed after tracing was disabled")
	}
}

// TestTraceMetricsGauges checks the numaiod_trace_* series follow the
// recorder lifecycle.
func TestTraceMetricsGauges(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	_, body := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "numaiod_trace_active 0") {
		t.Fatalf("metrics before start missing numaiod_trace_active 0:\n%s", body)
	}
	postJSON(t, ts.URL+"/debug/trace/start", "")
	_, body = getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "numaiod_trace_active 1") {
		t.Fatalf("metrics during trace missing numaiod_trace_active 1")
	}
	for _, name := range []string{
		"numaiod_solver_solves_total",
		"numaiod_solver_solve_seconds_total",
		"numaiod_solver_resets_total",
		"numaiod_measure_workers_busy",
		"numaiod_trace_events",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("metrics missing additive series %s", name)
		}
	}
}

// TestTraceLifecycleConcurrent races the /debug/trace control plane —
// start, stop, download — against live characterizations. The trace
// control must never lose the downloadable recording, panic, or hand a
// request span a tracer mid-teardown; every download must be either a 404
// or a well-formed Chrome trace. Run under -race in CI.
func TestTraceLifecycleConcurrent(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	bodies := []string{
		fastBody,
		`{"machine": "amd-4s8n", "config": {"repeats": 1, "sigma": -1}}`,
	}
	const iters = 20
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if status, body := postJSON(t, ts.URL+"/debug/trace/start", ""); status != http.StatusOK {
				t.Errorf("start = %d %s", status, body)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if status, body := postJSON(t, ts.URL+"/debug/trace/stop", ""); status != http.StatusOK {
				t.Errorf("stop = %d %s", status, body)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			status, body := getJSON(t, ts.URL+"/debug/trace")
			switch status {
			case http.StatusNotFound:
			case http.StatusOK:
				var doc struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Errorf("downloaded trace is not valid JSON: %v", err)
					return
				}
			default:
				t.Errorf("download = %d", status)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if status, body := postJSON(t, ts.URL+"/v1/characterize", bodies[i%len(bodies)]); status != http.StatusOK {
				t.Errorf("characterize = %d %s", status, body)
				return
			}
		}
	}()
	wg.Wait()

	// After the dust settles the lifecycle still works end to end.
	postJSON(t, ts.URL+"/debug/trace/start", "")
	postJSON(t, ts.URL+"/v1/characterize", fastBody)
	postJSON(t, ts.URL+"/debug/trace/stop", "")
	if status, _ := getJSON(t, ts.URL+"/debug/trace"); status != http.StatusOK {
		t.Errorf("post-race download = %d, want 200", status)
	}
}

// TestMetricsAndRespCacheConcurrent hammers the request-path counters
// numaiod renders — the pipeline's requests-by-endpoint counter, the
// characterization histogram and the resilience counters — from 32
// goroutines alongside a RespCache, and checks nothing is lost. Run under
// -race in CI.
func TestMetricsAndRespCacheConcurrent(t *testing.T) {
	requests := telemetry.NewEndpointCounter()
	charLatency := telemetry.NewBucketHistogram([]float64{0.001, 0.005, 0.025})
	var retries, stale telemetry.Counter
	rc := service.NewRespCache(64, time.Minute)
	const workers, per = 32, 500

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				requests.Endpoint("/v1/predict").With(200).Inc()
				requests.Endpoint("/v1/place").With(400 + w%2).Inc()
				charLatency.Observe((time.Duration(i%7) * time.Millisecond).Seconds())
				retries.Inc()
				stale.Inc()
				if _, ok := rc.Get("k"); !ok {
					rc.Put("k", []byte("{}"))
				}
			}
		}(w)
	}
	wg.Wait()

	if got := requests.Endpoint("/v1/predict").Value(200); got != workers*per {
		t.Errorf("predict requests = %d, want %d", got, workers*per)
	}
	place := requests.Endpoint("/v1/place")
	if got := place.Value(400) + place.Value(401); got != workers*per {
		t.Errorf("place requests = %d, want %d", got, workers*per)
	}
	if got := stale.Value(); got != workers*per {
		t.Errorf("stale served = %d, want %d", got, workers*per)
	}
	stats := rc.Stats()
	if stats.Hits+stats.Misses != workers*per {
		t.Errorf("resp cache hits+misses = %d, want %d", stats.Hits+stats.Misses, workers*per)
	}
}
