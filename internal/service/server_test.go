package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numaio/internal/core"
	"numaio/internal/service"
	"numaio/internal/topology"
)

// newTestServer builds a daemon with a counting characterizer so tests can
// assert exactly how many Algorithm 1 executions a request pattern costs.
func newTestServer(t *testing.T, runs *atomic.Int64) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{
		Workers: 2,
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			runs.Add(1)
			return service.DefaultCharacterize(ctx, m, cfg)
		},
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// fastBody is a characterize request cheap enough for unit tests: one
// repeat, no measurement noise.
const fastBody = `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}}`

func postJSON(t *testing.T, url, body string) (int, []byte) {
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

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func TestHealthz(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)
	status, body := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", status, body)
	}
}

func TestCharacterizeCacheHitVsMiss(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	status, body := postJSON(t, ts.URL+"/v1/characterize", fastBody)
	if status != http.StatusOK {
		t.Fatalf("first characterize = %d %s", status, body)
	}
	var first struct {
		Fingerprint   string             `json:"fingerprint"`
		Cached        bool               `json:"cached"`
		CostReduction float64            `json:"cost_reduction"`
		Model         *core.MachineModel `json:"model"`
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request claims a cache hit")
	}
	if first.Fingerprint == "" || first.Model == nil || len(first.Model.Models) != 8 {
		t.Fatalf("first response = %+v", first)
	}
	if first.Model.Fingerprint != first.Fingerprint {
		t.Errorf("model fingerprint %q != response fingerprint %q",
			first.Model.Fingerprint, first.Fingerprint)
	}

	// The second identical request must be served from cache: no second
	// Algorithm 1 execution.
	status, body = postJSON(t, ts.URL+"/v1/characterize", fastBody)
	if status != http.StatusOK {
		t.Fatalf("second characterize = %d %s", status, body)
	}
	var second struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request was not served from cache")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("Algorithm 1 ran %d times, want exactly 1", got)
	}

	// Different characterization options miss the cache.
	status, _ = postJSON(t, ts.URL+"/v1/characterize",
		`{"machine": "intel-4s4n", "config": {"repeats": 2, "sigma": -1}}`)
	if status != http.StatusOK {
		t.Fatalf("third characterize = %d", status)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("Algorithm 1 ran %d times after config change, want 2", got)
	}

	// The cached model is addressable by fingerprint.
	status, body = getJSON(t, ts.URL+"/v1/models/"+first.Fingerprint)
	if status != http.StatusOK {
		t.Fatalf("models/%s = %d %s", first.Fingerprint, status, body)
	}
	status, _ = getJSON(t, ts.URL+"/v1/models/deadbeef")
	if status != http.StatusNotFound {
		t.Errorf("models/deadbeef = %d, want 404", status)
	}
}

func TestConcurrentCoalescing(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/characterize", "application/json",
				strings.NewReader(fastBody))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests ran Algorithm 1 %d times, want 1", clients, got)
	}
}

func TestMalformedJSONIs400(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)
	for _, ep := range []string{"/v1/characterize", "/v1/predict", "/v1/place", "/v1/whatif"} {
		status, body := postJSON(t, ts.URL+ep, `{"machine": `)
		if status != http.StatusBadRequest {
			t.Errorf("%s with truncated JSON = %d %s, want 400", ep, status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s error body = %q", ep, body)
		}
	}
	if runs.Load() != 0 {
		t.Errorf("malformed requests triggered %d characterizations", runs.Load())
	}
}

func TestPredict(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	body := `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
		"target": 0, "mode": "write", "mix": {"0": 0.5, "2": 0.5}}`
	status, out := postJSON(t, ts.URL+"/v1/predict", body)
	if status != http.StatusOK {
		t.Fatalf("predict = %d %s", status, out)
	}
	var resp struct {
		Fingerprint   string  `json:"fingerprint"`
		PredictedBPS  float64 `json:"predicted_bps"`
		PredictedGbps float64 `json:"predicted_gbps"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PredictedBPS <= 0 || resp.Fingerprint == "" {
		t.Errorf("predict response = %+v", resp)
	}

	// The characterization behind the prediction is reusable by
	// fingerprint, with no machine attached.
	byFP := fmt.Sprintf(`{"fingerprint": %q, "target": 0, "mode": "read", "counts": {"1": 2, "3": 2}}`,
		resp.Fingerprint)
	status, out = postJSON(t, ts.URL+"/v1/predict", byFP)
	if status != http.StatusOK {
		t.Fatalf("predict by fingerprint = %d %s", status, out)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("predictions ran Algorithm 1 %d times, want 1", got)
	}

	// Client errors.
	for name, bad := range map[string]string{
		"bad mode":        `{"machine": "intel-4s4n", "target": 0, "mode": "sideways", "mix": {"0": 1}}`,
		"mix and counts":  `{"machine": "intel-4s4n", "target": 0, "mode": "write", "mix": {"0": 1}, "counts": {"0": 1}}`,
		"neither":         `{"machine": "intel-4s4n", "target": 0, "mode": "write"}`,
		"mix not summing": `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}, "target": 0, "mode": "write", "mix": {"0": 0.7}}`,
		"bad node key":    `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}, "target": 0, "mode": "write", "mix": {"zero": 1}}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/predict", bad); status != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", name, status, out)
		}
	}
	// Unknown fingerprint is 404.
	if status, _ := postJSON(t, ts.URL+"/v1/predict",
		`{"fingerprint": "cafe", "target": 0, "mode": "write", "mix": {"0": 1}}`); status != http.StatusNotFound {
		t.Errorf("unknown fingerprint = %d, want 404", status)
	}
}

func TestPlace(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	body := `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
		"target": 0, "tasks": 4, "evaluate": true}`
	status, out := postJSON(t, ts.URL+"/v1/place", body)
	if status != http.StatusOK {
		t.Fatalf("place = %d %s", status, out)
	}
	var resp struct {
		Results []struct {
			Policy      string  `json:"policy"`
			Placement   []int   `json:"placement"`
			EstimateBPS float64 `json:"estimate_bps"`
			MeasuredBPS float64 `json:"measured_bps"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d policy results, want 4: %s", len(resp.Results), out)
	}
	for _, res := range resp.Results {
		if len(res.Placement) != 4 {
			t.Errorf("%s placed %d tasks, want 4", res.Policy, len(res.Placement))
		}
		if res.MeasuredBPS <= 0 {
			t.Errorf("%s measured %v, want > 0", res.Policy, res.MeasuredBPS)
		}
	}

	// Cluster mode: replicas share the one cached characterization.
	clusterBody := `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
		"target": 0, "tasks": 6, "replicas": 3, "cluster_policy": "spread-even", "evaluate": true}`
	status, out = postJSON(t, ts.URL+"/v1/place", clusterBody)
	if status != http.StatusOK {
		t.Fatalf("cluster place = %d %s", status, out)
	}
	var cresp struct {
		Assignments []struct {
			Host string `json:"host"`
			Node int    `json:"node"`
		} `json:"assignments"`
		AggregateBPS float64 `json:"aggregate_bps"`
	}
	if err := json.Unmarshal(out, &cresp); err != nil {
		t.Fatal(err)
	}
	if len(cresp.Assignments) != 6 || cresp.AggregateBPS <= 0 {
		t.Errorf("cluster response = %+v", cresp)
	}
	hosts := map[string]bool{}
	for _, a := range cresp.Assignments {
		hosts[a.Host] = true
	}
	if len(hosts) != 3 {
		t.Errorf("spread-even used %d hosts, want 3", len(hosts))
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("placement ran Algorithm 1 %d times, want 1 (shared cache)", got)
	}

	// Client errors.
	for name, bad := range map[string]string{
		"no tasks":       `{"machine": "intel-4s4n", "target": 0}`,
		"bad policy":     `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}, "target": 0, "tasks": 2, "policies": ["psychic"]}`,
		"unknown target": `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}, "target": 9, "tasks": 2}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/place", bad); status != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", name, status, out)
		}
	}
}

func TestWhatif(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	body := `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
		"target": 3, "degrade": [{"a": "node0", "b": "node3", "factor": 0.2}]}`
	status, out := postJSON(t, ts.URL+"/v1/whatif", body)
	if status != http.StatusOK {
		t.Fatalf("whatif = %d %s", status, out)
	}
	var resp struct {
		BeforeFingerprint string `json:"before_fingerprint"`
		AfterFingerprint  string `json:"after_fingerprint"`
		Results           []struct {
			Mode  string `json:"mode"`
			Diffs []struct {
				Node      int     `json:"node"`
				RelChange float64 `json:"rel_change"`
			} `json:"diffs"`
			ChangedNodes []int `json:"changed_nodes"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.BeforeFingerprint == resp.AfterFingerprint {
		t.Error("degraded machine shares the base fingerprint")
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d mode results, want 2", len(resp.Results))
	}
	degradedMoved := false
	for _, res := range resp.Results {
		if len(res.Diffs) != 4 {
			t.Errorf("%s diffed %d nodes, want 4", res.Mode, len(res.Diffs))
		}
		for _, d := range res.Diffs {
			if d.Node == 0 && d.RelChange < -0.05 {
				degradedMoved = true
			}
		}
	}
	if !degradedMoved {
		t.Errorf("degrading node0<->node3 left node0's bandwidth unchanged: %s", out)
	}
	// Base + mutant: exactly two characterizations.
	if got := runs.Load(); got != 2 {
		t.Errorf("whatif ran Algorithm 1 %d times, want 2", got)
	}

	// Empty degrade list and unknown links are client errors.
	if status, _ := postJSON(t, ts.URL+"/v1/whatif",
		`{"machine": "intel-4s4n", "target": 0, "degrade": []}`); status != http.StatusBadRequest {
		t.Errorf("empty degrade = %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/whatif",
		`{"machine": "intel-4s4n", "target": 0, "degrade": [{"a": "node0", "b": "warp", "factor": 0.5}]}`); status != http.StatusBadRequest {
		t.Errorf("unknown link = %d, want 400", status)
	}
}

// TestWhatifValidatesFirst: an unknown target or mode is a 400 before any
// characterization — neither the base nor the mutant is swept.
func TestWhatifValidatesFirst(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)
	for name, body := range map[string]string{
		"unknown target": `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
			"target": 9, "degrade": [{"a": "node0", "b": "node3", "factor": 0.2}]}`,
		"unknown mode": `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
			"target": 3, "modes": ["write", "sideways"], "degrade": [{"a": "node0", "b": "node3", "factor": 0.2}]}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/whatif", body); status != http.StatusBadRequest {
			t.Errorf("%s = %d %s, want 400", name, status, out)
		}
	}
	if got := runs.Load(); got != 0 {
		t.Errorf("invalid what-ifs ran Algorithm 1 %d times, want 0", got)
	}
}

func TestAsyncCharacterizeJob(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	status, out := postJSON(t, ts.URL+"/v1/characterize",
		`{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}, "async": true}`)
	if status != http.StatusAccepted {
		t.Fatalf("async characterize = %d %s", status, out)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(out, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" {
		t.Fatalf("no job ID in %s", out)
	}

	deadline := time.Now().Add(30 * time.Second)
	var final struct {
		State       string `json:"state"`
		Fingerprint string `json:"fingerprint"`
		Error       string `json:"error"`
	}
	for {
		status, out = getJSON(t, ts.URL+"/v1/jobs/"+job.ID)
		if status != http.StatusOK {
			t.Fatalf("jobs/%s = %d %s", job.ID, status, out)
		}
		if err := json.Unmarshal(out, &final); err != nil {
			t.Fatal(err)
		}
		if final.State == "done" || final.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", final.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.State != "done" || final.Fingerprint == "" {
		t.Fatalf("job finished as %+v", final)
	}
	if status, _ := getJSON(t, ts.URL+"/v1/models/"+final.Fingerprint); status != http.StatusOK {
		t.Errorf("async result not in model cache")
	}
	if status, _ := getJSON(t, ts.URL+"/v1/jobs/job-999999"); status != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	// Generate traffic: one miss, one hit, one 400.
	postJSON(t, ts.URL+"/v1/characterize", fastBody)
	postJSON(t, ts.URL+"/v1/characterize", fastBody)
	postJSON(t, ts.URL+"/v1/characterize", `{`)

	status, body := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics = %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`numaiod_requests_total{endpoint="/v1/characterize",status="200"} 2`,
		`numaiod_requests_total{endpoint="/v1/characterize",status="400"} 1`,
		`numaiod_model_cache{event="hit"} 1`,
		`numaiod_model_cache{event="miss"} 1`,
		`numaiod_model_cache_entries 1`,
		`numaiod_characterize_seconds_count 1`,
		// Parallelism defaults to the worker-pool width (2 here).
		`numaiod_characterize_parallelism 2`,
		`numaiod_inflight_jobs 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// lockedBuffer serializes writes so the request-log goroutines and the
// test's read don't race.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogging checks the structured log line of one request.
func TestRequestLogging(t *testing.T) {
	var buf lockedBuffer
	svc := service.New(service.Config{
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	getJSON(t, ts.URL+"/healthz")
	logged := buf.String()
	for _, want := range []string{"method=GET", "path=/healthz", "status=200"} {
		if !strings.Contains(logged, want) {
			t.Errorf("log missing %q:\n%s", want, logged)
		}
	}
}
