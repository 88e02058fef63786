package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"numaio/internal/service"
)

const predictBody = `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
 "target": 3, "mode": "write", "mix": {"0": 0.5, "3": 0.5}}`

const placeBody = `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
 "target": 3, "tasks": 4}`

// TestPredictResponseCache: the second identical predict request must be
// served from the response cache — byte-identical body, no extra
// characterization — and the hit must show up on /metrics.
func TestPredictResponseCache(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	status, first := postJSON(t, ts.URL+"/v1/predict", predictBody)
	if status != http.StatusOK {
		t.Fatalf("first predict = %d %s", status, first)
	}
	status, second := postJSON(t, ts.URL+"/v1/predict", predictBody)
	if status != http.StatusOK {
		t.Fatalf("second predict = %d %s", status, second)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached response differs from uncached:\n first %s\nsecond %s", first, second)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("characterizations = %d, want 1 (second request cached)", got)
	}

	// A request with the same content but different JSON key order hits too.
	reordered := `{"mix": {"3": 0.5, "0": 0.5}, "mode": "write", "target": 3,
 "config": {"sigma": -1, "repeats": 1}, "machine": "intel-4s4n"}`
	status, third := postJSON(t, ts.URL+"/v1/predict", reordered)
	if status != http.StatusOK || !bytes.Equal(first, third) {
		t.Errorf("reordered request = %d, body match %v", status, bytes.Equal(first, third))
	}

	_, metrics := getJSON(t, ts.URL+"/metrics")
	for _, want := range []string{
		"numaiod_predict_cache_hits_total 2",
		"numaiod_predict_cache_misses_total 1",
		"numaiod_predict_cache_entries 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPlaceResponseCache mirrors the predict contract for /v1/place,
// including the evaluate arm (simulated measurements are deterministic, so
// they cache safely too).
func TestPlaceResponseCache(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	for _, body := range []string{placeBody,
		`{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
 "target": 3, "tasks": 4, "evaluate": true, "size_per_task": 1048576}`} {
		status, first := postJSON(t, ts.URL+"/v1/place", body)
		if status != http.StatusOK {
			t.Fatalf("first place = %d %s", status, first)
		}
		status, second := postJSON(t, ts.URL+"/v1/place", body)
		if status != http.StatusOK {
			t.Fatalf("second place = %d %s", status, second)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("cached place response differs:\n first %s\nsecond %s", first, second)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("characterizations = %d, want 1", got)
	}
	_, metrics := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "numaiod_place_cache_hits_total 2") {
		t.Errorf("metrics missing place cache hits:\n%s", metrics)
	}
}

// TestRespCacheDisabled: RespCacheEntries < 0 turns the fast lane off but
// responses stay correct and identical (determinism, not caching, is what
// makes them equal).
func TestRespCacheDisabled(t *testing.T) {
	svc := service.New(service.Config{Workers: 2, RespCacheEntries: -1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	status, first := postJSON(t, ts.URL+"/v1/predict", predictBody)
	if status != http.StatusOK {
		t.Fatalf("predict = %d %s", status, first)
	}
	_, second := postJSON(t, ts.URL+"/v1/predict", predictBody)
	if !bytes.Equal(first, second) {
		t.Errorf("responses differ with cache disabled")
	}
	_, metrics := getJSON(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "numaiod_predict_cache_hits_total 0") {
		t.Errorf("disabled cache should report zero hits")
	}
}

// TestPredictParseErrors covers the request-parsing error paths: bad node
// keys, malformed mix/counts combinations, bad mode. None may trigger a
// characterization.
func TestPredictParseErrors(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	cases := []struct {
		name string
		body string
		want string
	}{
		{"non-integer mix key",
			`{"machine": "intel-4s4n", "target": 0, "mode": "write", "mix": {"x": 1}}`,
			"not an integer"},
		{"non-integer counts key",
			`{"machine": "intel-4s4n", "target": 0, "mode": "write", "counts": {"1.5": 2}}`,
			"not an integer"},
		{"both mix and counts",
			`{"machine": "intel-4s4n", "target": 0, "mode": "write", "mix": {"0": 1}, "counts": {"0": 1}}`,
			"exactly one of mix or counts"},
		{"neither mix nor counts",
			`{"machine": "intel-4s4n", "target": 0, "mode": "write"}`,
			"exactly one of mix or counts"},
		{"bad mode",
			`{"machine": "intel-4s4n", "target": 0, "mode": "sideways", "mix": {"0": 1}}`,
			"mode"},
		{"unknown field",
			`{"machine": "intel-4s4n", "target": 0, "mode": "write", "mixx": {"0": 1}}`,
			"invalid JSON body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/predict", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", status, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("error %s does not mention %q", body, tc.want)
			}
		})
	}
	// The non-integer key errors surface before any model work; the rest are
	// validated pre-resolution too.
	if got := runs.Load(); got != 0 {
		t.Errorf("parse errors triggered %d characterizations, want 0", got)
	}
}

// TestPredictBatch: one model resolution amortized over many items, bad
// items failing in place, empty batches rejected.
func TestPredictBatch(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	status, body := postJSON(t, ts.URL+"/v1/predict/batch",
		`{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}, "items": []}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "no items") {
		t.Fatalf("empty batch = %d %s, want 400", status, body)
	}
	if runs.Load() != 0 {
		t.Fatal("empty batch characterized")
	}

	status, body = postJSON(t, ts.URL+"/v1/predict/batch",
		`{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1}, "items": [
		  {"target": 3, "mode": "write", "mix": {"0": 0.5, "3": 0.5}},
		  {"target": 3, "mode": "write", "mix": {"nope": 1}},
		  {"target": 3, "mode": "read", "counts": {"0": 2, "1": 2}}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("batch = %d %s", status, body)
	}
	var resp struct {
		Fingerprint string `json:"fingerprint"`
		Results     []struct {
			PredictedBPS float64 `json:"predicted_bps"`
			Error        string  `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[0].PredictedBPS <= 0 {
		t.Errorf("good item 0 = %+v", resp.Results[0])
	}
	if !strings.Contains(resp.Results[1].Error, "not an integer") || resp.Results[1].PredictedBPS != 0 {
		t.Errorf("bad item 1 = %+v", resp.Results[1])
	}
	if resp.Results[2].Error != "" || resp.Results[2].PredictedBPS <= 0 {
		t.Errorf("good item 2 = %+v", resp.Results[2])
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("batch cost %d characterizations, want 1", got)
	}

	// The batch's first item agrees with the single-predict endpoint.
	status, single := postJSON(t, ts.URL+"/v1/predict", predictBody)
	if status != http.StatusOK {
		t.Fatalf("single predict = %d %s", status, single)
	}
	var one struct {
		PredictedBPS float64 `json:"predicted_bps"`
	}
	if err := json.Unmarshal(single, &one); err != nil {
		t.Fatal(err)
	}
	if one.PredictedBPS != resp.Results[0].PredictedBPS {
		t.Errorf("batch item (%v) != single predict (%v)", resp.Results[0].PredictedBPS, one.PredictedBPS)
	}
}

// TestBodyTooLarge: a predict or place body past 1 MiB is answered 413
// with the uniform error body, caches nothing, and leaves the daemon
// serving.
func TestBodyTooLarge(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)
	huge := `{"machine": "intel-4s4n", "fingerprint": "` + strings.Repeat("f", 1<<20) + `"}`
	for _, path := range []string{"/v1/predict", "/v1/place"} {
		status, body := postJSON(t, ts.URL+path, huge)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413 (%.200s)", path, status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
			t.Errorf("%s: error body %.200s (%v)", path, body, err)
		}
	}
	// A body of exactly the bound is read and decoded as usual.
	pad := strings.Repeat(" ", 1<<20-len(predictBody))
	if status, body := postJSON(t, ts.URL+"/v1/predict", predictBody+pad); status != http.StatusOK {
		t.Errorf("1 MiB predict = %d %s", status, body)
	}
	if status, _ := getJSON(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz = %d after oversized bodies", status)
	}
	_, metrics := getJSON(t, ts.URL+"/metrics")
	for _, want := range []string{
		"numaiod_predict_cache_misses_total 1",
		"numaiod_predict_cache_entries 1",
		"numaiod_place_cache_misses_total 0",
		"numaiod_place_cache_entries 0",
		`numaiod_requests_total{endpoint="/v1/predict",status="413"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
