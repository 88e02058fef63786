package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"numaio/internal/core"
	"numaio/internal/service"
	"numaio/internal/telemetry"
)

// putJSON issues a PUT with a JSON body.
func putJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// characterizedModel runs a cheap characterization on ts and returns the
// resulting model JSON and its fingerprint.
func characterizedModel(t *testing.T, ts *httptest.Server) (string, string) {
	t.Helper()
	status, body := postJSON(t, ts.URL+"/v1/characterize", fastBody)
	if status != http.StatusOK {
		t.Fatalf("characterize = %d: %s", status, body)
	}
	var mm core.MachineModel
	if err := json.Unmarshal(body, &mm); err != nil {
		t.Fatal(err)
	}
	// GET the canonical model: the characterize response wraps it with
	// response-only fields (cached, duration) an install would reject.
	status, body = getJSON(t, ts.URL+"/v1/models/"+mm.Fingerprint)
	if status != http.StatusOK {
		t.Fatalf("model get = %d: %s", status, body)
	}
	return string(body), mm.Fingerprint
}

// TestModelInstallPush: PUT /v1/models/{fp} installs a model that is then
// servable by fingerprint without any local characterization.
func TestModelInstallPush(t *testing.T) {
	var srcRuns, dstRuns atomic.Int64
	src := newTestServer(t, &srcRuns)
	dst := newTestServer(t, &dstRuns)
	model, fp := characterizedModel(t, src)

	status, body := putJSON(t, dst.URL+"/v1/models/"+fp, model)
	if status != http.StatusOK {
		t.Fatalf("install = %d: %s", status, body)
	}
	var out struct {
		Installed bool `json:"installed"`
	}
	if err := json.Unmarshal(body, &out); err != nil || !out.Installed {
		t.Fatalf("install response %s (err %v)", body, err)
	}

	// The installed model serves fingerprint-addressed reads and predicts
	// with zero characterizer runs on the destination.
	if status, _ := getJSON(t, dst.URL+"/v1/models/"+fp); status != http.StatusOK {
		t.Errorf("GET installed model = %d", status)
	}
	byFP := fmt.Sprintf(`{"fingerprint": %q, "target": 0, "mode": "write", "mix": {"0": 1}}`, fp)
	if status, body := postJSON(t, dst.URL+"/v1/predict", byFP); status != http.StatusOK {
		t.Errorf("predict on installed model = %d: %s", status, body)
	}
	if dstRuns.Load() != 0 {
		t.Errorf("destination ran the characterizer %d times for a replicated model", dstRuns.Load())
	}

	// Validation: mismatched fingerprint and empty models are rejected.
	if status, _ := putJSON(t, dst.URL+"/v1/models/other-fp", model); status != http.StatusBadRequest {
		t.Errorf("mismatched fingerprint install = %d, want 400", status)
	}
	if status, _ := putJSON(t, dst.URL+"/v1/models/empty-fp", `{"models": []}`); status != http.StatusBadRequest {
		t.Errorf("empty model install = %d, want 400", status)
	}
}

// TestModelInstallValidates: a pushed or pulled model that fails core's
// structural checks is refused (400 on PUT, 502 on pull) and never
// cached, so no predict reads it; a characterized model installs.
func TestModelInstallValidates(t *testing.T) {
	var srcRuns, dstRuns atomic.Int64
	src := newTestServer(t, &srcRuns)
	dst := newTestServer(t, &dstRuns)
	model, fp := characterizedModel(t, src)
	predictFP := func(fp string) int {
		t.Helper()
		status, _ := postJSON(t, dst.URL+"/v1/predict",
			fmt.Sprintf(`{"fingerprint": %q, "target": 0, "mode": "write", "mix": {"0": 1}}`, fp))
		return status
	}

	if status, body := putJSON(t, dst.URL+"/v1/models/null-fp", `{"models": [null]}`); status != http.StatusBadRequest {
		t.Errorf("null model install = %d: %s, want 400", status, body)
	}
	if status := predictFP("null-fp"); status != http.StatusNotFound {
		t.Errorf("predict on a refused fingerprint = %d, want 404", status)
	}

	var mm core.MachineModel
	if err := json.Unmarshal([]byte(model), &mm); err != nil {
		t.Fatal(err)
	}
	first := mm.Models[0]
	first.Samples = append(first.Samples, first.Samples[0])
	dup, err := json.Marshal(&mm)
	if err != nil {
		t.Fatal(err)
	}
	if status, body := putJSON(t, dst.URL+"/v1/models/"+fp, string(dup)); status != http.StatusBadRequest {
		t.Errorf("duplicate-sample install = %d: %s, want 400", status, body)
	}
	if status := predictFP(fp); status != http.StatusNotFound {
		t.Errorf("predict after a refused install = %d, want 404", status)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"models": [null]}`))
	}))
	defer bad.Close()
	pull := fmt.Sprintf(`{"fingerprint": "null-fp", "source": %q}`, bad.URL)
	if status, body := postJSON(t, dst.URL+"/v1/models/pull", pull); status != http.StatusBadGateway {
		t.Errorf("pull of a null model = %d: %s, want 502", status, body)
	}

	if status, body := putJSON(t, dst.URL+"/v1/models/"+fp, model); status != http.StatusOK {
		t.Errorf("characterized model install = %d: %s", status, body)
	}
	if status := predictFP(fp); status != http.StatusOK {
		t.Errorf("predict on the installed model = %d, want 200", status)
	}
}

// TestModelPull: POST /v1/models/pull fetches the model from the source
// replica, is idempotent, and surfaces unreachable sources as 502.
func TestModelPull(t *testing.T) {
	var srcRuns, dstRuns atomic.Int64
	src := newTestServer(t, &srcRuns)
	dst := newTestServer(t, &dstRuns)
	_, fp := characterizedModel(t, src)

	pull := fmt.Sprintf(`{"fingerprint": %q, "source": %q}`, fp, src.URL)
	status, body := postJSON(t, dst.URL+"/v1/models/pull", pull)
	if status != http.StatusOK {
		t.Fatalf("pull = %d: %s", status, body)
	}
	var out struct {
		Installed bool `json:"installed"`
	}
	if err := json.Unmarshal(body, &out); err != nil || !out.Installed {
		t.Fatalf("pull response %s (err %v)", body, err)
	}
	if status, _ := getJSON(t, dst.URL+"/v1/models/"+fp); status != http.StatusOK {
		t.Errorf("GET pulled model = %d", status)
	}

	// Second pull is an installed=false no-op, not a refetch.
	status, body = postJSON(t, dst.URL+"/v1/models/pull", pull)
	if status != http.StatusOK {
		t.Fatalf("repeat pull = %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Installed {
		t.Errorf("repeat pull response %s (err %v), want installed=false", body, err)
	}
	if dstRuns.Load() != 0 {
		t.Errorf("destination ran the characterizer %d times", dstRuns.Load())
	}

	// Bad requests and dead sources.
	if status, _ := postJSON(t, dst.URL+"/v1/models/pull", `{"fingerprint": ""}`); status != http.StatusBadRequest {
		t.Errorf("empty pull = %d, want 400", status)
	}
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close()
	deadPull := fmt.Sprintf(`{"fingerprint": "fp-unknown", "source": %q}`, dead.URL)
	if status, _ := postJSON(t, dst.URL+"/v1/models/pull", deadPull); status != http.StatusBadGateway {
		t.Errorf("pull from dead source = %d, want 502", status)
	}
	missing := fmt.Sprintf(`{"fingerprint": "fp-unknown", "source": %q}`, src.URL)
	if status, _ := postJSON(t, dst.URL+"/v1/models/pull", missing); status != http.StatusBadGateway {
		t.Errorf("pull of model the source lacks = %d, want 502", status)
	}
}

// TestRequestIDLogging: an X-Request-Id header shows up in the replica's
// structured request log and is echoed on the response; requests without
// one log no request_id attribute.
func TestRequestIDLogging(t *testing.T) {
	var buf lockedBuffer
	svc := service.New(service.Config{
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "gw-cafe-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "gw-cafe-7" {
		t.Errorf("response request ID = %q, want gw-cafe-7", got)
	}
	if logged := buf.String(); !strings.Contains(logged, "request_id=gw-cafe-7") {
		t.Errorf("log missing request_id:\n%s", logged)
	}

	// Without the header the attribute is absent entirely.
	getJSON(t, ts.URL+"/healthz")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if strings.Contains(last, "request_id") {
		t.Errorf("bare request logged a request_id: %s", last)
	}
}

// TestModelBodiesBounded: a model over telemetry.MaxBodyBytes is refused
// both ways it can arrive, and nothing is installed. A pushed body is a
// 413; a peer's answer to a pull is a 502. Both bodies are a valid model
// padded with trailing spaces, which an unbounded decode accepts.
func TestModelBodiesBounded(t *testing.T) {
	var srcRuns, pushRuns, pullRuns atomic.Int64
	src := newTestServer(t, &srcRuns)
	model, fp := characterizedModel(t, src)
	huge := model + strings.Repeat(" ", telemetry.MaxBodyBytes+1-len(model))

	push := newTestServer(t, &pushRuns)
	status, body := putJSON(t, push.URL+"/v1/models/"+fp, huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized install = %d, want 413 (%.200s)", status, body)
	}

	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, huge)
	}))
	t.Cleanup(peer.Close)
	pull := newTestServer(t, &pullRuns)
	req := fmt.Sprintf(`{"fingerprint": %q, "source": %q}`, fp, peer.URL)
	status, body = postJSON(t, pull.URL+"/v1/models/pull", req)
	if status != http.StatusBadGateway {
		t.Errorf("pull of an oversized model = %d, want 502 (%.200s)", status, body)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Errorf("pull error body %.200s does not name the bound", body)
	}

	for _, ts := range []*httptest.Server{push, pull} {
		if status, _ := getJSON(t, ts.URL+"/v1/models/"+fp); status != http.StatusNotFound {
			t.Errorf("GET after a refused install = %d, want 404", status)
		}
	}
	if n := pushRuns.Load() + pullRuns.Load(); n != 0 {
		t.Errorf("replicas ran the characterizer %d times", n)
	}
}

// TestLargestModelInstalls: the bound leaves room for real models. A
// whole-host model of hp-blade32, the largest profile (32 nodes), installs
// by push and by pull.
func TestLargestModelInstalls(t *testing.T) {
	var srcRuns, pushRuns, pullRuns atomic.Int64
	src := newTestServer(t, &srcRuns)
	status, body := postJSON(t, src.URL+"/v1/characterize", `{"machine": "hp-blade32", "config": {"repeats": 1, "sigma": -1}}`)
	if status != http.StatusOK {
		t.Fatalf("characterize = %d: %.200s", status, body)
	}
	var resp struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	fp := resp.Fingerprint
	status, model := getJSON(t, src.URL+"/v1/models/"+fp)
	if status != http.StatusOK {
		t.Fatalf("model get = %d", status)
	}
	// Larger than the pooled body buffer, so the install reads it into a
	// grown one.
	if len(model) < 100<<10 {
		t.Fatalf("hp-blade32 model is %d bytes, want a body over 100 KiB", len(model))
	}
	t.Logf("hp-blade32 whole-host model: %d bytes", len(model))

	push := newTestServer(t, &pushRuns)
	if status, body := putJSON(t, push.URL+"/v1/models/"+fp, string(model)); status != http.StatusOK {
		t.Errorf("install = %d: %.200s", status, body)
	}
	pull := newTestServer(t, &pullRuns)
	req := fmt.Sprintf(`{"fingerprint": %q, "source": %q}`, fp, src.URL)
	if status, body := postJSON(t, pull.URL+"/v1/models/pull", req); status != http.StatusOK {
		t.Errorf("pull = %d: %.200s", status, body)
	}
	for _, ts := range []*httptest.Server{push, pull} {
		if status, got := getJSON(t, ts.URL+"/v1/models/"+fp); status != http.StatusOK || !bytes.Equal(got, model) {
			t.Errorf("installed model GET = %d, %d bytes; want 200 and the source's %d bytes", status, len(got), len(model))
		}
	}
	if n := pushRuns.Load() + pullRuns.Load(); n != 0 {
		t.Errorf("replicas ran the characterizer %d times", n)
	}
}
