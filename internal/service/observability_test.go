package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"numaio/internal/core"
	"numaio/internal/service"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

func doRequest(t *testing.T, method, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTraceContextPropagation checks the middleware's X-Trace-Ctx handling:
// a request without the header gets a freshly minted context echoed back,
// and a request carrying one gets a child — same trace ID, new span ID —
// so one trace ID follows a request across fleet hops.
func TestTraceContextPropagation(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d", resp.StatusCode)
	}
	minted, ok := telemetry.ParseTraceContext(resp.Header.Get(telemetry.TraceCtxHeader))
	if !ok {
		t.Fatalf("response X-Trace-Ctx %q does not parse", resp.Header.Get(telemetry.TraceCtxHeader))
	}

	parent := telemetry.NewTraceContext()
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, map[string]string{
		telemetry.TraceCtxHeader: parent.String(),
		"X-Request-Id":           "prop-rid-1",
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	child, ok := telemetry.ParseTraceContext(resp.Header.Get(telemetry.TraceCtxHeader))
	if !ok {
		t.Fatalf("response X-Trace-Ctx %q does not parse", resp.Header.Get(telemetry.TraceCtxHeader))
	}
	if child.TraceID != parent.TraceID {
		t.Errorf("child trace ID %s, want parent's %s", child.TraceID, parent.TraceID)
	}
	if child.SpanID == parent.SpanID {
		t.Error("child kept the parent span ID")
	}
	if child.TraceID == minted.TraceID {
		t.Error("two unrelated requests share a trace ID")
	}
	if got := resp.Header.Get("X-Request-Id"); got != "prop-rid-1" {
		t.Errorf("X-Request-Id echo = %q", got)
	}
}

// TestServerTimingStages checks v1 responses carry the per-request stage
// breakdown: a characterize-on-miss predict reports solve time, and a
// response-cache hit reports only the cache lookup.
func TestServerTimingStages(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st := resp.Header.Get("Server-Timing")
	for _, stage := range []string{"cache;dur=", "queue;dur=", "solve;dur=", "encode;dur="} {
		if !strings.Contains(st, stage) {
			t.Errorf("miss Server-Timing %q lacks %q", st, stage)
		}
	}

	// Same request again: served from the response cache, so no queue or
	// solve stage — just the lookup.
	resp = doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	st = resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "cache;dur=") || strings.Contains(st, "solve;dur=") {
		t.Errorf("hit Server-Timing = %q, want cache only", st)
	}
	if runs.Load() != 1 {
		t.Errorf("characterizer ran %d times, want 1", runs.Load())
	}

	// Non-v1 endpoints carry no stage breakdown.
	resp = doRequest(t, http.MethodGet, ts.URL+"/healthz", "", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("Server-Timing"); got != "" {
		t.Errorf("healthz Server-Timing = %q, want none", got)
	}
}

// TestFlightRecorderEndpoint drives a v1 request and checks the always-on
// flight recorder captured it — name, request ID and the trace ID echoed on
// the response — via /debug/flightrecorder.
func TestFlightRecorderEndpoint(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)

	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, map[string]string{
		"X-Request-Id": "flight-rid-7",
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tc, ok := telemetry.ParseTraceContext(resp.Header.Get(telemetry.TraceCtxHeader))
	if !ok {
		t.Fatal("no trace context on response")
	}

	status, body := getJSON(t, ts.URL+"/debug/flightrecorder")
	if status != http.StatusOK {
		t.Fatalf("flightrecorder = %d", status)
	}
	var dump struct {
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Name      string `json:"name"`
			Cat       string `json:"cat"`
			RequestID string `json:"request_id"`
			TraceID   string `json:"trace_id"`
			Status    int    `json:"status"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v\n%s", err, body)
	}
	found := false
	for _, e := range dump.Events {
		if e.Name == "/v1/predict" && e.RequestID == "flight-rid-7" {
			found = true
			if e.TraceID != tc.TraceID {
				t.Errorf("flight event trace ID %s, want %s", e.TraceID, tc.TraceID)
			}
			if e.Cat != "http" || e.Status != http.StatusOK {
				t.Errorf("flight event cat=%q status=%d", e.Cat, e.Status)
			}
		}
	}
	if !found {
		t.Errorf("no flight event for the predict request:\n%s", body)
	}
}

// TestFlightRecorderDisabled checks a negative FlightRecorderSize turns the
// endpoint into a 404 and DumpFlightRecorder into an error.
func TestFlightRecorderDisabled(t *testing.T) {
	svc := service.New(service.Config{FlightRecorderSize: -1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	if status, _ := getJSON(t, ts.URL+"/debug/flightrecorder"); status != http.StatusNotFound {
		t.Errorf("disabled flightrecorder = %d, want 404", status)
	}
	if err := svc.DumpFlightRecorder(io.Discard); err == nil {
		t.Error("DumpFlightRecorder succeeded with the recorder disabled")
	}
}

// TestFlightDumpOnFailure checks a 5xx response triggers an automatic
// flight-recorder dump to the configured writer.
func TestFlightDumpOnFailure(t *testing.T) {
	var dumpBuf bytes.Buffer
	svc := service.New(service.Config{
		Workers: 1,
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			return nil, errors.New("measurement rig on fire")
		},
		FlightDump: &dumpBuf,
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	status, _ := postJSON(t, ts.URL+"/v1/characterize", fastBody)
	if status != http.StatusInternalServerError {
		t.Fatalf("characterize = %d, want 500", status)
	}
	out := dumpBuf.String()
	if !strings.Contains(out, "flight recorder dump") || !strings.Contains(out, `"/v1/characterize"`) {
		t.Errorf("no automatic flight dump after a 500; got:\n%s", out)
	}
}

// TestModelPullPropagatesTrace checks the outbound hop of a model pull
// carries the pulling request's trace context and request ID.
func TestModelPullPropagatesTrace(t *testing.T) {
	var gotTrace, gotRID atomic.Value
	source := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTrace.Store(r.Header.Get(telemetry.TraceCtxHeader))
		gotRID.Store(r.Header.Get("X-Request-Id"))
		http.NotFound(w, r) // pull fails; only the propagation matters here
	}))
	t.Cleanup(source.Close)

	var runs atomic.Int64
	ts := newTestServer(t, &runs)
	parent := telemetry.NewTraceContext()
	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/models/pull",
		`{"fingerprint": "deadbeef", "source": "`+source.URL+`"}`,
		map[string]string{
			telemetry.TraceCtxHeader: parent.String(),
			"X-Request-Id":           "pull-rid-3",
		})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	hop, ok := telemetry.ParseTraceContext(gotTrace.Load().(string))
	if !ok {
		t.Fatalf("pull hop X-Trace-Ctx %q does not parse", gotTrace.Load())
	}
	if hop.TraceID != parent.TraceID {
		t.Errorf("pull hop trace ID %s, want %s", hop.TraceID, parent.TraceID)
	}
	if gotRID.Load().(string) != "pull-rid-3" {
		t.Errorf("pull hop X-Request-Id = %q", gotRID.Load())
	}
}

// TestMetricsExposition pins the /metrics exposition contract: every family
// has HELP and TYPE lines, the request-latency histogram renders with its
// exemplar suffix, and two back-to-back renders of a quiesced server are
// byte-identical (scrape determinism). The renders go through WriteMetrics
// rather than HTTP so the scrape itself does not perturb the counters.
func TestMetricsExposition(t *testing.T) {
	svc := service.New(service.Config{
		Workers: 2,
		Characterize: func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
			return service.DefaultCharacterize(ctx, m, cfg)
		},
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	resp := doRequest(t, http.MethodPost, ts.URL+"/v1/predict", predictBody, map[string]string{
		"X-Request-Id": "exemplar-rid-9",
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var buf bytes.Buffer
	svc.WriteMetrics(&buf)
	body := buf.Bytes()
	text := string(body)
	for _, want := range []string{
		"# HELP numaiod_request_seconds ",
		"# TYPE numaiod_request_seconds histogram",
		"numaiod_request_seconds_bucket{le=\"+Inf\"} 1",
		"numaiod_request_seconds_count 1",
		`# {request_id="exemplar-rid-9"}`,
		"# HELP numaiod_flight_events ",
		"# TYPE numaiod_flight_events gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Every sample line belongs to a family that declared HELP and TYPE.
	declared := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			declared[strings.Fields(rest)[0]] = true
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok {
				base = cut
			}
		}
		if !declared[name] && !declared[base] {
			t.Errorf("sample %q has no # TYPE declaration", name)
		}
	}

	// Quiesced server: repeated renders are byte-identical.
	var again bytes.Buffer
	svc.WriteMetrics(&again)
	if !bytes.Equal(body, again.Bytes()) {
		t.Error("two back-to-back metrics renders differ on an idle server")
	}
}

// stageNames lists the stages of a Server-Timing value in order.
func stageNames(serverTiming string) []string {
	var names []string
	for _, part := range strings.Split(serverTiming, ", ") {
		if name, _, ok := strings.Cut(part, ";"); ok {
			names = append(names, name)
		}
	}
	return names
}

// TestServerTimingStageNames pins which stages each serving path reports,
// in order: a characterize-on-miss predict uses seven of the eight slots,
// a model-cache hit skips queue and solve, a respelled body's canonical
// hit decodes and looks up, and a repeat of exact bytes reports only the
// lookup. /v1/place and /v1/whatif report the same decode, resolve and
// predict stages.
func TestServerTimingStageNames(t *testing.T) {
	var runs atomic.Int64
	ts := newTestServer(t, &runs)
	const respelled = `{"mode": "write", "target": 3, "machine": "intel-4s4n",
 "mix": {"3": 0.5, "0": 0.5}, "config": {"sigma": -1, "repeats": 1}}`
	for _, tc := range []struct {
		name, path, body string
		want             []string
	}{
		{"characterize-on-miss", "/v1/predict", predictBody,
			[]string{"decode", "cache", "resolve", "queue", "solve", "predict", "encode"}},
		{"model-cache hit", "/v1/predict", strings.Replace(predictBody, `"mode": "write"`, `"mode": "read"`, 1),
			[]string{"decode", "cache", "resolve", "predict", "encode"}},
		{"canonical hit", "/v1/predict", respelled, []string{"decode", "cache"}},
		{"exact-bytes hit", "/v1/predict", respelled, []string{"cache"}},
		{"place miss", "/v1/place", placeBody,
			[]string{"decode", "cache", "resolve", "predict", "encode"}},
		{"place exact-bytes hit", "/v1/place", placeBody, []string{"cache"}},
		{"whatif", "/v1/whatif", `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
 "target": 3, "modes": ["write"], "degrade": [{"a": "node0", "b": "node1", "factor": 0.5}]}`,
			[]string{"decode", "resolve", "cache", "queue", "solve", "predict", "encode"}},
	} {
		resp := doRequest(t, http.MethodPost, ts.URL+tc.path, tc.body, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if tc.name == "place exact-bytes hit" {
			// The first repeat is the canonical hit that records the spelling.
			resp = doRequest(t, http.MethodPost, ts.URL+tc.path, tc.body, nil)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, resp.StatusCode)
		}
		st := resp.Header.Get("Server-Timing")
		if got := stageNames(st); strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: stages %v (Server-Timing %q), want %v", tc.name, got, st, tc.want)
		}
	}
}
