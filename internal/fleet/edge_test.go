package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"numaio/internal/service"
	"numaio/internal/telemetry"
)

// TestTrailingDataIs400: a predict body with anything but whitespace after
// its JSON value is a 400 with the same error body from a replica directly
// and through the gateway, while trailing whitespace still serves.
func TestTrailingDataIs400(t *testing.T) {
	tf := newTestFleet(t, 1, nil)
	direct := func(body string) (int, string) {
		resp, err := http.Post(tf.servers["r0"].URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, trailer := range []string{" garbage", "{}", `"x"`, "]"} {
		body := predictBody + trailer
		code, text := direct(body)
		if code != http.StatusBadRequest || !strings.Contains(text, "after top-level value") {
			t.Errorf("replica, trailer %q: %d %s, want 400 naming the trailing data", trailer, code, text)
		}
		rec := tf.do(t, http.MethodPost, "/v1/predict", body, nil)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != text {
			t.Errorf("gateway, trailer %q: %d %s, want the replica's 400 %s", trailer, rec.Code, rec.Body, text)
		}
	}
	if code, text := direct(predictBody + " \n\t\r\n"); code != http.StatusOK {
		t.Errorf("replica, trailing whitespace: %d %s, want 200", code, text)
	}
	if rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody+"\n", nil); rec.Code != http.StatusOK {
		t.Errorf("gateway, trailing newline: %d %s, want 200", rec.Code, rec.Body)
	}
}

// TestFleetPlaceOversizedAnswer: a replica whose /v1/place answer is
// padded past telemetry.MaxBodyBytes is an error on that host, and the
// placement stands over the hosts that answered within the bound. The
// body the gateway renders itself reports its encode stage.
func TestFleetPlaceOversizedAnswer(t *testing.T) {
	cfg := &Config{VNodes: 8}
	for name, bps := range map[string]float64{"ra": 100, "rb": 200} {
		ts := fakePlaceReplica(t, 2, bps)
		cfg.Replicas = append(cfg.Replicas, Replica{Name: name, URL: ts.URL})
	}
	// The padded answer would win the placement if it were read.
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		answer := `{"fingerprint": "fp-fake", "results": [
			{"policy": "class-balanced", "placement": [4], "estimate_bps": 900}]}`
		io.WriteString(w, answer+strings.Repeat(" ", telemetry.MaxBodyBytes+1-len(answer)))
	}))
	t.Cleanup(huge.Close)
	cfg.Replicas = append(cfg.Replicas, Replica{Name: "rc", URL: huge.URL})
	gw, err := NewGateway(GatewayConfig{Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/place",
		strings.NewReader(`{"machine": "intel-4s4n", "target": 0}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet place = %d: %s", rec.Code, rec.Body)
	}
	if st := rec.Header().Get("Server-Timing"); !strings.Contains(st, "encode;dur=") {
		t.Errorf("fleet place Server-Timing %q lacks the encode stage", st)
	}
	var resp fleetPlaceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Host != "rb" || resp.Responses != 2 || !resp.Degraded {
		t.Errorf("host/responses/degraded = %s/%d/%t, want rb/2/true", resp.Host, resp.Responses, resp.Degraded)
	}
	for _, hp := range resp.PerHost {
		if oversized := hp.Host == "rc"; oversized != strings.Contains(hp.Error, "exceeds") {
			t.Errorf("host %s: error %q", hp.Host, hp.Error)
		}
	}
}

// hopRecorder wraps a replica's handler and keeps the request ID and trace
// ID of each request it receives, by method and path.
type hopRecorder struct {
	mu   sync.Mutex
	hops map[string][2]string
}

func (h *hopRecorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, _ := telemetry.ParseTraceContext(r.Header.Get(telemetry.TraceCtxHeader))
		h.mu.Lock()
		h.hops[r.Method+" "+r.URL.Path] = [2]string{r.Header.Get(RequestIDHeader), tc.TraceID}
		h.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

func (h *hopRecorder) get(key string) ([2]string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hop, ok := h.hops[key]
	return hop, ok
}

// TestReplicationPullCarriesTrace: the pull a hot request triggers carries
// that request's X-Request-Id and trace ID from the gateway to the pulling
// peer, and from the peer to the source replica it fetches the model from.
func TestReplicationPullCarriesTrace(t *testing.T) {
	rec := &hopRecorder{hops: make(map[string][2]string)}
	cfg := &Config{VNodes: 32, Replication: 2, HotThreshold: 1}
	services := make(map[string]*service.Server)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("r%d", i)
		services[name] = service.New(service.Config{Workers: 2})
		ts := httptest.NewServer(rec.wrap(services[name].Handler()))
		t.Cleanup(ts.Close)
		cfg.Replicas = append(cfg.Replicas, Replica{Name: name, URL: ts.URL})
	}
	gw, err := NewGateway(GatewayConfig{Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintOf(t, "intel-4s4n")
	peer := gw.Ring().Owners(fp, 2)[1]

	parent := telemetry.NewTraceContext()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody))
	req.Header.Set(telemetry.TraceCtxHeader, parent.String())
	req.Header.Set(RequestIDHeader, "hot-rid-7")
	w := httptest.NewRecorder()
	gw.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	if _, ok := services[peer].Cache().FindByFingerprint(fp); !ok {
		t.Fatalf("peer %s did not receive the hot model", peer)
	}
	want := [2]string{"hot-rid-7", parent.TraceID}
	for _, hop := range []string{"POST /v1/models/pull", "GET /v1/models/" + fp} {
		if got, ok := rec.get(hop); !ok || got != want {
			t.Errorf("%s carried request ID and trace ID %q (seen %t), want %q", hop, got, ok, want)
		}
	}
}
