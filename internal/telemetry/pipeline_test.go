package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPipelineCountsBeforeHeadersLeave: a request is counted by the time
// its response headers reach the client, even while the handler is still
// running — a client that holds the headers and scrapes /metrics must see
// its own request.
func TestPipelineCountsBeforeHeadersLeave(t *testing.T) {
	p := NewPipeline(PipelineConfig{Daemon: "test"})
	mux := http.NewServeMux()
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	p.Handle(mux, "GET /v1/slow", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("flush through the pipeline: %v", err)
		}
		<-release
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer unblock()

	resp, err := http.Get(ts.URL + "/v1/slow")
	if err != nil {
		t.Fatal(err)
	}
	got := p.Requests().Endpoint("/v1/slow").Value(http.StatusOK)
	unblock()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got != 1 {
		t.Fatalf("requests counted once the headers arrived = %d, want 1", got)
	}
}

// TestPipelineCountsSilentHandler: a handler that writes nothing is
// counted once, as the empty 200 net/http sends for it.
func TestPipelineCountsSilentHandler(t *testing.T) {
	p := NewPipeline(PipelineConfig{Daemon: "test"})
	mux := http.NewServeMux()
	p.Handle(mux, "POST /v1/models/{id}", func(w http.ResponseWriter, r *http.Request) {})
	mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/models/abc", nil))
	if got := p.Requests().Endpoint("/v1/models").Value(http.StatusOK); got != 1 {
		t.Errorf("silent handler counted %d times under /v1/models 200, want 1", got)
	}
}

// TestPipelineDump: one headed dump, then the one-per-second limit, and
// an error when the recorder is disabled.
func TestPipelineDump(t *testing.T) {
	p := NewPipeline(PipelineConfig{Daemon: "test"})
	var buf bytes.Buffer
	if err := p.Dump(&buf, "because"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "test flight recorder dump (because):\n{") {
		t.Errorf("dump = %q", buf.String())
	}
	if err := p.Dump(&buf, "again"); err == nil {
		t.Error("second dump within a second was not rate-limited")
	}
	off := NewPipeline(PipelineConfig{Daemon: "test", FlightRecorderSize: -1})
	if err := off.Dump(io.Discard, "x"); err == nil {
		t.Error("dump with the recorder disabled succeeded")
	}
}
