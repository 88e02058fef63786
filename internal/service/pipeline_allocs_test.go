package service

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"numaio/internal/cli"
)

// nopWriter is a ResponseWriter that allocates nothing, so AllocsPerRun
// counts only what the pipeline spends.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestPipelineAllocs pins the per-request allocations of numaiod's request
// pipeline around a no-op /v1/ handler, at the daemon's defaults (30 s
// deadline, inbound X-Request-Id). There were 28 before the daemons
// shared one pipeline; now 9 without a request log and 10 with one (10
// and 13 under -race, whose instrumentation allocates too), and the
// bounds leave room for the race detector and other Go releases.
func TestPipelineAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		logger *slog.Logger
		max    float64
	}{
		{"no-log", nil, 12},
		{"text-log", slog.New(slog.NewTextHandler(io.Discard, nil)), 14},
	} {
		s := New(Config{RequestTimeout: 30 * time.Second, Logger: tc.logger})
		s.handle("POST /v1/noop", func(w http.ResponseWriter, r *http.Request) {})
		req := httptest.NewRequest(http.MethodPost, "/v1/noop", nil)
		req.Header.Set("X-Request-Id", "rid-1")
		w := &nopWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(1000, func() {
			clear(w.h)
			s.mux.ServeHTTP(w, req)
		})
		if allocs > tc.max {
			t.Errorf("%s: %v allocs per request, want <= %v", tc.name, allocs, tc.max)
		}
		t.Logf("%s: %v allocs per request", tc.name, allocs)
	}
}

// TestQuietBuildsNoRequestLog: the logger -quiet hands the daemon is nil,
// so a request builds no log attributes and formats no line; a logger on
// io.Discard, the old -quiet, still does both.
func TestQuietBuildsNoRequestLog(t *testing.T) {
	allocs := func(logger *slog.Logger) float64 {
		s := New(Config{Logger: logger})
		s.handle("POST /v1/noop", func(w http.ResponseWriter, r *http.Request) {})
		req := httptest.NewRequest(http.MethodPost, "/v1/noop", nil)
		w := &nopWriter{h: http.Header{}}
		return testing.AllocsPerRun(1000, func() {
			clear(w.h)
			s.mux.ServeHTTP(w, req)
		})
	}
	quiet := allocs(cli.DaemonLogger(io.Discard, true))
	discard := allocs(cli.DaemonLogger(io.Discard, false))
	if quiet >= discard {
		t.Errorf("quiet request: %v allocs, want fewer than the %v of a logger on io.Discard", quiet, discard)
	}
	t.Logf("quiet %v, io.Discard logger %v allocs per request", quiet, discard)
}
