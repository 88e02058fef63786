package service_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"numaio/internal/service"
)

// maskSamples replaces every sample's value (and exemplar) with "_",
// keeping HELP/TYPE lines, sample names and label sets: what a scraper
// depends on, without the values that are process-global (fabric solver
// stats) or timing-dependent (latency buckets).
func maskSamples(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			end := strings.IndexByte(line, ' ')
			if i := strings.IndexByte(line, '{'); i >= 0 && i < end {
				end = strings.IndexByte(line, '}') + 1
			}
			line = line[:end] + " _"
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsGolden pins numaiod's /metrics contract after a fixed request
// sequence: family order, HELP and TYPE text, sample names and label sets.
// The render goes through WriteMetrics so the scrape is not itself counted.
func TestMetricsGolden(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	h := svc.Handler()
	for i, rq := range []struct{ method, path, body string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodPost, "/v1/characterize", fastBody},
		{http.MethodPost, "/v1/characterize", `{`},
		{http.MethodPost, "/v1/predict", predictBody},
		{http.MethodPost, "/v1/predict", predictBody},
		{http.MethodPost, "/v1/place", placeBody},
		{http.MethodGet, "/v1/jobs/no-such-job", ""},
		{http.MethodPost, "/debug/trace/start", ""},
		{http.MethodPost, "/debug/trace/stop", ""},
		{http.MethodGet, "/debug/flightrecorder", ""},
	} {
		req := httptest.NewRequest(rq.method, rq.path, strings.NewReader(rq.body))
		req.Header.Set("X-Request-Id", fmt.Sprintf("golden-%d", i))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("%s %s = %d: %s", rq.method, rq.path, rec.Code, rec.Body)
		}
	}

	var buf bytes.Buffer
	svc.WriteMetrics(&buf)
	got := maskSamples(buf.String())
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("masked /metrics differs from testdata/metrics.golden; got:\n%s", got)
	}
}
