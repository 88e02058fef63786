package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
)

// maskSamples replaces every sample's value (and exemplar) with "_",
// keeping HELP/TYPE lines, sample names and label sets.
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

// TestGatewayMetricsGolden pins numaiogw's /metrics contract after a fixed
// request sequence: family order, HELP and TYPE text, sample names and
// label sets, with sample values masked.
func TestGatewayMetricsGolden(t *testing.T) {
	tf := newTestFleet(t, 2, nil)
	for i, rq := range []struct{ method, path, body string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodPost, "/v1/predict", predictBody},
		{http.MethodPost, "/v1/predict", `{`},
		{http.MethodGet, "/v1/fleet/status", ""},
		{http.MethodPost, "/debug/trace/start", ""},
		{http.MethodPost, "/debug/trace/stop", ""},
		{http.MethodGet, "/debug/flightrecorder", ""},
	} {
		hdr := http.Header{}
		hdr.Set(RequestIDHeader, fmt.Sprintf("golden-%d", i))
		if rec := tf.do(t, rq.method, rq.path, rq.body, hdr); rec.Code >= http.StatusInternalServerError {
			t.Fatalf("%s %s = %d: %s", rq.method, rq.path, rec.Code, rec.Body)
		}
	}

	var buf bytes.Buffer
	tf.gw.WriteMetrics(&buf)
	got := maskSamples(buf.String())
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("masked /metrics differs from testdata/metrics.golden; got:\n%s", got)
	}
}
