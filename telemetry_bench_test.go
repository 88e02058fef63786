// Telemetry-overhead microbenchmarks: the always-on flight recorder is
// only "always-on" because it is nearly free. BenchmarkRecorderOverhead
// serves response-cache-miss predictions, as BenchmarkPredictRequestMiss
// does, with the recorder disabled and enabled; scripts/bench.sh -check
// gates the on/off ratio at 5% so the observability tax on the serving
// path stays invisible. BenchmarkFlightRecorderRecord pins the recorder's
// own insert at zero allocations — the bounded-memory contract that makes
// a failure-storm dump safe.
package numaio

import (
	"net/http"
	"testing"
	"time"

	"numaio/internal/service"
	"numaio/internal/telemetry"
)

// BenchmarkRecorderOverhead measures the flight recorder's per-request
// cost. Each iteration sends one prediction no earlier request asked for
// to a daemon with the recorder off and to one with it on, at the
// daemon's default 30 s request deadline, alternating which goes first,
// and times each request: off-ns/op and on-ns/op are their means, ns/op
// is the pair's. Alternating single requests keeps the drift in host
// speed, which on a shared host outweighs the recorder, out of the ratio.
func BenchmarkRecorderOverhead(b *testing.B) {
	var hs [2]http.Handler
	for k, size := range []int{-1, 0} {
		cfg := service.Config{Workers: 2, RequestTimeout: 30 * time.Second, FlightRecorderSize: size}
		hs[k] = benchHandlerWith(b, cfg, benchPredictBody)
	}
	var spent [2]time.Duration
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = predictMissBody(body, i)
		for k := 0; k < 2; k++ {
			j := (i + k) % 2
			start := time.Now()
			serve(b, hs[j], "/v1/predict", body)
			spent[j] += time.Since(start)
		}
	}
	b.ReportMetric(float64(spent[0].Nanoseconds())/float64(b.N), "off-ns/op")
	b.ReportMetric(float64(spent[1].Nanoseconds())/float64(b.N), "on-ns/op")
}

// BenchmarkFlightRecorderRecord measures the recorder's raw insert on a
// full (wrapping) ring — the steady state of a long-lived daemon. The
// bench.sh gate holds it at zero allocations per record.
func BenchmarkFlightRecorderRecord(b *testing.B) {
	fr := telemetry.NewFlightRecorder(4096)
	ev := telemetry.FlightEvent{
		Time:    time.Now().UnixNano(),
		Dur:     3 * time.Millisecond,
		Status:  200,
		Name:    "/v1/predict",
		Cat:     "http",
		RID:     "bench-rid",
		TraceID: "0123456789abcdef0123456789abcdef",
	}
	for i := 0; i < 4096; i++ {
		fr.Record(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Record(ev)
	}
}
