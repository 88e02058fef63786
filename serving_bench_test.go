// Serving-path microbenchmarks: /v1/predict and /v1/place requests against
// a warmed numaiod service (model already characterized and cached).
// PredictRequest and PlaceRequest repeat one body, which the exact-bytes
// index answers; PredictRequestRespelled pays the canonical hit that
// respelled bodies take, and PredictRequestMiss the response-cache miss
// of traffic that never repeats. scripts/bench.sh records these next to
// the characterization benchmarks so the request-path fast lane (interned
// solver IDs, response caching, pooled encoders) is pinned by the same
// regression gate.
package numaio

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"numaio/internal/service"
)

// benchHandler builds a daemon handler and warms the model cache with one
// characterization of the reference machine, so the benchmark loop measures
// pure request serving, not Algorithm 1.
func benchHandler(b *testing.B, warm string) http.Handler {
	return benchHandlerWith(b, service.Config{Workers: 2}, warm)
}

func benchHandlerWith(b *testing.B, cfg service.Config, warm string) http.Handler {
	b.Helper()
	svc := service.New(cfg)
	h := svc.Handler()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, warmPath(warm), strings.NewReader(warm))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm-up request = %d %s", rec.Code, rec.Body.String())
	}
	return h
}

// warmPath picks the endpoint matching the warm-up body.
func warmPath(body string) string {
	if strings.Contains(body, `"tasks"`) {
		return "/v1/place"
	}
	return "/v1/predict"
}

const benchPredictBody = `{"machine": "dl585g7", "config": {"repeats": 1, "sigma": -1},
 "target": 7, "mode": "write", "mix": {"0": 0.25, "2": 0.25, "4": 0.25, "7": 0.25}}`

const benchPlaceBody = `{"machine": "dl585g7", "config": {"repeats": 1, "sigma": -1},
 "target": 7, "tasks": 8}`

// BenchmarkPredictRequest measures one hot Eq. 1 prediction request.
func BenchmarkPredictRequest(b *testing.B) {
	h := benchHandler(b, benchPredictBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(benchPredictBody))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("predict = %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkPlaceRequest measures one hot placement request (all four
// single-host policies, estimates only).
func BenchmarkPlaceRequest(b *testing.B) {
	h := benchHandler(b, benchPlaceBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(benchPlaceBody))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("place = %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkPredictRequestRespelled measures a hot prediction whose body is
// spelled unlike the one its cache entry remembers: the body is read,
// missed by the exact-bytes index, decoded, keyed and served by a
// canonical hit.
func BenchmarkPredictRequestRespelled(b *testing.B) {
	h := benchHandler(b, benchPredictBody)
	// Repeating the warm-up body makes its spelling the entry's own.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(benchPredictBody)))
	const respelled = `{"mix": {"7": 0.25, "4": 0.25, "2": 0.25, "0": 0.25}, "mode": "write", "target": 7,
 "config": {"sigma": -1, "repeats": 1}, "machine": "dl585g7"}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(respelled))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("predict = %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkPredictRequestMiss measures a prediction no earlier request
// asked for, at the daemon's default 30 s request deadline: a model-cache
// hit and a response-cache miss, so the request is decoded, resolved,
// predicted, encoded and cached (evicting once the cache is full).
func BenchmarkPredictRequestMiss(b *testing.B) {
	h := benchHandlerWith(b, service.Config{Workers: 2, RequestTimeout: 30 * time.Second}, benchPredictBody)
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = predictMissBody(body, i)
		serve(b, h, "/v1/predict", body)
	}
}

// predictMissBody rewrites body into the i-th of a sequence of predictions
// that never repeats: each sends a new count for node 0.
func predictMissBody(body []byte, i int) []byte {
	body = append(body[:0], `{"machine": "dl585g7", "config": {"repeats": 1, "sigma": -1},
 "target": 7, "mode": "write", "counts": {"0": `...)
	body = strconv.AppendInt(body, int64(i+1), 10)
	return append(body, `, "7": 1}}`...)
}

// serve posts body to h and fails b unless the answer is a 200.
func serve(b *testing.B, h http.Handler, path string, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("%s = %d %s", path, rec.Code, rec.Body.String())
	}
}

// BenchmarkPlaceRequestMiss measures a placement no earlier request asked
// for, with evaluate, at the daemon's default 30 s request deadline: a
// model-cache hit and a response-cache miss, so the request is decoded,
// resolved, placed and estimated under all four single-host policies,
// evaluated by fio, encoded and cached. Every iteration sends a new
// size_per_task and rotates the target over dl585g7's eight nodes and the
// task count over 2-8, as the place-evaluate workload does.
func BenchmarkPlaceRequestMiss(b *testing.B) {
	h := benchHandlerWith(b, service.Config{Workers: 2, RequestTimeout: 30 * time.Second}, benchPlaceBody)
	const prefix = `{"machine": "dl585g7", "config": {"repeats": 1, "sigma": -1}, "evaluate": true, "size_per_task": `
	body := []byte(prefix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = strconv.AppendInt(body[:len(prefix)], int64(256+i)<<20, 10)
		body = append(body, `, "target": `...)
		body = strconv.AppendInt(body, int64(i%8), 10)
		body = append(body, `, "tasks": `...)
		body = strconv.AppendInt(body, int64(2+i%7), 10)
		body = append(body, '}')
		serve(b, h, "/v1/place", body)
	}
}
