// Command numaioload is the serving-path load harness: it drives a running
// numaiod's /v1/predict or /v1/place endpoint — or a numaiogw gateway's
// /v1/fleet/place — at a configurable concurrency and reports RPS plus
// p50/p95/p99 latency from an HDR-style histogram (internal/loadgen). One
// warm-up request runs first against every target so the measured window
// never includes the initial characterization.
//
// Usage:
//
//	numaioload -addr http://host:port [-addr http://host2:port]
//	           [-endpoint predict|place|fleet-place]
//	           [-machine name] [-target n] [-mode write|read]
//	           [-mix "0:0.5,2:0.5"] [-tasks n] [-repeats n] [-sigma s]
//	           [-concurrency n] [-duration d] [-requests n] [-timeout d]
//	           [-hist-dump hist.json] [-trace trace.json] [-stage-report]
//
// -addr may repeat (or take a comma-separated list); requests round-robin
// across the targets, so a fleet of daemons — or several gateways — can be
// driven from one harness. -url remains as a single-target synonym.
//
// Every request carries a generated X-Request-Id and a fresh X-Trace-Ctx,
// so server-side logs, flight recorders, and traces link back to the
// report. Besides end-to-end latency, the report splits each request into
// client-observed stages (connect / ttfb / decode) and names exemplar
// request IDs from the slowest decile — the IDs to grep for in numaiod's
// logs or /debug/flightrecorder when chasing the p99.
//
// -hist-dump writes the raw measured-window latency histogram (bucket
// uppers and counts, nanoseconds) as JSON for offline analysis. -trace
// records one span per measured request as Chrome trace-event JSON;
// -stage-report prints the per-stage breakdown. See docs/OBSERVABILITY.md.
//
// Exit status: 0 on a completed run, 1 when the daemon is unreachable or
// requests fail, 2 on usage errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"numaio/internal/cli"
	"numaio/internal/loadgen"
	"numaio/internal/telemetry"
)

func main() {
	os.Exit(cli.Main("numaioload", run(os.Args[1:], os.Stdout)))
}

// parseMix turns "0:0.5,2:0.5" into the predict request's mix object.
func parseMix(s string) (map[string]float64, error) {
	mix := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		node, frac, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not node:fraction", part)
		}
		if _, err := strconv.Atoi(node); err != nil {
			return nil, fmt.Errorf("mix node %q is not an integer", node)
		}
		f, err := strconv.ParseFloat(frac, 64)
		if err != nil {
			return nil, fmt.Errorf("mix fraction %q: %v", frac, err)
		}
		mix[node] = f
	}
	return mix, nil
}

// stageHists splits each request's latency into the client-observed
// stages: connect (dial or connection-pool checkout), ttfb (request fully
// written to first response byte — the server-side span, roughly), and
// decode (first byte to body fully read). The three histograms are shared
// across workers, so records take a mutex; the lock covers an
// allocation-free histogram insert and is negligible next to an HTTP
// round trip.
type stageHists struct {
	mu      sync.Mutex
	connect *telemetry.Histogram
	ttfb    *telemetry.Histogram
	decode  *telemetry.Histogram
}

func newStageHists() *stageHists {
	return &stageHists{
		connect: telemetry.NewHistogram(),
		ttfb:    telemetry.NewHistogram(),
		decode:  telemetry.NewHistogram(),
	}
}

func (s *stageHists) record(connect, ttfb, decode time.Duration) {
	s.mu.Lock()
	s.connect.Record(connect)
	s.ttfb.Record(ttfb)
	s.decode.Record(decode)
	s.mu.Unlock()
}

func (s *stageHists) reset() {
	s.mu.Lock()
	s.connect = telemetry.NewHistogram()
	s.ttfb = telemetry.NewHistogram()
	s.decode = telemetry.NewHistogram()
	s.mu.Unlock()
}

func (s *stageHists) report(out io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, row := range []struct {
		name string
		h    *telemetry.Histogram
	}{{"connect", s.connect}, {"ttfb", s.ttfb}, {"decode", s.decode}} {
		if row.h.Count() == 0 {
			continue
		}
		fmt.Fprintf(out, "stage %s p50 %s p95 %s p99 %s\n", row.name,
			row.h.Quantile(0.50).Round(time.Microsecond),
			row.h.Quantile(0.95).Round(time.Microsecond),
			row.h.Quantile(0.99).Round(time.Microsecond))
	}
}

// endpointPath maps the -endpoint kind to its URL path. fleet-place is
// served by the numaiogw gateway, the other two by numaiod (or a gateway
// proxying for one).
func endpointPath(endpoint string) (string, error) {
	switch endpoint {
	case "predict":
		return "/v1/predict", nil
	case "place":
		return "/v1/place", nil
	case "fleet-place":
		return "/v1/fleet/place", nil
	}
	return "", fmt.Errorf("endpoint must be predict, place or fleet-place, got %q", endpoint)
}

// buildBody assembles the request body for the chosen endpoint.
func buildBody(endpoint, machine string, target int, mode string, mix map[string]float64, tasks, repeats int, sigma float64) ([]byte, error) {
	config := map[string]any{"repeats": repeats, "sigma": sigma}
	body := map[string]any{"machine": machine, "config": config, "target": target}
	switch endpoint {
	case "predict":
		body["mode"] = mode
		body["mix"] = mix
	case "place", "fleet-place":
		body["tasks"] = tasks
	default:
		return nil, fmt.Errorf("endpoint must be predict, place or fleet-place, got %q", endpoint)
	}
	return json.Marshal(body)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("numaioload", flag.ContinueOnError)
	url := fs.String("url", "", "base URL of a running numaiod (single-target synonym for -addr)")
	var addrs []string
	fs.Func("addr", "target base URL; repeat or comma-separate for round-robin across a fleet", func(v string) error {
		for _, a := range strings.Split(v, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, strings.TrimRight(a, "/"))
			}
		}
		return nil
	})
	endpoint := fs.String("endpoint", "predict", "endpoint to drive: predict, place or fleet-place")
	machine := fs.String("machine", "dl585g7", "machine profile the requests name")
	target := fs.Int("target", 7, "target node for predictions/placements")
	mode := fs.String("mode", "write", "prediction mode: write or read")
	mixFlag := fs.String("mix", "0:0.5,2:0.5", "predict traffic mix as node:fraction pairs")
	tasks := fs.Int("tasks", 8, "tasks to place (place endpoint)")
	repeats := fs.Int("repeats", 1, "characterization repeats requested")
	sigma := fs.Float64("sigma", -1, "characterization noise sigma (negative disables)")
	concurrency := fs.Int("concurrency", 4, "closed-loop worker count")
	duration := fs.Duration("duration", 5*time.Second, "run length (ignored when -requests > 0)")
	requests := fs.Int("requests", 0, "total request cap (0 = run for -duration)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	histDump := fs.String("hist-dump", "", "write the raw latency histogram as JSON to this file")
	trace := cli.NewTraceFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *url != "" {
		addrs = append([]string{strings.TrimRight(*url, "/")}, addrs...)
	}
	if len(addrs) == 0 {
		return cli.Usagef("at least one -addr (or -url) is required")
	}
	if *concurrency < 1 {
		return cli.Usagef("-concurrency must be at least 1, got %d", *concurrency)
	}
	if *requests <= 0 && *duration <= 0 {
		return cli.Usagef("one of -requests or -duration must be positive")
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	body, err := buildBody(*endpoint, *machine, *target, *mode, mix, *tasks, *repeats, *sigma)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	path, err := endpointPath(*endpoint)
	if err != nil {
		return cli.Usagef("%v", err)
	}

	client := &http.Client{Timeout: *timeout}
	stages := newStageHists()
	// Every request carries its generated X-Request-Id and a fresh
	// X-Trace-Ctx, so server-side flight recorders and traces link back to
	// the harness's report (and its slowest-decile exemplars) by ID.
	postTo := func(base, id string, tc telemetry.TraceContext) (int, string, error) {
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", id)
		req.Header.Set(telemetry.TraceCtxHeader, tc.String())
		var connStart, connDone, wrote, first time.Time
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GetConn:              func(string) { connStart = time.Now() },
			GotConn:              func(httptrace.GotConnInfo) { connDone = time.Now() },
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		}))
		resp, err := client.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if !connStart.IsZero() && !wrote.IsZero() && !first.IsZero() {
			stages.record(connDone.Sub(connStart), first.Sub(wrote), time.Since(first))
		}
		return resp.StatusCode, string(b), nil
	}
	// Round-robin across the targets so load spreads over a fleet.
	var next atomic.Uint64
	post := func(id string, tc telemetry.TraceContext) (int, string, error) {
		return postTo(addrs[(next.Add(1)-1)%uint64(len(addrs))], id, tc)
	}

	// Warm-up: characterize once per target outside the measured window,
	// and fail fast on an unreachable daemon or a rejected request shape.
	for _, base := range addrs {
		status, respBody, err := postTo(base, "load-warmup", telemetry.NewTraceContext())
		if err != nil {
			return fmt.Errorf("warm-up request to %s: %w", base, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up request to %s: %d %s", base, status, strings.TrimSpace(respBody))
		}
	}
	stages.reset() // the warm-ups are not part of the measured window

	tr := trace.Tracer()
	runSpan := tr.StartSpan("load-run", "load")
	res, err := loadgen.Run(loadgen.Config{
		Concurrency: *concurrency,
		Requests:    *requests,
		Duration:    *duration,
		DoTagged: func(id string) error {
			tc := telemetry.NewTraceContext()
			span := tr.StartSpan(path, "request")
			span.SetAttr(telemetry.String("request_id", id))
			span.SetAttr(telemetry.String("trace_id", tc.TraceID))
			st, _, err := post(id, tc)
			span.SetAttr(telemetry.Int("status", st))
			span.End()
			if err != nil {
				return err
			}
			if st != http.StatusOK {
				return fmt.Errorf("status %d", st)
			}
			return nil
		},
	})
	runSpan.End()
	if err != nil {
		return err
	}
	if *histDump != "" {
		f, err := os.Create(*histDump)
		if err != nil {
			return err
		}
		if err := res.Hist.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "numaioload: endpoint=%s targets=%d machine=%s concurrency=%d duration=%s\n",
		path, len(addrs), *machine, *concurrency, res.Duration.Round(time.Millisecond))
	fmt.Fprintf(out, "requests %d errors %d rps %.1f\n", res.Requests, res.Errors, res.RPS)
	fmt.Fprintf(out, "latency p50 %s p95 %s p99 %s max %s\n",
		res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond),
		res.P99.Round(time.Microsecond), res.Max.Round(time.Microsecond))
	stages.report(out)
	if n := len(res.SlowExemplars); n > 0 {
		// ExemplarsAbove is fastest-first; name the slowest few.
		ids := make([]string, 0, n)
		for _, ex := range res.SlowExemplars[max(0, n-5):] {
			ids = append(ids, ex.ID)
		}
		fmt.Fprintf(out, "slowest decile exemplars %s\n", strings.Join(ids, " "))
	}
	if err := trace.Finish(out); err != nil {
		return err
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", res.Errors, res.Requests)
	}
	return nil
}
