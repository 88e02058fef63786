package telemetry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries a request's ID between hops and back to the
// client, so one logical request is traceable in every process's logs,
// flight recorder and latency exemplars.
const RequestIDHeader = "X-Request-Id"

// PipelineConfig configures a Pipeline from what a daemon already has.
type PipelineConfig struct {
	// Daemon names the process ("numaiod", "numaiogw") in flight dumps and
	// trace downloads.
	Daemon string
	// Logger receives one structured line per request; nil logs nothing.
	Logger *slog.Logger
	// RequestIDPrefix, when set, assigns "<prefix><n>" to requests that
	// arrive without an X-Request-Id; empty only echoes inbound IDs.
	RequestIDPrefix string
	// FlightRecorderSize bounds the flight recorder ring; 0 means 4096
	// events, negative disables the recorder.
	FlightRecorderSize int
	// FlightDump, when non-nil, receives an automatic flight-recorder dump
	// on 5xx responses and on DumpOnFailure calls.
	FlightDump io.Writer
}

// Pipeline is the request pipeline numaiod and numaiogw share. Every route
// registered through Handle gets the request ID (echoed, or assigned when
// configured), a child trace context (X-Trace-Ctx), a span on the active
// /debug/trace recording, a count in the requests-by-endpoint counter and
// one structured log line. /v1/ routes additionally get a per-request
// stage breakdown (Server-Timing), the latency histogram with request-ID
// exemplars, a flight-recorder event and, on a 5xx, a flight dump.
type Pipeline struct {
	daemon    string
	log       *slog.Logger
	ridPrefix string
	ridSeq    atomic.Uint64

	traces   TraceControl
	flight   *FlightRecorder
	dump     io.Writer
	lastDump atomic.Int64

	requests *EndpointCounter
	latency  *BucketHistogram
}

// NewPipeline builds a pipeline from the config.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	logger := cfg.Logger
	if logger == nil {
		// Above every level in use, so no request-log attributes are built.
		logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	var flight *FlightRecorder
	if cfg.FlightRecorderSize >= 0 {
		size := cfg.FlightRecorderSize
		if size == 0 {
			size = 4096
		}
		flight = NewFlightRecorder(size)
	}
	return &Pipeline{
		daemon:    cfg.Daemon,
		log:       logger,
		ridPrefix: cfg.RequestIDPrefix,
		flight:    flight,
		dump:      cfg.FlightDump,
		requests:  NewEndpointCounter(),
		// From a cache-hit response (tens of microseconds) up to a
		// characterize-on-miss request.
		latency: NewBucketHistogram([]float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 5}),
	}
}

// Log returns the daemon's logger (one that discards when none was
// configured).
func (p *Pipeline) Log() *slog.Logger { return p.log }

// Tracer returns the tracer of the /debug/trace recording in progress, or
// nil — which every Tracer method accepts.
func (p *Pipeline) Tracer() *Tracer { return p.traces.Active() }

// Record adds ev to the flight recorder (a no-op when it is disabled).
func (p *Pipeline) Record(ev FlightEvent) { p.flight.Record(ev) }

// Requests returns the requests-by-endpoint counter.
func (p *Pipeline) Requests() *EndpointCounter { return p.requests }

// RegisterSeries registers the pipeline's trace and flight-recorder
// gauges on r, then its /v1/ request latency histogram, with the given
// help text, as <daemon>_request_seconds.
func (p *Pipeline) RegisterSeries(r *Registry, latencyHelp string) {
	r.IntGaugeFunc(p.daemon+"_trace_active",
		"Whether a /debug/trace recording is in progress.",
		func() int64 {
			if p.traces.Tracing() {
				return 1
			}
			return 0
		})
	r.IntGaugeFunc(p.daemon+"_trace_events",
		"Events recorded by the active (or last stopped) trace.",
		func() int64 { return int64(p.traces.Current().Len()) })
	r.IntGaugeFunc(p.daemon+"_flight_events",
		"Events currently retained by the always-on flight recorder.",
		func() int64 { return int64(p.flight.Len()) })
	r.HistogramSeries(p.daemon+"_request_seconds", latencyHelp, p.latency)
}

// Dump writes one flight-recorder dump to w, headed with the daemon name
// and reason. Dumps are rate-limited to one per second across every
// caller — automatic dumps and the daemons' SIGQUIT handlers alike — so a
// failure storm cannot flood the log stream. A skipped dump, or a
// disabled recorder, is reported as an error.
func (p *Pipeline) Dump(w io.Writer, reason string) error {
	if p.flight == nil {
		return fmt.Errorf("%s: flight recorder disabled", p.daemon)
	}
	now := time.Now().UnixNano()
	last := p.lastDump.Load()
	if now-last < int64(time.Second) || !p.lastDump.CompareAndSwap(last, now) {
		return errors.New("flight recorder dump skipped: at most one per second")
	}
	fmt.Fprintf(w, "%s flight recorder dump (%s):\n", p.daemon, reason)
	if err := p.flight.WriteJSON(w); err != nil {
		return fmt.Errorf("%s: writing flight recorder dump: %w", p.daemon, err)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// DumpOnFailure dumps the flight recorder to the configured FlightDump
// writer, if there is one — the automatic dump on failures and
// breaker-open transitions.
func (p *Pipeline) DumpOnFailure(reason string) {
	if p.dump != nil {
		_ = p.Dump(p.dump, reason)
	}
}

// Handle registers h on mux under pattern, behind the pipeline. The
// endpoint label is the pattern's path up to its first wildcard, so every
// "GET /v1/models/{fingerprint}" request counts under "/v1/models".
func (p *Pipeline) Handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	endpoint := pattern[strings.IndexByte(pattern, ' ')+1:]
	if i := strings.Index(endpoint, "/{"); i >= 0 {
		endpoint = endpoint[:i]
	}
	v1 := strings.HasPrefix(endpoint, "/v1/")
	counts := p.requests.Endpoint(endpoint)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rw := &responseWriter{ResponseWriter: w, counts: counts}
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" && p.ridPrefix != "" {
			rid = p.ridPrefix + strconv.FormatUint(p.ridSeq.Add(1), 10)
			r.Header.Set(RequestIDHeader, rid)
		}
		// A malformed or absent inbound context parses as the zero one, so
		// the request starts a fresh trace rather than failing.
		in, _ := ParseTraceContext(r.Header.Get(TraceCtxHeader))
		rw.trace, rw.echo[1] = mintTrace(in.TraceID)
		rw.echo[0] = rid
		hdr := w.Header()
		if rid != "" {
			hdr[RequestIDHeader] = rw.echo[0:1:1]
		}
		hdr[TraceCtxHeader] = rw.echo[1:2:2]
		if v1 {
			rw.stages = &rw.table
		}
		r = r.WithContext(context.WithValue(r.Context(), requestKey{}, rw))

		// The explicit nil guard (rather than relying on nil-tracer no-ops)
		// keeps the untraced path free of the variadic attr allocations.
		var span *Span
		if tr := p.traces.Active(); tr != nil {
			span = tr.StartSpan(endpoint, "http",
				String("method", r.Method),
				String("trace_id", rw.trace.TraceID),
				String("span_id", rw.trace.SpanID))
		}
		h(rw, r)
		if !rw.counted {
			// Nothing written: send the empty 200 net/http would send,
			// through the wrapper so it is counted and carries its stages.
			rw.WriteHeader(http.StatusOK)
		}
		if span != nil {
			span.SetAttr(Int("status", rw.status))
			span.End()
		}
		elapsed := time.Since(start)
		if v1 {
			p.latency.ObserveExemplar(elapsed.Seconds(), rid)
			p.flight.Record(FlightEvent{
				Time:    start.UnixNano(),
				Dur:     elapsed,
				Status:  rw.status,
				Name:    endpoint,
				Cat:     "http",
				RID:     rid,
				TraceID: rw.trace.TraceID,
			})
			if rw.status >= http.StatusInternalServerError {
				p.DumpOnFailure(fmt.Sprintf("status %d on %s", rw.status, endpoint))
			}
		}
		if p.log.Enabled(r.Context(), slog.LevelInfo) {
			attrs := make([]slog.Attr, 0, 8+maxStages)
			attrs = append(attrs,
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rw.status),
				slog.Duration("duration", elapsed),
				slog.Int("bytes", rw.bytes),
				slog.String("remote", r.RemoteAddr),
				slog.String("trace_id", rw.trace.TraceID))
			if rid != "" {
				attrs = append(attrs, slog.String("request_id", rid))
			}
			attrs = rw.stages.AppendLogAttrs(attrs)
			p.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

// requestKey keys the one context node the pipeline adds to a request:
// its responseWriter, which carries the request's trace context and (on
// /v1/ routes) its stage breakdown.
type requestKey struct{}

// responseWriter is one request's pipeline state and its ResponseWriter
// wrapper. It captures the status and byte count, injects the stage
// breakdown as an additional Server-Timing value at WriteHeader time (the
// last moment headers are mutable, and after any upstream hop's values, so
// the client sees every hop's attribution), and counts the request then —
// before its headers leave, so a client holding the response headers
// already sees the request in /metrics.
type responseWriter struct {
	http.ResponseWriter
	trace   TraceContext
	stages  *Stages // nil off /v1/ routes
	counts  *IntCounterVec
	status  int
	bytes   int
	counted bool
	// echo backs the X-Request-Id and X-Trace-Ctx response header values,
	// and table the stage breakdown, so neither costs an allocation of its
	// own.
	echo  [2]string
	table Stages
}

func (w *responseWriter) WriteHeader(code int) {
	if !w.counted {
		if st := w.stages.Header(); st != "" {
			w.Header().Add("Server-Timing", st)
		}
		w.status = code
		w.counted = true
		w.counts.With(code).Inc()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseWriter) Write(b []byte) (int, error) {
	if !w.counted {
		w.WriteHeader(http.StatusOK)
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *responseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// StagesFromWriter returns the stage breakdown of the request a pipeline
// ResponseWriter belongs to, or nil, for code that holds the writer but
// not the request.
func StagesFromWriter(w http.ResponseWriter) *Stages {
	if rw, ok := w.(*responseWriter); ok {
		return rw.stages
	}
	return nil
}

// DebugRoutes registers the observability endpoints on mux, through the
// pipeline. POST /debug/trace/start begins recording every request span
// (and whatever the daemon records onto Tracer) onto a fresh tracer; POST
// /debug/trace/stop freezes it; GET /debug/trace downloads the recording
// (active or last stopped) as Chrome trace-event JSON, loadable in
// Perfetto or stitched with other processes' recordings by
// cmd/numaiotrace. GET /debug/flightrecorder dumps the flight recorder.
func (p *Pipeline) DebugRoutes(mux *http.ServeMux) {
	p.Handle(mux, "POST /debug/trace/start", func(w http.ResponseWriter, r *http.Request) {
		// Starting while already tracing discards the in-progress recording
		// and begins a fresh one — idempotent for scripts, and the old
		// tracer stays readable by in-flight spans that captured it.
		p.traces.Start()
		WriteJSON(w, http.StatusOK, traceState{Tracing: true})
	})
	p.Handle(mux, "POST /debug/trace/stop", func(w http.ResponseWriter, r *http.Request) {
		// Stop without start reports whatever was last retained (zero
		// events when nothing ever ran).
		WriteJSON(w, http.StatusOK, traceState{Events: p.traces.Stop().Len()})
	})
	p.Handle(mux, "GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		tr := p.traces.Current()
		if tr == nil {
			WriteError(w, http.StatusNotFound, "no trace recorded: POST /debug/trace/start first")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="`+p.daemon+`-trace.json"`)
		if err := tr.WriteJSON(w); err != nil {
			p.log.Error("writing trace", "error", err)
		}
	})
	p.Handle(mux, "GET /debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		if p.flight == nil {
			WriteError(w, http.StatusNotFound, "flight recorder disabled")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := p.flight.WriteJSON(w); err != nil {
			p.log.Error("writing flight recorder", "error", err)
		}
	})
}

type traceState struct {
	Tracing bool `json:"tracing"`
	// Events is the number of trace events captured so far (stop reports
	// the final count of the recording it just froze).
	Events int `json:"events"`
}
