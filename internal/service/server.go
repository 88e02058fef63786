// Package service is the model-serving daemon behind cmd/numaiod: an HTTP
// JSON API (stdlib net/http only) that characterizes machines with
// Algorithm 1 once, caches the resulting models by topology fingerprint,
// and serves predictions (Eq. 1), placements (internal/sched and
// internal/cluster policies) and what-if diffs hot.
//
// The paper's Sec. V-B point is that characterization is expensive and
// should be amortized; the cache plus singleflight coalescing in this
// package is the systems embodiment of that: a fleet of identical requests
// costs one characterization.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"numaio/internal/core"
	"numaio/internal/fabric"
	"numaio/internal/numa"
	"numaio/internal/resilience"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

// ErrCircuitOpen is returned (as a 503) when a model's circuit breaker is
// open after repeated characterization failures and no stale fallback
// exists.
var ErrCircuitOpen = errors.New("service: characterization suspended (circuit open)")

// CharacterizeFunc runs Algorithm 1 for a whole machine. The daemon uses
// the real characterizer; tests inject counters or stubs. The context
// carries the request deadline — implementations should abandon work when
// it is done.
type CharacterizeFunc func(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error)

// DefaultCharacterize boots a simulated system on the machine and runs the
// whole-host characterization.
func DefaultCharacterize(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sys, err := numa.NewSystem(m)
	if err != nil {
		return nil, err
	}
	c, err := core.NewCharacterizer(sys, cfg)
	if err != nil {
		return nil, err
	}
	return c.CharacterizeAll()
}

// Config tunes the daemon.
type Config struct {
	// Workers bounds concurrent characterizations; 0 means 4.
	Workers int
	// Parallelism is the worker-pool width each characterization fans its
	// (target, mode) sweeps over (core.Config.Parallelism); 0 means the
	// pool width (Workers). Parallelism changes wall time only, never the
	// model, so it is excluded from cache keys.
	Parallelism int
	// CacheEntries bounds the model cache; 0 means 64.
	CacheEntries int
	// CacheTTL expires cached models; 0 means 1 hour, negative disables
	// expiry.
	CacheTTL time.Duration
	// RespCacheEntries bounds the per-endpoint response caches (rendered
	// predict/place bodies keyed by canonical request shape); 0 means 1024,
	// negative disables response caching. Entries share CacheTTL — they are
	// deterministic, so the TTL only bounds memory.
	RespCacheEntries int
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
	// Characterize overrides the Algorithm 1 runner (tests); nil uses
	// DefaultCharacterize.
	Characterize CharacterizeFunc

	// RequestTimeout bounds each request's context; 0 means no limit. A
	// characterization that overruns it is abandoned and reported as 504.
	RequestTimeout time.Duration
	// Retries is the retry budget for a failed characterization, with
	// exponential backoff from RetryBackoff between attempts; 0 disables
	// retrying (the historical behaviour).
	Retries int
	// RetryBackoff is the base backoff between retries; 0 means 100ms.
	RetryBackoff time.Duration
	// BreakerThreshold opens a per-model circuit breaker after this many
	// consecutive characterization failures, so a persistently failing
	// machine stops consuming worker slots; 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a probe; 0 means 30s.
	BreakerCooldown time.Duration
	// Clock drives request deadlines, retry backoff and breaker
	// cooldowns; nil means the system clock. Tests inject fakes so
	// resilience paths run without real sleeps.
	Clock resilience.Clock

	// PullClient performs outbound model fetches for the replication pull
	// hook (POST /v1/models/pull); nil means a 30s-timeout client.
	PullClient *http.Client

	// FlightRecorderSize bounds the always-on flight recorder ring (recent
	// request and resilience events, dumped via /debug/flightrecorder and
	// on failures); 0 means 4096 events, negative disables the recorder.
	FlightRecorderSize int
	// FlightDump, when non-nil, receives an automatic flight-recorder dump
	// on request failure (5xx) and breaker-open transitions, rate-limited
	// to one dump per second. cmd/numaiod points it at stderr and also
	// dumps on SIGQUIT via DumpFlightRecorder.
	FlightDump io.Writer
}

// Server is the daemon state: cache, worker pool, job registry, metrics
// and the HTTP handler tree.
type Server struct {
	log          *slog.Logger
	cache        *ModelCache
	predictCache *RespCache
	placeCache   *RespCache
	pool         *Pool
	jobs         *JobRegistry
	metrics      *Metrics
	registry     *telemetry.Registry
	mux          *http.ServeMux
	characterize CharacterizeFunc
	parallelism  int
	pullClient   *http.Client

	// installs counts models installed by the fleet replication hooks
	// (push or pull) — the numaiod_models_installed_total series.
	installs telemetry.Counter

	// traces owns the /debug/trace lifecycle: the active recording plus
	// the last stopped one, both still readable by in-flight spans.
	traces telemetry.TraceControl

	// flight is the always-on flight recorder (nil when disabled);
	// flightDump receives automatic dumps on request failures and
	// breaker-open transitions, rate-limited via lastFlightDump.
	flight         *telemetry.FlightRecorder
	flightDump     io.Writer
	lastFlightDump atomic.Int64

	requestTimeout   time.Duration
	retry            resilience.RetryPolicy
	breakerThreshold int
	breakerCooldown  time.Duration
	clock            resilience.Clock

	brMu     sync.Mutex
	breakers map[string]*resilience.Breaker
}

// New builds a server from the config.
func New(cfg Config) *Server {
	ttl := cfg.CacheTTL
	if ttl == 0 {
		ttl = time.Hour
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ch := cfg.Characterize
	if ch == nil {
		ch = DefaultCharacterize
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	parallelism := cfg.Parallelism
	if parallelism <= 0 {
		parallelism = workers
	}
	clock := cfg.Clock
	if clock == nil {
		clock = resilience.SystemClock{}
	}
	backoff := cfg.RetryBackoff
	if backoff == 0 {
		backoff = 100 * time.Millisecond
	}
	cooldown := cfg.BreakerCooldown
	if cooldown == 0 {
		cooldown = 30 * time.Second
	}
	pullClient := cfg.PullClient
	if pullClient == nil {
		pullClient = &http.Client{Timeout: 30 * time.Second}
	}
	var flight *telemetry.FlightRecorder
	if cfg.FlightRecorderSize >= 0 {
		size := cfg.FlightRecorderSize
		if size == 0 {
			size = 4096
		}
		flight = telemetry.NewFlightRecorder(size)
	}
	s := &Server{
		log:          logger,
		cache:        NewModelCache(cfg.CacheEntries, ttl),
		predictCache: NewRespCache(cfg.RespCacheEntries, ttl),
		placeCache:   NewRespCache(cfg.RespCacheEntries, ttl),
		pool:         NewPool(workers),
		jobs:         NewJobRegistry(),
		metrics:      NewMetrics(),
		mux:          http.NewServeMux(),
		characterize: ch,
		parallelism:  parallelism,
		pullClient:   pullClient,
		flight:       flight,
		flightDump:   cfg.FlightDump,

		requestTimeout:   cfg.RequestTimeout,
		retry:            resilience.RetryPolicy{MaxRetries: cfg.Retries, Base: backoff},
		breakerThreshold: cfg.BreakerThreshold,
		breakerCooldown:  cooldown,
		clock:            clock,
		breakers:         make(map[string]*resilience.Breaker),
	}
	s.metrics.SetParallelism(parallelism)
	s.registry = newExtraRegistry(s)
	s.routes()
	return s
}

// newExtraRegistry builds the telemetry registry rendered after the
// historical metrics block on /metrics: solver and pool counters from
// internal/fabric, measurement-worker occupancy from internal/core, and
// the trace recorder's state. Pre-existing metric names are untouched —
// these series are strictly additive.
func newExtraRegistry(s *Server) *telemetry.Registry {
	r := telemetry.NewRegistry()
	r.IntCounterFunc("numaiod_solver_solves_total",
		"Successful fabric solver passes (water-filling allocations).",
		func() int64 { return fabric.ReadStats().Solves })
	r.FloatCounterFunc("numaiod_solver_solve_seconds_total",
		"Total wall time spent in fabric solver passes.",
		func() float64 { return float64(fabric.ReadStats().SolveNanos) / 1e9 })
	r.IntCounterFunc("numaiod_solver_resets_total",
		"Solver flow-set resets (fluid-session reuse between runs).",
		func() int64 { return fabric.ReadStats().Resets })
	r.IntCounterFunc("numaiod_solver_incremental_total",
		"Solver passes served from converged state (dirty components only).",
		func() int64 { return fabric.ReadStats().IncrementalSolves })
	r.IntCounterFunc("numaiod_solver_full_total",
		"Solver passes that re-leveled every flow from scratch.",
		func() int64 { return fabric.ReadStats().FullSolves })
	r.IntCounterFunc("numaiod_solver_pool_hits_total",
		"AcquireSolver calls served from the solver pool.",
		func() int64 { return fabric.ReadStats().PoolHits() })
	r.IntCounterFunc("numaiod_solver_pool_misses_total",
		"AcquireSolver calls that constructed a fresh solver.",
		func() int64 { return fabric.ReadStats().PoolNews })
	r.IntCounterFunc("numaiod_models_installed_total",
		"Models installed by the fleet replication hooks (push or pull).",
		s.installs.Value)
	r.IntGaugeFunc("numaiod_measure_workers_busy",
		"Measurement workers currently executing a characterization cell.",
		core.ActiveMeasureWorkers)
	r.IntGaugeFunc("numaiod_trace_active",
		"Whether a /debug/trace recording is in progress.",
		func() int64 {
			if s.traces.Tracing() {
				return 1
			}
			return 0
		})
	r.IntGaugeFunc("numaiod_trace_events",
		"Events recorded by the active (or last stopped) trace.",
		func() int64 { return int64(s.traces.Current().Len()) })
	r.IntGaugeFunc("numaiod_flight_events",
		"Events currently retained by the always-on flight recorder.",
		func() int64 { return int64(s.flight.Len()) })
	r.Register(telemetry.Series{
		Name: "numaiod_request_seconds",
		Type: "histogram",
		Help: "v1 request latency, with the last request ID per bucket as an OpenMetrics-style exemplar.",
		Collect: func(w io.Writer) {
			h := s.metrics.RequestLatency()
			counts := h.Counts()
			bounds := h.Bounds()
			var cum int64
			writeBucket := func(le string, i int) {
				fmt.Fprintf(w, "numaiod_request_seconds_bucket{le=%q} %d", le, cum)
				if ex := h.Exemplar(i); ex != "" {
					fmt.Fprintf(w, " # {request_id=%q}", ex)
				}
				fmt.Fprintln(w)
			}
			for i, le := range bounds {
				cum += counts[i]
				writeBucket(strconv.FormatFloat(le, 'g', -1, 64), i)
			}
			cum += counts[len(bounds)]
			writeBucket("+Inf", len(bounds))
			fmt.Fprintf(w, "numaiod_request_seconds_sum %g\n", h.Sum())
			fmt.Fprintf(w, "numaiod_request_seconds_count %d\n", h.Total())
		},
	})
	return r
}

func (s *Server) routes() {
	s.handle("GET /healthz", "/healthz", s.handleHealthz)
	s.handle("GET /metrics", "/metrics", s.handleMetrics)
	s.handle("POST /v1/characterize", "/v1/characterize", s.handleCharacterize)
	s.handle("GET /v1/models/{fingerprint}", "/v1/models", s.handleModel)
	s.handle("PUT /v1/models/{fingerprint}", "/v1/models", s.handleModelInstall)
	s.handle("POST /v1/models/pull", "/v1/models/pull", s.handleModelPull)
	s.handle("GET /v1/jobs/{id}", "/v1/jobs", s.handleJob)
	s.handle("POST /v1/predict", "/v1/predict", s.handlePredict)
	s.handle("POST /v1/predict/batch", "/v1/predict/batch", s.handlePredictBatch)
	s.handle("POST /v1/place", "/v1/place", s.handlePlace)
	s.handle("POST /v1/whatif", "/v1/whatif", s.handleWhatif)
	s.handle("POST /debug/trace/start", "/debug/trace/start", s.handleTraceStart)
	s.handle("POST /debug/trace/stop", "/debug/trace/stop", s.handleTraceStop)
	s.handle("GET /debug/trace", "/debug/trace", s.handleTraceDownload)
	s.handle("GET /debug/flightrecorder", "/debug/flightrecorder", s.handleFlightRecorder)
}

// handle registers a pattern under the logging/metrics middleware. The
// endpoint label aggregates path parameters (e.g. every /v1/models/{fp}
// request counts under "/v1/models"). A configured RequestTimeout becomes
// the request context's deadline here, so every handler inherits it.
//
// The middleware also owns trace-context propagation: an inbound
// X-Trace-Ctx header (W3C traceparent syntax) is parsed and a child span
// context derived from it — or a fresh one minted when absent/malformed —
// echoed on the response and threaded through the request context so
// downstream hops (model pulls) carry the same trace ID. v1 endpoints
// additionally get a per-request stage breakdown (Server-Timing header),
// the whole-request latency histogram with request-ID exemplars, and a
// flight-recorder event.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	isV1 := strings.HasPrefix(endpoint, "/v1/")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		// A request ID arriving from the gateway (or any client) is echoed
		// on the response and joined to the request log, so one forwarded
		// request is traceable across hops.
		rid := r.Header.Get("X-Request-Id")
		if rid != "" {
			w.Header().Set("X-Request-Id", rid)
		}
		var tc telemetry.TraceContext
		if in, ok := telemetry.ParseTraceContext(r.Header.Get(telemetry.TraceCtxHeader)); ok {
			tc = in.Child()
		} else {
			tc = telemetry.NewTraceContext()
		}
		w.Header().Set(telemetry.TraceCtxHeader, tc.String())
		r = r.WithContext(telemetry.ContextWithTrace(r.Context(), tc))
		var stg *telemetry.Stages
		if isV1 {
			stg = telemetry.NewStages()
			rec.stages = stg
			r = r.WithContext(telemetry.ContextWithStages(r.Context(), stg))
		}
		if s.requestTimeout > 0 {
			ctx, cancel := resilience.ContextWithTimeout(r.Context(), s.clock, s.requestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		// One span per request on the active trace. The explicit nil guard
		// (rather than relying on nil-tracer no-ops) keeps the untraced
		// fast path free of the variadic attr allocations.
		var span *telemetry.Span
		if tr := s.traces.Active(); tr != nil {
			span = tr.StartSpan(endpoint, "http",
				telemetry.String("method", r.Method),
				telemetry.String("trace_id", tc.TraceID),
				telemetry.String("span_id", tc.SpanID))
		}
		h(rec, r)
		if span != nil {
			span.SetAttr(telemetry.Int("status", rec.status))
			span.End()
		}
		elapsed := time.Since(start)
		s.metrics.ObserveRequest(endpoint, rec.status)
		if isV1 {
			s.metrics.ObserveRequestLatency(elapsed.Seconds(), rid)
			s.flight.Record(telemetry.FlightEvent{
				Time:    start.UnixNano(),
				Dur:     elapsed,
				Status:  rec.status,
				Name:    endpoint,
				Cat:     "http",
				RID:     rid,
				TraceID: tc.TraceID,
			})
			if rec.status >= http.StatusInternalServerError {
				s.dumpFlight(fmt.Sprintf("status %d on %s", rec.status, endpoint))
			}
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration", elapsed,
			"bytes", rec.bytes,
			"remote", r.RemoteAddr,
			"trace_id", tc.TraceID,
		}
		if rid != "" {
			attrs = append(attrs, "request_id", rid)
		}
		attrs = stg.AppendLogAttrs(attrs)
		s.log.Info("request", attrs...)
	})
}

// statusRecorder captures the response status and byte count, and — when
// the middleware attached a stage breakdown — injects the Server-Timing
// header at WriteHeader time, the last moment headers are mutable.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	stages *telemetry.Stages
}

func (r *statusRecorder) WriteHeader(code int) {
	if st := r.stages.Header(); st != "" {
		r.ResponseWriter.Header().Set("Server-Timing", st)
	}
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// dumpFlight writes one flight-recorder dump to the configured FlightDump
// writer, rate-limited to one per second so a failure storm cannot flood
// the log stream.
func (s *Server) dumpFlight(reason string) {
	if s.flightDump == nil || s.flight == nil {
		return
	}
	now := time.Now().UnixNano()
	last := s.lastFlightDump.Load()
	if now-last < int64(time.Second) || !s.lastFlightDump.CompareAndSwap(last, now) {
		return
	}
	fmt.Fprintf(s.flightDump, "numaiod flight recorder dump (%s):\n", reason)
	_ = s.flight.WriteJSON(s.flightDump)
	fmt.Fprintln(s.flightDump)
}

// DumpFlightRecorder writes the flight recorder's JSON snapshot to w —
// cmd/numaiod wires it to SIGQUIT. It reports an error when the recorder
// is disabled.
func (s *Server) DumpFlightRecorder(w io.Writer) error {
	if s.flight == nil {
		return errors.New("service: flight recorder disabled")
	}
	return s.flight.WriteJSON(w)
}

// WriteMetrics renders the full /metrics payload: the historical block
// followed by the additive registry series. Exported so tests can pin the
// exposition format without an HTTP round trip.
func (s *Server) WriteMetrics(w io.Writer) {
	s.metrics.WriteTo(w, s.cache.Stats(), s.predictCache.Stats(), s.placeCache.Stats(),
		s.pool.InFlight(), s.openBreakers())
	s.registry.Render(w)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the model cache (metrics, tests).
func (s *Server) Cache() *ModelCache { return s.cache }

// Metrics exposes the metrics registry (tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Drain stops admitting async work and waits for in-flight jobs, honouring
// ctx as the deadline. Call after http.Server.Shutdown during graceful
// termination.
func (s *Server) Drain(ctx context.Context) error { return s.pool.Drain(ctx) }

// characterizeCached returns the whole-host model of machine m, whose
// topology fingerprint fp the caller supplies (cli.ResolveMachine returns
// it with the machine), computing it at most once per (fingerprint,
// config) across concurrent callers. The first bool reports a cache (or
// coalesced) hit; the second reports a stale entry served because
// recomputation failed or its circuit breaker is open (graceful
// degradation: the last good model beats a 500).
func (s *Server) characterizeCached(ctx context.Context, m *topology.Machine, fp string, cfg core.Config) (*core.MachineModel, bool, bool, error) {
	if cfg.Parallelism == 0 {
		cfg.Parallelism = s.parallelism
	}
	// Record onto the active /debug/trace, if one is running. The tracer
	// shapes no results and configKey never includes it, so traced and
	// untraced runs share cache entries.
	cfg.Tracer = s.traces.Active()
	key := fp + "|" + configKey(cfg)

	br := s.breakerFor(key)
	if br != nil && !br.Allow() {
		if mm, ok := s.cache.GetStale(key); ok {
			s.metrics.ObserveStaleServed()
			return mm, true, true, nil
		}
		return nil, false, false, fmt.Errorf("%w: model %s", ErrCircuitOpen, fp)
	}

	// Stage attribution: queue is the wait for a worker slot, solve the
	// characterization itself (retries included), and cache whatever is
	// left of the lookup — map access plus coalescing waits. A coalesced
	// follower spends its whole wall time here under "cache", which is
	// accurate: it waited on the cache, not on a solver.
	stg := telemetry.StagesFromContext(ctx)
	cacheStart := time.Now()
	mm, cached, err := s.cache.GetOrCompute(key, func() (*core.MachineModel, error) {
		queueStart := time.Now()
		if err := s.pool.Acquire(ctx); err != nil {
			return nil, err
		}
		stg.Add("queue", time.Since(queueStart))
		defer s.pool.Release()
		start := time.Now()
		var mm *core.MachineModel
		rerr := resilience.Retry(ctx, s.clock, s.retry, func(attempt int) error {
			if attempt > 0 {
				s.metrics.ObserveCharacterizeRetry()
				s.log.Warn("retrying characterization", "fingerprint", fp, "attempt", attempt)
			}
			var cerr error
			mm, cerr = s.characterize(ctx, m, cfg)
			if cerr != nil && ctx.Err() == nil {
				// Everything but a dead request context is worth a retry.
				return resilience.MarkTransient(cerr)
			}
			return cerr
		})
		stg.Add("solve", time.Since(start))
		if rerr != nil {
			return nil, rerr
		}
		s.metrics.ObserveCharacterization(time.Since(start))
		mm.Fingerprint = fp
		return mm, nil
	})
	if stg != nil {
		if d := time.Since(cacheStart) - stg.Get("queue") - stg.Get("solve"); d > 0 {
			stg.Add("cache", d)
		}
	}
	// Only the caller that actually computed (or failed to) moves the
	// breaker; cache hits and coalesced followers say nothing about the
	// machine's health.
	if br != nil && !cached {
		if err != nil {
			br.Failure()
		} else {
			br.Success()
		}
	}
	if err != nil {
		if mm, ok := s.cache.GetStale(key); ok {
			s.log.Warn("serving stale model after failed recomputation",
				"fingerprint", fp, "error", err)
			s.metrics.ObserveStaleServed()
			return mm, true, true, nil
		}
		return nil, false, false, err
	}
	return mm, cached, false, nil
}

// breakerFor returns the circuit breaker guarding one cache key, creating
// it on first use; nil when breakers are disabled.
func (s *Server) breakerFor(key string) *resilience.Breaker {
	if s.breakerThreshold <= 0 {
		return nil
	}
	s.brMu.Lock()
	defer s.brMu.Unlock()
	br, ok := s.breakers[key]
	if !ok {
		br = resilience.NewBreaker(s.breakerThreshold, s.breakerCooldown, s.clock)
		br.SetTransitionHook(func(from, to resilience.BreakerState) {
			s.traces.Active().Instant("breaker-"+to.String(), "resilience",
				telemetry.String("from", from.String()),
				telemetry.String("key", key))
			s.flight.Record(telemetry.FlightEvent{
				Time:   time.Now().UnixNano(),
				Name:   "breaker-" + to.String(),
				Cat:    "resilience",
				Detail: "key=" + key + " from=" + from.String(),
			})
			if to == resilience.BreakerOpen {
				s.dumpFlight("breaker open: " + key)
			}
		})
		s.breakers[key] = br
	}
	return br
}

// openBreakers counts breakers currently open — the numaiod_breaker_open
// gauge.
func (s *Server) openBreakers() int {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	open := 0
	for _, br := range s.breakers {
		if br.State() == resilience.BreakerOpen {
			open++
		}
	}
	return open
}

// errStatus maps a characterization failure to its HTTP status: dead
// deadlines are the gateway's fault (504), an open breaker is explicit
// back-pressure (503), anything else is a plain 500.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrCircuitOpen):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// configKey canonicalizes the characterization options that shape a model
// — the shared suffix of model- and response-cache keys. Parallelism is
// deliberately absent: parallel and serial characterizations are
// bit-identical, so they share cache entries.
func configKey(cfg core.Config) string {
	return fmt.Sprintf("t%d r%d b%d g%g s%g",
		cfg.Threads, cfg.Repeats, int64(cfg.BytesPerThread), cfg.GapThreshold, cfg.Sigma)
}

// jsonEncoder is a pooled buffer+encoder pair so the hot serving path does
// not rebuild a json.Encoder (and grow a fresh buffer) per response.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &jsonEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// encodeJSON renders v exactly as writeJSON does (two-space indent,
// trailing newline) into a freshly owned byte slice, via the encoder pool.
func encodeJSON(v any) ([]byte, error) {
	e := encPool.Get().(*jsonEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encPool.Put(e)
		return nil, err
	}
	body := make([]byte, e.buf.Len())
	copy(body, e.buf.Bytes())
	encPool.Put(e)
	return body, nil
}

// writeJSON encodes v with a status code, charging the encode time to the
// request's "encode" stage when the middleware attached one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	start := time.Now()
	e := encPool.Get().(*jsonEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		encPool.Put(e)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	addEncodeStage(w, time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
	encPool.Put(e)
}

// addEncodeStage attributes one encode duration to the request's stage
// breakdown, reaching the Stages through the middleware's statusRecorder.
func addEncodeStage(w http.ResponseWriter, d time.Duration) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.stages.Add("encode", d)
	}
}

// writeJSONBytes serves an already rendered JSON body (response-cache
// hits).
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSONCached renders v once, serves it, and retains the bytes in
// cache under key when the response is a 200 — the store half of the
// serving fast lane.
func writeJSONCached(w http.ResponseWriter, status int, v any, cache *RespCache, key string) {
	if status != http.StatusOK || cache == nil {
		writeJSON(w, status, v)
		return
	}
	start := time.Now()
	body, err := encodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	addEncodeStage(w, time.Since(start))
	cache.Put(key, body)
	writeJSONBytes(w, status, body)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}
