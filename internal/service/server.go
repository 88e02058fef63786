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
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"numaio/internal/core"
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
	registry     *telemetry.Registry
	mux          *http.ServeMux
	characterize CharacterizeFunc
	parallelism  int
	pullClient   *http.Client

	// pipe is the request pipeline every route runs behind: request IDs,
	// trace context, stages, request metrics, /debug/trace and the flight
	// recorder.
	pipe *telemetry.Pipeline

	// charLatency times Algorithm 1 runs (seconds); charRetries counts
	// retried characterization attempts, staleServed responses served from
	// an expired model after a failed recomputation, and installs models
	// installed by the fleet replication hooks (push or pull).
	charLatency *telemetry.BucketHistogram
	charRetries telemetry.Counter
	staleServed telemetry.Counter
	installs    telemetry.Counter

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
	pipe := telemetry.NewPipeline(telemetry.PipelineConfig{
		Daemon:             "numaiod",
		Logger:             cfg.Logger,
		FlightRecorderSize: cfg.FlightRecorderSize,
		FlightDump:         cfg.FlightDump,
	})
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
	s := &Server{
		log:          pipe.Log(),
		cache:        NewModelCache(cfg.CacheEntries, ttl),
		predictCache: NewRespCache(cfg.RespCacheEntries, ttl),
		placeCache:   NewRespCache(cfg.RespCacheEntries, ttl),
		pool:         NewPool(workers),
		jobs:         NewJobRegistry(),
		mux:          http.NewServeMux(),
		characterize: ch,
		parallelism:  parallelism,
		pullClient:   pullClient,
		pipe:         pipe,
		// From sub-millisecond simulated runs up to multi-second whole-host
		// characterizations.
		charLatency: telemetry.NewBucketHistogram([]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30}),

		requestTimeout:   cfg.RequestTimeout,
		retry:            resilience.RetryPolicy{MaxRetries: cfg.Retries, Base: backoff},
		breakerThreshold: cfg.BreakerThreshold,
		breakerCooldown:  cooldown,
		clock:            clock,
		breakers:         make(map[string]*resilience.Breaker),
	}
	s.registry = s.newRegistry()
	s.routes()
	return s
}

func (s *Server) routes() {
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.registry.ServeHTTP)
	s.handle("POST /v1/characterize", s.handleCharacterize)
	s.handle("GET /v1/models/{fingerprint}", s.handleModel)
	s.handle("PUT /v1/models/{fingerprint}", s.handleModelInstall)
	s.handle("POST /v1/models/pull", s.handleModelPull)
	s.handle("GET /v1/jobs/{id}", s.handleJob)
	s.handleCached("POST /v1/predict", s.predictCache, s.handlePredict)
	s.handle("POST /v1/predict/batch", s.handlePredictBatch)
	s.handleCached("POST /v1/place", s.placeCache, s.handlePlace)
	s.handle("POST /v1/whatif", s.handleWhatif)
	s.pipe.DebugRoutes(s.mux)
}

// handle registers h behind the request pipeline, under the request
// deadline.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.pipe.Handle(s.mux, pattern, func(w http.ResponseWriter, r *http.Request) {
		r, cancel := s.withDeadline(r)
		defer cancel()
		h(w, r)
	})
}

// handleCached registers a route whose 200 responses cache. Its wrapper
// reads the body once, at most telemetry.MaxBodyBytes, and answers a
// request spelled exactly like one an earlier canonical hit served straight
// from cache: before the decode, the canonical key and the request
// deadline, with the read and the lookup as its only stage, "cache". Any
// other body goes on to h, under the deadline, which decodes the same
// bytes; its read and probe are then the first lap of its "decode" stage,
// and h continues that stage from the lap's end, which it is passed.
func (s *Server) handleCached(pattern string, cache *RespCache, h func(w http.ResponseWriter, r *http.Request, body []byte, start time.Time)) {
	s.pipe.Handle(s.mux, pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rb := telemetry.ReadRequest(w, r)
		if rb == nil {
			return
		}
		defer rb.Release()
		body := rb.Bytes()
		stg := telemetry.StagesFromContext(r.Context())
		if cached, ok := cache.GetExact(body); ok {
			stg.Lap("cache", start)
			telemetry.WriteJSONBytes(w, http.StatusOK, cached)
			return
		}
		start = stg.Lap("decode", start)
		r, cancel := s.withDeadline(r)
		defer cancel()
		h(w, r, body, start)
	})
}

// withDeadline returns r under the configured RequestTimeout, on the
// daemon's clock, and the func that releases it.
func (s *Server) withDeadline(r *http.Request) (*http.Request, context.CancelFunc) {
	if s.requestTimeout <= 0 {
		return r, func() {}
	}
	ctx, cancel := resilience.ContextWithTimeout(r.Context(), s.clock, s.requestTimeout)
	return r.WithContext(ctx), cancel
}

// DumpFlightRecorder writes one flight-recorder dump to w — cmd/numaiod
// wires it to SIGQUIT. It reports an error when the recorder is disabled
// or another dump was written less than a second ago.
func (s *Server) DumpFlightRecorder(w io.Writer) error { return s.pipe.Dump(w, "SIGQUIT") }

// WriteMetrics renders the /metrics payload. Exported so tests can pin the
// exposition format without an HTTP round trip.
func (s *Server) WriteMetrics(w io.Writer) { s.registry.Render(w) }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the model cache (metrics, tests).
func (s *Server) Cache() *ModelCache { return s.cache }

// RequestCount returns the requests served on endpoint, over all statuses
// (tests).
func (s *Server) RequestCount(endpoint string) int64 { return s.pipe.Requests().Count(endpoint) }

// Drain stops admitting async work and waits for in-flight jobs, honouring
// ctx as the deadline. Call after http.Server.Shutdown during graceful
// termination.
func (s *Server) Drain(ctx context.Context) error { return s.pool.Drain(ctx) }

// characterizeCached returns the whole-host model of machine m, whose
// topology fingerprint fp the caller supplies (cli.ResolveMachine returns
// it with the machine), computing it at most once per (fingerprint,
// config) across concurrent callers. cached reports a cache (or
// coalesced) hit; stale reports an expired entry served because
// recomputation failed or its circuit breaker is open (graceful
// degradation: the last good model beats a 500). Its "cache" stage runs
// from start, the end of the caller's last stage, to end.
func (s *Server) characterizeCached(ctx context.Context, start time.Time, m *topology.Machine, fp string, cfg core.Config) (mm *core.MachineModel, cached, stale bool, end time.Time, err error) {
	if cfg.Parallelism == 0 {
		cfg.Parallelism = s.parallelism
	}
	// Record onto the active /debug/trace, if one is running. The tracer
	// shapes no results and configKey never includes it, so traced and
	// untraced runs share cache entries.
	cfg.Tracer = s.pipe.Tracer()
	key := fp + "|" + configKey(cfg)

	br := s.breaker(key)
	if br != nil && !br.Allow() {
		if mm, ok := s.cache.GetStale(key); ok {
			s.staleServed.Inc()
			return mm, true, true, start, nil
		}
		return nil, false, false, start, fmt.Errorf("%w: model %s", ErrCircuitOpen, fp)
	}

	// Stage attribution: queue is the wait for a worker slot, solve the
	// characterization itself (retries included), and cache whatever is
	// left of the lookup — map access plus coalescing waits. A coalesced
	// follower spends its whole wall time here under "cache", which is
	// accurate: it waited on the cache, not on a solver.
	stg := telemetry.StagesFromContext(ctx)
	var busy time.Duration // this lookup's queue and solve time
	mm, cached, err = s.cache.GetOrCompute(key, func() (*core.MachineModel, error) {
		queueStart := time.Now()
		if err := s.pool.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.pool.Release()
		solveStart := time.Now()
		stg.Add("queue", solveStart.Sub(queueStart))
		var mm *core.MachineModel
		rerr := resilience.Retry(ctx, s.clock, s.retry, func(attempt int) error {
			if attempt > 0 {
				s.charRetries.Inc()
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
		solved := time.Since(solveStart)
		stg.Add("solve", solved)
		busy = solveStart.Sub(queueStart) + solved
		if rerr != nil {
			return nil, rerr
		}
		s.charLatency.Observe(solved.Seconds())
		mm.Fingerprint = fp
		return mm, nil
	})
	end = time.Now()
	if d := end.Sub(start) - busy; d > 0 {
		stg.Add("cache", d)
	}
	// Only the caller that actually computed (or failed to) moves the
	// breaker; cache hits and coalesced followers say nothing about the
	// machine's health.
	if !cached {
		s.recordOutcome(key, err)
	}
	if err != nil {
		if mm, ok := s.cache.GetStale(key); ok {
			s.log.Warn("serving stale model after failed recomputation",
				"fingerprint", fp, "error", err)
			s.staleServed.Inc()
			return mm, true, true, end, nil
		}
		return nil, false, false, end, err
	}
	return mm, cached, false, end, nil
}

// breaker returns the circuit breaker guarding one cache key, or nil when
// the key has none: breakers are disabled, or the key's last computation
// succeeded. A lookup never creates one, so cache hits and healthy keys
// cost the map nothing.
func (s *Server) breaker(key string) *resilience.Breaker {
	if s.breakerThreshold <= 0 {
		return nil
	}
	s.brMu.Lock()
	defer s.brMu.Unlock()
	return s.breakers[key]
}

// recordOutcome moves the key's breaker after a computation. A failure
// creates the breaker on first use; a success closes it and drops it. So
// s.breakers holds only keys that are open, half-open or whose last
// computation failed, however many distinct machines the daemon serves.
// Computations of one key are serialized by ModelCache.GetOrCompute.
func (s *Server) recordOutcome(key string, err error) {
	if s.breakerThreshold <= 0 {
		return
	}
	s.brMu.Lock()
	br, ok := s.breakers[key]
	if err == nil {
		delete(s.breakers, key)
		s.brMu.Unlock()
		if ok {
			br.Success()
		}
		return
	}
	if !ok {
		br = resilience.NewBreaker(s.breakerThreshold, s.breakerCooldown, s.clock)
		br.SetTransitionHook(func(from, to resilience.BreakerState) {
			s.pipe.Tracer().Instant("breaker-"+to.String(), "resilience",
				telemetry.String("from", from.String()),
				telemetry.String("key", key))
			s.pipe.Record(telemetry.FlightEvent{
				Time:   time.Now().UnixNano(),
				Name:   "breaker-" + to.String(),
				Cat:    "resilience",
				Detail: "key=" + key + " from=" + from.String(),
			})
			if to == resilience.BreakerOpen {
				s.pipe.DumpOnFailure("breaker open: " + key)
			}
		})
		s.breakers[key] = br
	}
	s.brMu.Unlock()
	br.Failure()
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
// — the shared suffix of model- and response-cache keys. Parallelism,
// Tracer and Base are deliberately absent: none of them changes a model's
// bytes, so a what-if mutant built from its base model shares the cache
// entry of a plain characterization of the same machine.
func configKey(cfg core.Config) string {
	return fmt.Sprintf("t%d r%d b%d g%g s%g",
		cfg.Threads, cfg.Repeats, int64(cfg.BytesPerThread), cfg.GapThreshold, cfg.Sigma)
}

// writeJSONCached renders v once, serves it as a 200, and retains the
// bytes in cache under key: the store half of the serving fast lane. Its
// "encode" stage starts at start, the end of the handler's last stage.
func writeJSONCached(w http.ResponseWriter, start time.Time, v any, cache *RespCache, key string) {
	if cache == nil {
		telemetry.WriteJSON(w, http.StatusOK, v)
		return
	}
	body, err := telemetry.EncodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	stg := telemetry.StagesFromWriter(w)
	start = stg.Lap("encode", start)
	cache.Put(key, body)
	stg.Lap("cache", start)
	telemetry.WriteJSONBytes(w, http.StatusOK, body)
}
