package fleet

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"numaio/internal/cli"
	"numaio/internal/resilience"
	"numaio/internal/telemetry"
	"numaio/internal/units"
)

// RequestIDHeader carries the request ID from the gateway to the replica
// (and back to the client), so one logical request is traceable across
// hops in both sides' structured logs.
const RequestIDHeader = "X-Request-Id"

// forwardedByHeader marks a request as arriving through the gateway.
const forwardedByHeader = "X-Numaio-Gateway"

// GatewayConfig tunes the gateway.
type GatewayConfig struct {
	// Fleet is the validated membership/ring/replication config.
	Fleet *Config
	// Logger receives structured forward logs; nil discards them.
	Logger *slog.Logger
	// Client performs replica requests; nil means a 30s-timeout client.
	Client *http.Client
	// Clock drives breaker cooldowns and the health loop; nil means the
	// system clock.
	Clock resilience.Clock
	// BreakerThreshold consecutive probe/forward failures pull a replica
	// out of rotation; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is the open period before a replica is retried;
	// 0 means 10s.
	BreakerCooldown time.Duration
	// HealthInterval is the active health-check period for Run; 0 means 2s.
	HealthInterval time.Duration

	// FlightRecorderSize bounds the always-on flight recorder ring (recent
	// forwards and failovers, dumped via /debug/flightrecorder and on
	// failures); 0 means 4096 events, negative disables the recorder.
	FlightRecorderSize int
	// FlightDump, when non-nil, receives an automatic flight-recorder dump
	// on gateway 5xx responses, rate-limited to one dump per second.
	// cmd/numaiogw points it at stderr and also dumps on SIGQUIT via
	// DumpFlightRecorder.
	FlightDump io.Writer
}

// Gateway terminates the numaiod v1 API in front of a fleet of replicas:
// it routes by fingerprint ownership on the ring, proxies to successors
// when the owner is unavailable, replicates hot models, and serves the
// fleet-wide placement endpoint.
type Gateway struct {
	ring        *Ring
	members     *Membership
	mux         *http.ServeMux
	log         *slog.Logger
	client      *http.Client
	clock       resilience.Clock
	healthEvery time.Duration
	replication int
	hotAfter    int

	// ridPrefix + ridSeq generate request IDs for requests arriving
	// without one.
	ridPrefix string
	ridSeq    atomic.Uint64

	// Metrics. requests counts by (endpoint, status) like numaiod's;
	// forwards counts per replica; routed/proxied split forwards by
	// whether they landed on the ring owner.
	reqMu       sync.RWMutex
	requests    map[string]*telemetry.IntCounterVec
	forwards    map[string]*telemetry.Counter
	routed      telemetry.Counter
	proxied     telemetry.Counter
	fwdErrors   telemetry.Counter
	fleetPlaces telemetry.Counter
	pulls       telemetry.Counter
	pullErrors  telemetry.Counter
	reqLat      *telemetry.BucketHistogram
	registry    *telemetry.Registry

	// traces owns the /debug/trace lifecycle, mirroring numaiod's, so a
	// fleet-wide recording can include the gateway's own spans.
	traces telemetry.TraceControl

	// flight is the always-on flight recorder (nil when disabled);
	// flightDump receives automatic dumps on gateway failures, rate-limited
	// via lastFlightDump.
	flight         *telemetry.FlightRecorder
	flightDump     io.Writer
	lastFlightDump atomic.Int64

	// Hot-model tracking: routed requests per fingerprint, and the set
	// already replicated so each fingerprint replicates once.
	hotMu      sync.Mutex
	hotCounts  map[string]int
	replicated map[string]bool
}

// NewGateway builds a gateway from the config.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.Fleet == nil || len(cfg.Fleet.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: gateway needs a config with replicas")
	}
	names := make([]string, len(cfg.Fleet.Replicas))
	for i, rep := range cfg.Fleet.Replicas {
		names[i] = rep.Name
	}
	ring, err := NewRing(names, cfg.Fleet.VNodes)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = resilience.SystemClock{}
	}
	hot := cfg.Fleet.HotThreshold
	if hot == 0 {
		hot = 8
	}
	var pre [4]byte
	if _, err := rand.Read(pre[:]); err != nil {
		return nil, err
	}
	var flight *telemetry.FlightRecorder
	if cfg.FlightRecorderSize >= 0 {
		size := cfg.FlightRecorderSize
		if size == 0 {
			size = 4096
		}
		flight = telemetry.NewFlightRecorder(size)
	}
	g := &Gateway{
		ring:        ring,
		members:     NewMembership(cfg.Fleet.Replicas, cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock, client),
		mux:         http.NewServeMux(),
		log:         logger,
		client:      client,
		clock:       clock,
		healthEvery: cfg.HealthInterval,
		replication: cfg.Fleet.Replication,
		hotAfter:    hot,
		ridPrefix:   "gw-" + hex.EncodeToString(pre[:]) + "-",
		requests:    make(map[string]*telemetry.IntCounterVec),
		forwards:    make(map[string]*telemetry.Counter, len(names)),
		reqLat:      telemetry.NewBucketHistogram(gatewayLatencyBuckets),
		flight:      flight,
		flightDump:  cfg.FlightDump,
		hotCounts:   make(map[string]int),
		replicated:  make(map[string]bool),
	}
	for _, name := range names {
		g.forwards[name] = new(telemetry.Counter)
	}
	// A breaker opening is exactly the moment the recent-history ring is
	// for: leave a resilience breadcrumb and trigger the automatic dump.
	g.members.OnBreakerOpen = func(name string) {
		g.flight.Record(telemetry.FlightEvent{
			Time:   time.Now().UnixNano(),
			Name:   "breaker_open",
			Cat:    "resilience",
			Detail: "replica=" + name,
		})
		g.log.Warn("breaker open", "replica", name)
		g.dumpFlight("breaker open on " + name)
	}
	g.registry = g.newRegistry()
	g.routes()
	return g, nil
}

// Run starts the active health-check loop until ctx is done. The first
// probe round runs immediately so a dead replica is noticed at boot, not
// one interval later.
func (g *Gateway) Run(ctx context.Context) {
	g.members.CheckNow(ctx)
	g.members.Run(ctx, g.clock, g.healthEvery)
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Membership exposes the tracker (tests, status).
func (g *Gateway) Membership() *Membership { return g.members }

// Ring exposes the ring (tests, status).
func (g *Gateway) Ring() *Ring { return g.ring }

func (g *Gateway) routes() {
	g.handle("GET /healthz", "/healthz", g.handleHealthz)
	g.handle("GET /metrics", "/metrics", g.handleMetrics)
	g.handle("GET /v1/fleet/status", "/v1/fleet/status", g.handleFleetStatus)
	g.handle("POST /v1/fleet/place", "/v1/fleet/place", g.handleFleetPlace)
	g.handle("GET /v1/models/{fingerprint}", "/v1/models", g.handleModelGet)
	for _, ep := range []string{
		"/v1/characterize", "/v1/predict", "/v1/predict/batch", "/v1/place", "/v1/whatif",
	} {
		ep := ep
		g.handle("POST "+ep, ep, func(w http.ResponseWriter, r *http.Request) {
			g.shardProxy(w, r, ep, "")
		})
	}
	g.handle("POST /debug/trace/start", "/debug/trace/start", g.handleTraceStart)
	g.handle("POST /debug/trace/stop", "/debug/trace/stop", g.handleTraceStop)
	g.handle("GET /debug/trace", "/debug/trace", g.handleTraceDownload)
	g.handle("GET /debug/flightrecorder", "/debug/flightrecorder", g.handleFlightRecorder)
}

// gatewayLatencyBuckets cover a proxied hop: forward latency dominates, so
// the range matches numaiod's request buckets.
var gatewayLatencyBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 5}

// handle registers a pattern under the logging/metrics middleware, like
// numaiod's. Every response carries the request ID (incoming or freshly
// assigned) so clients can correlate, plus the trace context the gateway
// minted (or derived as a child of the caller's) — the same context it
// forwards to replicas, so one trace ID spans the whole proxied chain. v1
// endpoints additionally report the gateway's own stage breakdown (route,
// forward, failover) via Server-Timing alongside the replica's, feed the
// latency histogram with request-ID exemplars, and leave a flight-recorder
// event.
func (g *Gateway) handle(pattern, endpoint string, h http.HandlerFunc) {
	isV1 := strings.HasPrefix(endpoint, "/v1/")
	g.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = g.ridPrefix + strconv.FormatUint(g.ridSeq.Add(1), 10)
			r.Header.Set(RequestIDHeader, rid)
		}
		w.Header().Set(RequestIDHeader, rid)
		var tc telemetry.TraceContext
		if in, ok := telemetry.ParseTraceContext(r.Header.Get(telemetry.TraceCtxHeader)); ok {
			tc = in.Child()
		} else {
			tc = telemetry.NewTraceContext()
		}
		w.Header().Set(telemetry.TraceCtxHeader, tc.String())
		r = r.WithContext(telemetry.ContextWithTrace(r.Context(), tc))
		rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if isV1 {
			rec.stages = telemetry.NewStages()
			r = r.WithContext(telemetry.ContextWithStages(r.Context(), rec.stages))
		}
		var span *telemetry.Span
		if tr := g.traces.Active(); tr != nil {
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
		g.observeRequest(endpoint, rec.status)
		if isV1 {
			g.reqLat.ObserveExemplar(elapsed.Seconds(), rid)
			g.flight.Record(telemetry.FlightEvent{
				Time:    start.UnixNano(),
				Dur:     elapsed,
				Status:  rec.status,
				Name:    endpoint,
				Cat:     "http",
				RID:     rid,
				TraceID: tc.TraceID,
			})
			if rec.status >= http.StatusInternalServerError {
				g.dumpFlight(fmt.Sprintf("status %d on %s", rec.status, endpoint))
			}
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration", elapsed,
			"request_id", rid,
			"remote", r.RemoteAddr,
			"trace_id", tc.TraceID,
		}
		attrs = rec.stages.AppendLogAttrs(attrs)
		g.log.Info("request", attrs...)
	})
}

// statusWriter captures the response status and injects the gateway's own
// stage breakdown as an additional Server-Timing value at WriteHeader time
// — replica-reported stages pass through as their own header line, so the
// client sees both hops' attributions.
type statusWriter struct {
	http.ResponseWriter
	status int
	stages *telemetry.Stages
}

func (w *statusWriter) WriteHeader(code int) {
	if st := w.stages.Header(); st != "" {
		w.ResponseWriter.Header().Add("Server-Timing", st)
	}
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// dumpFlight writes one flight-recorder dump to the configured FlightDump
// writer, rate-limited to one per second.
func (g *Gateway) dumpFlight(reason string) {
	if g.flightDump == nil || g.flight == nil {
		return
	}
	now := time.Now().UnixNano()
	last := g.lastFlightDump.Load()
	if now-last < int64(time.Second) || !g.lastFlightDump.CompareAndSwap(last, now) {
		return
	}
	fmt.Fprintf(g.flightDump, "numaiogw flight recorder dump (%s):\n", reason)
	_ = g.flight.WriteJSON(g.flightDump)
	fmt.Fprintln(g.flightDump)
}

// DumpFlightRecorder writes the flight recorder's JSON snapshot to w —
// cmd/numaiogw wires it to SIGQUIT. It reports an error when the recorder
// is disabled.
func (g *Gateway) DumpFlightRecorder(w io.Writer) error {
	if g.flight == nil {
		return fmt.Errorf("fleet: flight recorder disabled")
	}
	return g.flight.WriteJSON(w)
}

// WriteMetrics renders the gateway's /metrics payload. Exported so tests
// can pin the exposition format without an HTTP round trip.
func (g *Gateway) WriteMetrics(w io.Writer) { g.registry.Render(w) }

func (g *Gateway) observeRequest(endpoint string, status int) {
	g.reqMu.RLock()
	vec, ok := g.requests[endpoint]
	g.reqMu.RUnlock()
	if !ok {
		g.reqMu.Lock()
		if vec, ok = g.requests[endpoint]; !ok {
			vec = telemetry.NewIntCounterVec()
			g.requests[endpoint] = vec
		}
		g.reqMu.Unlock()
	}
	vec.With(status).Inc()
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	avail, _ := g.members.Counts()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if avail == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: 0/%d replicas available\n", g.ring.Len())
		return
	}
	fmt.Fprintf(w, "ok %d/%d replicas available\n", avail, g.ring.Len())
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.WriteMetrics(w)
}

// newRegistry wires the gateway gauge/counter families. Sample order is
// registration order, so the smoke greps are stable.
func (g *Gateway) newRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	r.IntGaugeFunc("numaiogw_replicas",
		"Replicas on the consistent-hash ring (static membership).",
		func() int64 { return int64(g.ring.Len()) })
	r.IntGaugeFunc("numaiogw_ring_points",
		"Virtual nodes on the consistent-hash ring.",
		func() int64 { return int64(g.ring.Points()) })
	r.IntGaugeFunc("numaiogw_replicas_healthy",
		"Replicas currently routable (healthy and breaker not open).",
		func() int64 { avail, _ := g.members.Counts(); return int64(avail) })
	r.IntGaugeFunc("numaiogw_breaker_open",
		"Replica circuit breakers currently open.",
		func() int64 { _, open := g.members.Counts(); return int64(open) })
	r.Register(telemetry.Series{
		Name: "numaiogw_replica_healthy", Type: "gauge",
		Help: "Per-replica routability (1 routable, 0 not).",
		Collect: func(w io.Writer) {
			for _, rep := range g.members.Replicas() {
				v := 0
				if g.members.Available(rep.Name) {
					v = 1
				}
				fmt.Fprintf(w, "numaiogw_replica_healthy{replica=%q} %d\n", rep.Name, v)
			}
		}})
	r.Register(telemetry.Series{
		Name: "numaiogw_forwards_total", Type: "counter",
		Help: "Requests forwarded, by replica.",
		Collect: func(w io.Writer) {
			names := g.ring.Members()
			for _, name := range names {
				fmt.Fprintf(w, "numaiogw_forwards_total{replica=%q} %d\n", name, g.forwards[name].Value())
			}
		}})
	r.CounterSeries("numaiogw_routed_total",
		"Forwards that landed on the key's ring owner.", &g.routed)
	r.CounterSeries("numaiogw_proxied_total",
		"Forwards proxied to a non-owner because the owner was unavailable.", &g.proxied)
	r.CounterSeries("numaiogw_forward_errors_total",
		"Forward attempts that failed and fell through to the next replica.", &g.fwdErrors)
	r.CounterSeries("numaiogw_fleet_place_total",
		"Fleet-wide placement requests served.", &g.fleetPlaces)
	r.CounterSeries("numaiogw_replication_pulls_total",
		"Hot-model replication pulls triggered on peers.", &g.pulls)
	r.CounterSeries("numaiogw_replication_pull_errors_total",
		"Hot-model replication pulls that failed.", &g.pullErrors)
	r.IntGaugeFunc("numaiogw_hot_models",
		"Fingerprints replicated to peers for read availability.",
		func() int64 {
			g.hotMu.Lock()
			defer g.hotMu.Unlock()
			return int64(len(g.replicated))
		})
	r.IntGaugeFunc("numaiogw_trace_active",
		"Whether a /debug/trace recording is in progress.",
		func() int64 {
			if g.traces.Tracing() {
				return 1
			}
			return 0
		})
	r.IntGaugeFunc("numaiogw_trace_events",
		"Events recorded by the active (or last stopped) trace.",
		func() int64 { return int64(g.traces.Current().Len()) })
	r.IntGaugeFunc("numaiogw_flight_events",
		"Events currently retained by the always-on flight recorder.",
		func() int64 { return int64(g.flight.Len()) })
	r.Register(telemetry.Series{
		Name: "numaiogw_request_seconds",
		Type: "histogram",
		Help: "v1 request latency through the gateway, with the last request ID per bucket as an exemplar.",
		Collect: func(w io.Writer) {
			counts := g.reqLat.Counts()
			bounds := g.reqLat.Bounds()
			var cum int64
			writeBucket := func(le string, i int) {
				fmt.Fprintf(w, "numaiogw_request_seconds_bucket{le=%q} %d", le, cum)
				if ex := g.reqLat.Exemplar(i); ex != "" {
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
			fmt.Fprintf(w, "numaiogw_request_seconds_sum %g\n", g.reqLat.Sum())
			fmt.Fprintf(w, "numaiogw_request_seconds_count %d\n", g.reqLat.Total())
		},
	})
	r.Register(telemetry.Series{
		Name: "numaiogw_requests_total", Type: "counter",
		Help: "Gateway requests served, by endpoint and status.",
		Collect: func(w io.Writer) {
			g.reqMu.RLock()
			endpoints := make([]string, 0, len(g.requests))
			for e := range g.requests {
				endpoints = append(endpoints, e)
			}
			vecs := make(map[string]*telemetry.IntCounterVec, len(endpoints))
			for _, e := range endpoints {
				vecs[e] = g.requests[e]
			}
			g.reqMu.RUnlock()
			sort.Strings(endpoints)
			for _, e := range endpoints {
				for _, s := range vecs[e].Keys() {
					fmt.Fprintf(w, "numaiogw_requests_total{endpoint=%q,status=\"%d\"} %d\n", e, s, vecs[e].Value(s))
				}
			}
		}})
	return r
}

// shardRequest is the lenient sniff of any v1 request body: just enough to
// derive the shard key. Unknown fields are the forwarded handler's
// business, not the gateway's.
type shardRequest struct {
	Machine     json.RawMessage `json:"machine,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
}

// shardKey resolves the fingerprint a request shards on: an explicit
// fingerprint field wins; otherwise it is the fingerprint
// cli.ResolveMachine returns for the machine (named profile, resolved once
// per process, or inline object; empty meaning the default profile) — the
// same resolution the replicas themselves use, so the gateway and the
// fleet always agree on identity.
func shardKey(body []byte) (string, error) {
	var req shardRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("invalid JSON body: %w", err)
		}
	}
	if req.Fingerprint != "" {
		return req.Fingerprint, nil
	}
	_, fp, err := cli.ResolveMachine(req.Machine)
	return fp, err
}

func (g *Gateway) handleModelGet(w http.ResponseWriter, r *http.Request) {
	g.shardProxy(w, r, "/v1/models", r.PathValue("fingerprint"))
}

// shardProxy is the routed data path: derive the shard key, walk the
// ring's preference order for it, and forward to the first replica that
// answers. The owner gets the request when it is routable; successors (and
// then the rest of the ring) absorb it when not — degraded but serving.
func (g *Gateway) shardProxy(w http.ResponseWriter, r *http.Request, endpoint, key string) {
	stg := telemetry.StagesFromContext(r.Context())
	routeStart := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeGatewayError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if key == "" {
		key, err = shardKey(body)
		if err != nil {
			writeGatewayError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	rid := r.Header.Get(RequestIDHeader)
	order := g.ring.Owners(key, g.ring.Len())
	owner := order[0]
	stg.Add("route", time.Since(routeStart))

	tryOne := func(name string) (*http.Response, error) {
		rep, _ := g.members.Replica(name)
		req, err := http.NewRequestWithContext(r.Context(), r.Method,
			rep.URL+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		req.Header.Set(RequestIDHeader, rid)
		req.Header.Set(forwardedByHeader, "numaiogw")
		// Forward the gateway's span context, so the replica's span becomes
		// a child in the same trace.
		if tc, ok := telemetry.TraceFromContext(r.Context()); ok {
			req.Header.Set(telemetry.TraceCtxHeader, tc.String())
		}
		return g.client.Do(req)
	}

	serve := func(name string, resp *http.Response) {
		defer resp.Body.Close()
		g.forwards[name].Add(1)
		role := "routed"
		if name == owner {
			g.routed.Inc()
		} else {
			role = "proxied"
			g.proxied.Inc()
		}
		g.log.Info("forward",
			"endpoint", endpoint,
			"replica", name,
			"role", role,
			"status", resp.StatusCode,
			"request_id", rid,
			"key", key)
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		// The replica's own stage breakdown passes through as additional
		// Server-Timing values; the statusWriter adds the gateway's on
		// WriteHeader, so the client sees both hops' attributions.
		for _, st := range resp.Header.Values("Server-Timing") {
			w.Header().Add("Server-Timing", st)
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		if resp.StatusCode == http.StatusOK {
			g.noteHot(key, name)
		}
	}

	attempt := func(name string, markFailures bool) bool {
		attemptStart := time.Now()
		resp, err := tryOne(name)
		if err != nil {
			stg.Add("failover", time.Since(attemptStart))
			g.fwdErrors.Inc()
			if markFailures {
				g.members.ReportFailure(name)
			}
			g.recordFailover(endpoint, name, rid, r.Context())
			g.log.Warn("forward failed", "endpoint", endpoint, "replica", name,
				"request_id", rid, "error", err)
			return false
		}
		// 502/503/504 mean the replica itself is shedding or struggling;
		// a successor may still serve. Other statuses (including 4xx and
		// plain 500s) are real answers and pass through.
		switch resp.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			stg.Add("failover", time.Since(attemptStart))
			g.fwdErrors.Inc()
			g.recordFailover(endpoint, name, rid, r.Context())
			return false
		}
		g.members.ReportSuccess(name)
		stg.Add("forward", time.Since(attemptStart))
		serve(name, resp)
		return true
	}

	for _, name := range order {
		if !g.members.Available(name) {
			continue
		}
		if attempt(name, true) {
			return
		}
	}
	// Every routable replica failed (or none was routable): last-ditch
	// sweep over the full preference order, without moving breakers —
	// these replicas are already known-bad.
	for _, name := range order {
		if g.members.Available(name) {
			continue // already tried above
		}
		if attempt(name, false) {
			return
		}
	}
	writeGatewayError(w, http.StatusBadGateway,
		"no replica could serve %s for key %s (%d replicas tried)", endpoint, key, len(order))
}

// noteHot counts one served request for a fingerprint and, on crossing the
// hot threshold, replicates its model from the replica that just served it
// to the next owners on the ring — synchronously, so tests and smokes see
// the copies as soon as the crossing response returns.
func (g *Gateway) noteHot(key, servedBy string) {
	if g.replication <= 1 || g.hotAfter < 0 {
		return
	}
	g.hotMu.Lock()
	g.hotCounts[key]++
	fire := g.hotCounts[key] >= g.hotAfter && !g.replicated[key]
	if fire {
		g.replicated[key] = true
	}
	g.hotMu.Unlock()
	if !fire {
		return
	}
	g.replicate(key, servedBy)
}

// pullRequest is the body of the replica-side replication hook
// (POST /v1/models/pull on numaiod).
type pullRequest struct {
	Fingerprint string `json:"fingerprint"`
	Source      string `json:"source"`
}

// replicate asks up to replication-1 ring successors to pull the model for
// fp from the replica holding it. Failures are logged and counted, never
// surfaced: replication is an availability optimization, not a
// correctness requirement.
func (g *Gateway) replicate(fp, servedBy string) {
	src, ok := g.members.Replica(servedBy)
	if !ok {
		return
	}
	body, err := json.Marshal(pullRequest{Fingerprint: fp, Source: src.URL})
	if err != nil {
		return
	}
	peers := g.ring.Owners(fp, g.replication)
	for _, name := range peers {
		if name == servedBy || !g.members.Available(name) {
			continue
		}
		rep, _ := g.members.Replica(name)
		resp, err := g.client.Post(rep.URL+"/v1/models/pull", "application/json", bytes.NewReader(body))
		if err != nil {
			g.pullErrors.Inc()
			g.log.Warn("replication pull failed", "fingerprint", fp, "peer", name, "error", err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			g.pullErrors.Inc()
			g.log.Warn("replication pull rejected", "fingerprint", fp, "peer", name, "status", resp.StatusCode)
			continue
		}
		g.pulls.Inc()
		g.log.Info("replicated hot model", "fingerprint", fp, "source", servedBy, "peer", name)
	}
}

// fleetStatus is the GET /v1/fleet/status body.
type fleetStatus struct {
	Replicas    []replicaStatus `json:"replicas"`
	RingMembers int             `json:"ring_members"`
	RingPoints  int             `json:"ring_points"`
	Replication int             `json:"replication"`
	HotModels   int             `json:"hot_models"`
}

type replicaStatus struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Available bool   `json:"available"`
	Breaker   string `json:"breaker"`
}

func (g *Gateway) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	st := fleetStatus{
		RingMembers: g.ring.Len(),
		RingPoints:  g.ring.Points(),
		Replication: g.replication,
	}
	g.hotMu.Lock()
	st.HotModels = len(g.replicated)
	g.hotMu.Unlock()
	for _, rep := range g.members.Replicas() {
		st.Replicas = append(st.Replicas, replicaStatus{
			Name:      rep.Name,
			URL:       rep.URL,
			Available: g.members.Available(rep.Name),
			Breaker:   g.members.BreakerState(rep.Name).String(),
		})
	}
	writeGatewayJSON(w, http.StatusOK, st)
}

// fleetPlaceRequest is the POST /v1/fleet/place body: the paper's
// scheduler application at fleet scale — find the (host, node) with the
// best predicted bandwidth for this job.
type fleetPlaceRequest struct {
	Machine json.RawMessage `json:"machine,omitempty"`
	Config  json.RawMessage `json:"config,omitempty"`
	Target  int             `json:"target"`
	Engine  string          `json:"engine,omitempty"`
	Tasks   int             `json:"tasks,omitempty"` // default 1
}

// hostPlacement is one replica's answer in the fan-out.
type hostPlacement struct {
	Host         string  `json:"host"`
	Node         int     `json:"node"`
	Placement    []int   `json:"placement,omitempty"`
	PredictedBPS float64 `json:"predicted_bps,omitempty"`
	Error        string  `json:"error,omitempty"`
}

// fleetPlaceResponse reports the best host and node plus every replica's
// answer. Degraded is true when some configured replica did not answer —
// the placement still stands over the hosts that did.
type fleetPlaceResponse struct {
	Host          string          `json:"host"`
	Node          int             `json:"node"`
	Placement     []int           `json:"placement"`
	PredictedBPS  float64         `json:"predicted_bps"`
	PredictedGbps float64         `json:"predicted_gbps"`
	Fingerprint   string          `json:"fingerprint,omitempty"`
	Replicas      int             `json:"replicas"`
	Responses     int             `json:"responses"`
	Degraded      bool            `json:"degraded"`
	PerHost       []hostPlacement `json:"per_host"`
}

// replicaPlaceResponse is the slice of a replica's /v1/place body the
// gateway reads.
type replicaPlaceResponse struct {
	Fingerprint string `json:"fingerprint"`
	Results     []struct {
		Policy      string  `json:"policy"`
		Placement   []int   `json:"placement"`
		EstimateBPS float64 `json:"estimate_bps"`
	} `json:"results"`
}

func (g *Gateway) handleFleetPlace(w http.ResponseWriter, r *http.Request) {
	var req fleetPlaceRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeGatewayError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	tasks := req.Tasks
	if tasks <= 0 {
		tasks = 1
	}
	engine := req.Engine
	if engine == "" {
		engine = "memcpy"
	}
	placeBody := map[string]any{
		"target":   req.Target,
		"engine":   engine,
		"tasks":    tasks,
		"policies": []string{"class-balanced"},
	}
	if len(req.Machine) > 0 {
		placeBody["machine"] = req.Machine
	}
	if len(req.Config) > 0 {
		placeBody["config"] = req.Config
	}
	body, err := json.Marshal(placeBody)
	if err != nil {
		writeGatewayError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	rid := r.Header.Get(RequestIDHeader)
	g.fleetPlaces.Inc()

	// Fan out to every routable replica concurrently; each answers for the
	// host it models.
	replicas := g.members.Replicas()
	results := make([]hostPlacement, len(replicas))
	fingerprints := make([]string, len(replicas))
	asked := 0
	var wg sync.WaitGroup
	for i, rep := range replicas {
		if !g.members.Available(rep.Name) {
			results[i] = hostPlacement{Host: rep.Name, Error: "replica unavailable"}
			continue
		}
		asked++
		wg.Add(1)
		go func(i int, rep Replica) {
			defer wg.Done()
			results[i], fingerprints[i] = g.placeOnReplica(r.Context(), rep, body, rid)
		}(i, rep)
	}
	wg.Wait()

	resp := fleetPlaceResponse{Replicas: len(replicas), PerHost: results}
	sort.Slice(resp.PerHost, func(i, j int) bool { return resp.PerHost[i].Host < resp.PerHost[j].Host })
	best := -1
	for i := range resp.PerHost {
		hp := &resp.PerHost[i]
		if hp.Error != "" {
			continue
		}
		resp.Responses++
		// Strictly higher predicted bandwidth wins; exact ties break to the
		// lexicographically smallest host name, so equal hosts place
		// deterministically. PerHost is name-sorted, so first-wins is the
		// tie-break.
		if best < 0 || hp.PredictedBPS > resp.PerHost[best].PredictedBPS {
			best = i
		}
	}
	resp.Degraded = resp.Responses < len(replicas)
	if best < 0 {
		writeGatewayError(w, http.StatusBadGateway,
			"no replica answered the fleet placement (%d configured, %d asked)", len(replicas), asked)
		return
	}
	for i := range fingerprints {
		if fingerprints[i] != "" {
			resp.Fingerprint = fingerprints[i]
			break
		}
	}
	resp.Host = resp.PerHost[best].Host
	resp.Node = resp.PerHost[best].Node
	resp.Placement = resp.PerHost[best].Placement
	resp.PredictedBPS = resp.PerHost[best].PredictedBPS
	resp.PredictedGbps = units.Bandwidth(resp.PredictedBPS).Gbps()
	writeGatewayJSON(w, http.StatusOK, resp)
}

// placeOnReplica runs one replica's /v1/place leg of the fan-out.
func (g *Gateway) placeOnReplica(ctx context.Context, rep Replica, body []byte, rid string) (hostPlacement, string) {
	hp := hostPlacement{Host: rep.Name}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.URL+"/v1/place", bytes.NewReader(body))
	if err != nil {
		hp.Error = err.Error()
		return hp, ""
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, rid)
	req.Header.Set(forwardedByHeader, "numaiogw")
	if tc, ok := telemetry.TraceFromContext(ctx); ok {
		req.Header.Set(telemetry.TraceCtxHeader, tc.String())
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.members.ReportFailure(rep.Name)
		hp.Error = err.Error()
		return hp, ""
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		hp.Error = err.Error()
		return hp, ""
	}
	if resp.StatusCode != http.StatusOK {
		hp.Error = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return hp, ""
	}
	g.members.ReportSuccess(rep.Name)
	var pr replicaPlaceResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		hp.Error = err.Error()
		return hp, ""
	}
	if len(pr.Results) == 0 || len(pr.Results[0].Placement) == 0 {
		hp.Error = "replica returned no placement"
		return hp, ""
	}
	hp.Node = pr.Results[0].Placement[0]
	hp.Placement = pr.Results[0].Placement
	hp.PredictedBPS = pr.Results[0].EstimateBPS
	return hp, pr.Fingerprint
}

type gatewayError struct {
	Error string `json:"error"`
}

func writeGatewayError(w http.ResponseWriter, status int, format string, args ...any) {
	writeGatewayJSON(w, status, gatewayError{Error: fmt.Sprintf(format, args...)})
}

func writeGatewayJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
	w.Write([]byte("\n"))
}
