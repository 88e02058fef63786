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
	"sync"
	"time"

	"numaio/internal/cli"
	"numaio/internal/resilience"
	"numaio/internal/telemetry"
	"numaio/internal/units"
)

// RequestIDHeader carries the request ID from the gateway to the replica
// (and back to the client), so one logical request is traceable across
// hops in both sides' structured logs.
const RequestIDHeader = telemetry.RequestIDHeader

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

	// pipe is the request pipeline every route runs behind, the same one
	// numaiod runs: it assigns request IDs to requests arriving without
	// one, and owns the request metrics, /debug/trace and the flight
	// recorder.
	pipe *telemetry.Pipeline

	// Metrics. forwards counts per replica; routed/proxied split forwards
	// by whether they landed on the ring owner.
	forwards    map[string]*telemetry.Counter
	routed      telemetry.Counter
	proxied     telemetry.Counter
	fwdErrors   telemetry.Counter
	fleetPlaces telemetry.Counter
	pulls       telemetry.Counter
	pullErrors  telemetry.Counter
	registry    *telemetry.Registry

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
	pipe := telemetry.NewPipeline(telemetry.PipelineConfig{
		Daemon:             "numaiogw",
		Logger:             cfg.Logger,
		RequestIDPrefix:    "gw-" + hex.EncodeToString(pre[:]) + "-",
		FlightRecorderSize: cfg.FlightRecorderSize,
		FlightDump:         cfg.FlightDump,
	})
	g := &Gateway{
		ring:        ring,
		members:     NewMembership(cfg.Fleet.Replicas, cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock, client),
		mux:         http.NewServeMux(),
		log:         pipe.Log(),
		client:      client,
		clock:       clock,
		healthEvery: cfg.HealthInterval,
		replication: cfg.Fleet.Replication,
		hotAfter:    hot,
		pipe:        pipe,
		forwards:    make(map[string]*telemetry.Counter, len(names)),
		hotCounts:   make(map[string]int),
		replicated:  make(map[string]bool),
	}
	for _, name := range names {
		g.forwards[name] = new(telemetry.Counter)
	}
	// A breaker opening is exactly the moment the recent-history ring is
	// for: leave a resilience breadcrumb and trigger the automatic dump.
	g.members.OnBreakerOpen = func(name string) {
		g.pipe.Record(telemetry.FlightEvent{
			Time:   time.Now().UnixNano(),
			Name:   "breaker_open",
			Cat:    "resilience",
			Detail: "replica=" + name,
		})
		g.log.Warn("breaker open", "replica", name)
		g.pipe.DumpOnFailure("breaker open on " + name)
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
	g.pipe.Handle(g.mux, "GET /healthz", g.handleHealthz)
	g.pipe.Handle(g.mux, "GET /metrics", g.registry.ServeHTTP)
	g.pipe.Handle(g.mux, "GET /v1/fleet/status", g.handleFleetStatus)
	g.pipe.Handle(g.mux, "POST /v1/fleet/place", g.handleFleetPlace)
	g.pipe.Handle(g.mux, "GET /v1/models/{fingerprint}", g.handleModelGet)
	for _, ep := range []string{
		"/v1/characterize", "/v1/predict", "/v1/predict/batch", "/v1/place", "/v1/whatif",
	} {
		ep := ep
		g.pipe.Handle(g.mux, "POST "+ep, func(w http.ResponseWriter, r *http.Request) {
			g.shardProxy(w, r, ep, "")
		})
	}
	g.pipe.DebugRoutes(g.mux)
}

// DumpFlightRecorder writes one flight-recorder dump to w — cmd/numaiogw
// wires it to SIGQUIT. It reports an error when the recorder is disabled
// or another dump was written less than a second ago.
func (g *Gateway) DumpFlightRecorder(w io.Writer) error { return g.pipe.Dump(w, "SIGQUIT") }

// WriteMetrics renders the gateway's /metrics payload. Exported so tests
// can pin the exposition format without an HTTP round trip.
func (g *Gateway) WriteMetrics(w io.Writer) { g.registry.Render(w) }

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
	g.pipe.RegisterSeries(r,
		"v1 request latency through the gateway, with the last request ID per bucket as an exemplar.")
	r.EndpointSeries("numaiogw_requests_total",
		"Gateway requests served, by endpoint and status.", g.pipe.Requests())
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
	rb := telemetry.ReadRequest(w, r)
	if rb == nil {
		return
	}
	// The forwarded body is a copy: the client's transport may still read
	// a request body after Do returns, so it must not be a pooled buffer.
	body := bytes.Clone(rb.Bytes())
	rb.Release()
	if key == "" {
		var err error
		if key, err = shardKey(body); err != nil {
			telemetry.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	rid := r.Header.Get(RequestIDHeader)
	order := g.ring.Owners(key, g.ring.Len())
	owner := order[0]
	stg.Add("route", time.Since(routeStart))

	tryOne := func(name string) (*http.Response, error) {
		rep, _ := g.members.Replica(name)
		req, err := telemetry.NewHop(r.Context(), r.Method, rep.URL+r.URL.Path, body)
		if err != nil {
			return nil, err
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
		// Server-Timing values; the pipeline adds the gateway's on
		// WriteHeader, so the client sees both hops' attributions.
		for _, st := range resp.Header.Values("Server-Timing") {
			w.Header().Add("Server-Timing", st)
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		if resp.StatusCode == http.StatusOK {
			g.noteHot(r.Context(), key, name)
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
	telemetry.WriteError(w, http.StatusBadGateway,
		"no replica could serve %s for key %s (%d replicas tried)", endpoint, key, len(order))
}

// recordFailover leaves a flight-recorder event (and a trace instant, when
// recording) for one failed forward attempt — the breadcrumb trail a
// kill-owner incident leaves behind.
func (g *Gateway) recordFailover(endpoint, replica, rid string, ctx context.Context) {
	var traceID string
	if tc, ok := telemetry.TraceFromContext(ctx); ok {
		traceID = tc.TraceID
	}
	g.pipe.Record(telemetry.FlightEvent{
		Time:    time.Now().UnixNano(),
		Name:    "failover",
		Cat:     "resilience",
		RID:     rid,
		TraceID: traceID,
		Detail:  "endpoint=" + endpoint + " replica=" + replica,
	})
	g.pipe.Tracer().Instant("failover", "resilience",
		telemetry.String("endpoint", endpoint),
		telemetry.String("replica", replica))
}

// noteHot counts one served request for a fingerprint and, on crossing the
// hot threshold, replicates its model from the replica that just served it
// to the next owners on the ring — synchronously, so tests and smokes see
// the copies as soon as the crossing response returns.
func (g *Gateway) noteHot(ctx context.Context, key, servedBy string) {
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
	g.replicate(ctx, key, servedBy)
}

// pullRequest is the body of the replica-side replication hook
// (POST /v1/models/pull on numaiod).
type pullRequest struct {
	Fingerprint string `json:"fingerprint"`
	Source      string `json:"source"`
}

// replicate asks up to replication-1 ring successors to pull the model for
// fp from the replica holding it, as hops of the request in ctx whose
// answer made the model hot, so each pull, and the fetch it makes, joins
// that request's trace. Failures are logged and counted, never surfaced:
// replication is an availability optimization, not a correctness
// requirement, and a client that hangs up does not cancel it.
func (g *Gateway) replicate(ctx context.Context, fp, servedBy string) {
	src, ok := g.members.Replica(servedBy)
	if !ok {
		return
	}
	body, err := json.Marshal(pullRequest{Fingerprint: fp, Source: src.URL})
	if err != nil {
		return
	}
	ctx = context.WithoutCancel(ctx)
	peers := g.ring.Owners(fp, g.replication)
	for _, name := range peers {
		if name == servedBy || !g.members.Available(name) {
			continue
		}
		rep, _ := g.members.Replica(name)
		req, err := telemetry.NewHop(ctx, http.MethodPost, rep.URL+"/v1/models/pull", body)
		var resp *http.Response
		if err == nil {
			resp, err = g.client.Do(req)
		}
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
	telemetry.WriteJSON(w, http.StatusOK, st)
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
	if !telemetry.DecodeRequest(w, r, &req) {
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
		telemetry.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
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
			results[i], fingerprints[i] = g.placeOnReplica(r.Context(), rep, body)
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
		telemetry.WriteError(w, http.StatusBadGateway,
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
	telemetry.WriteJSON(w, http.StatusOK, resp)
}

// placeOnReplica runs one replica's /v1/place leg of the fan-out, a hop
// of the request in ctx. The answer is read through telemetry.ReadBody, so
// one over telemetry.MaxBodyBytes is that host's error.
func (g *Gateway) placeOnReplica(ctx context.Context, rep Replica, body []byte) (hostPlacement, string) {
	hp := hostPlacement{Host: rep.Name}
	req, err := telemetry.NewHop(ctx, http.MethodPost, rep.URL+"/v1/place", body)
	if err != nil {
		hp.Error = err.Error()
		return hp, ""
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.members.ReportFailure(rep.Name)
		hp.Error = err.Error()
		return hp, ""
	}
	raw, err := telemetry.ReadBody(resp.Body)
	resp.Body.Close()
	if err != nil {
		hp.Error = err.Error()
		return hp, ""
	}
	defer raw.Release()
	if resp.StatusCode != http.StatusOK {
		hp.Error = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw.Bytes()))
		return hp, ""
	}
	g.members.ReportSuccess(rep.Name)
	var pr replicaPlaceResponse
	if err := json.Unmarshal(raw.Bytes(), &pr); err != nil {
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
