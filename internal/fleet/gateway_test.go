package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"numaio/internal/cli"
	"numaio/internal/service"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

// predictBody is a cheap predict request (one repeat, no noise) the unit
// tests route through the gateway.
const predictBody = `{"machine": "intel-4s4n", "config": {"repeats": 1, "sigma": -1},
                      "target": 0, "mode": "write", "mix": {"0": 0.5, "2": 0.5}}`

// testFleet boots n real in-process numaiod replicas named r0..r(n-1) and
// a gateway over them. ring is built from the same member set as the
// gateway's, so it names the same owners.
type testFleet struct {
	gw       *Gateway
	ring     *Ring
	services map[string]*service.Server
	servers  map[string]*httptest.Server
	hits     map[string]*hitCounter
}

// hitCounter counts the requests that reach one replica, per URL path.
type hitCounter struct {
	mu sync.Mutex
	n  map[string]int64
}

func (c *hitCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		c.n[r.URL.Path]++
		c.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func (c *hitCounter) count(path string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[path]
}

func newTestFleet(t *testing.T, n int, mutate func(*Config)) *testFleet {
	t.Helper()
	tf := &testFleet{
		services: make(map[string]*service.Server, n),
		servers:  make(map[string]*httptest.Server, n),
		hits:     make(map[string]*hitCounter, n),
	}
	cfg := &Config{VNodes: 32}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		svc := service.New(service.Config{Workers: 2})
		hits := &hitCounter{n: make(map[string]int64)}
		ts := httptest.NewServer(hits.wrap(svc.Handler()))
		t.Cleanup(ts.Close)
		tf.services[name] = svc
		tf.servers[name] = ts
		tf.hits[name] = hits
		cfg.Replicas = append(cfg.Replicas, Replica{Name: name, URL: ts.URL})
	}
	if mutate != nil {
		mutate(cfg)
	}
	gw, err := NewGateway(GatewayConfig{Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}
	tf.gw = gw
	names := make([]string, len(cfg.Replicas))
	for i, r := range cfg.Replicas {
		names[i] = r.Name
	}
	if tf.ring, err = NewRing(names, cfg.VNodes); err != nil {
		t.Fatal(err)
	}
	return tf
}

// owner names the replica owning fingerprint fp.
func (tf *testFleet) owner(fp string) string { return tf.ring.Owners(fp, 1)[0] }

// do sends one request through the gateway handler.
func (tf *testFleet) do(t *testing.T, method, path, body string, header http.Header) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	rec := httptest.NewRecorder()
	tf.gw.Handler().ServeHTTP(rec, req)
	return rec
}

// fingerprintOf resolves the shard key the gateway derives for a named
// machine profile.
func fingerprintOf(t *testing.T, machine string) string {
	t.Helper()
	m, err := cli.Machine(machine)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := topology.Fingerprint(m)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestGatewayRoutesToOwner: a predict lands on exactly the replica owning
// the machine's fingerprint, and counts as routed, not proxied.
func TestGatewayRoutesToOwner(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	owner := tf.owner(fingerprintOf(t, "intel-4s4n"))

	rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", rec.Code, rec.Body)
	}
	for name, hits := range tf.hits {
		want := int64(0)
		if name == owner {
			want = 1
		}
		if got := hits.count("/v1/predict"); got != want {
			t.Errorf("replica %s saw %d predicts, want %d (owner %s)", name, got, want, owner)
		}
	}
	if tf.gw.routed.Value() != 1 || tf.gw.proxied.Value() != 0 {
		t.Errorf("routed/proxied = %d/%d, want 1/0", tf.gw.routed.Value(), tf.gw.proxied.Value())
	}
}

// TestGatewayFailoverProxies: with the owner dead, the request lands on a
// ring successor — degraded but serving — and counts as proxied.
func TestGatewayFailoverProxies(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	owner := tf.owner(fingerprintOf(t, "intel-4s4n"))
	tf.servers[owner].Close()

	rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict with dead owner = %d: %s", rec.Code, rec.Body)
	}
	if tf.gw.proxied.Value() != 1 {
		t.Errorf("proxied = %d, want 1", tf.gw.proxied.Value())
	}
	if tf.gw.fwdErrors.Value() == 0 {
		t.Error("no forward error recorded for the dead owner")
	}
	// The successor, not some arbitrary replica, absorbed the key.
	successor := tf.ring.Owners(fingerprintOf(t, "intel-4s4n"), 2)[1]
	if got := tf.hits[successor].count("/v1/predict"); got != 1 {
		t.Errorf("ring successor %s saw %d predicts, want 1", successor, got)
	}
}

// TestGatewayAllReplicasDown: every replica dead is a 502, not a hang or
// a panic.
func TestGatewayAllReplicasDown(t *testing.T) {
	tf := newTestFleet(t, 2, nil)
	for _, ts := range tf.servers {
		ts.Close()
	}
	rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody, nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("predict with all replicas dead = %d, want 502", rec.Code)
	}
}

// TestGatewayRequestID: an incoming X-Request-Id reaches the replica and
// the response; absent one, the gateway assigns an ID of its own.
func TestGatewayRequestID(t *testing.T) {
	var seen []string
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, r.Header.Get(RequestIDHeader))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok": true}`)
	}))
	defer fake.Close()
	cfg := &Config{Replicas: []Replica{{Name: "r0", URL: fake.URL}}, VNodes: 8}
	gw, err := NewGateway(GatewayConfig{Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody))
	req.Header.Set(RequestIDHeader, "trace-me-42")
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, req)
	if len(seen) != 1 || seen[0] != "trace-me-42" {
		t.Errorf("replica saw request IDs %v, want [trace-me-42]", seen)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "trace-me-42" {
		t.Errorf("response request ID = %q", got)
	}

	seen = nil
	rec = httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(predictBody)))
	if len(seen) != 1 || !strings.HasPrefix(seen[0], "gw-") {
		t.Errorf("generated request ID %v, want gw- prefix", seen)
	}
	if rec.Header().Get(RequestIDHeader) != seen[0] {
		t.Errorf("response ID %q != forwarded ID %q", rec.Header().Get(RequestIDHeader), seen[0])
	}
}

// TestGatewayHotReplication: once a fingerprint crosses the hot threshold,
// its model is pulled onto the next ring owner, so a fingerprint-addressed
// read survives the owner dying.
func TestGatewayHotReplication(t *testing.T) {
	tf := newTestFleet(t, 3, func(cfg *Config) {
		cfg.Replication = 2
		cfg.HotThreshold = 2
	})
	fp := fingerprintOf(t, "intel-4s4n")
	owner := tf.owner(fp)
	peer := tf.ring.Owners(fp, 2)[1]

	// First request: below threshold, no replication yet.
	if rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody, nil); rec.Code != http.StatusOK {
		t.Fatalf("predict 1 = %d: %s", rec.Code, rec.Body)
	}
	if _, ok := tf.services[peer].Cache().FindByFingerprint(fp); ok {
		t.Fatal("model replicated before the hot threshold")
	}
	// Second request crosses the threshold; replication is synchronous.
	if rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody, nil); rec.Code != http.StatusOK {
		t.Fatalf("predict 2 = %d: %s", rec.Code, rec.Body)
	}
	if _, ok := tf.services[peer].Cache().FindByFingerprint(fp); !ok {
		t.Fatalf("peer %s (owner %s) did not receive the hot model", peer, owner)
	}
	if tf.gw.pulls.Value() != 1 {
		t.Errorf("replication pulls = %d, want 1", tf.gw.pulls.Value())
	}

	// Kill the owner: a fingerprint-addressed predict now proxies to the
	// peer and hits its replicated model — the read-availability payoff.
	tf.servers[owner].Close()
	byFP := fmt.Sprintf(`{"fingerprint": %q, "target": 0, "mode": "write", "mix": {"0": 0.5, "2": 0.5}}`, fp)
	rec := tf.do(t, http.MethodPost, "/v1/predict", byFP, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("fingerprint predict after owner death = %d: %s", rec.Code, rec.Body)
	}
}

// fakePlaceReplica builds a replica stub answering /v1/place with a fixed
// estimate and /healthz OK.
func fakePlaceReplica(t *testing.T, node int, bps float64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"fingerprint": "fp-fake", "results": [
			{"policy": "class-balanced", "placement": [%d], "estimate_bps": %g}]}`, node, bps)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFleetPlaceBestAndTieBreak: the fan-out picks the host with the
// highest predicted bandwidth; exact ties break to the lexicographically
// smallest host name so equal hosts place deterministically.
func TestFleetPlaceBestAndTieBreak(t *testing.T) {
	cases := []struct {
		name     string
		bps      map[string]float64
		wantHost string
	}{
		{"clear winner", map[string]float64{"ra": 100, "rb": 300, "rc": 200}, "rb"},
		{"two-way tie", map[string]float64{"ra": 300, "rb": 300, "rc": 200}, "ra"},
		{"all equal", map[string]float64{"ra": 250, "rb": 250, "rc": 250}, "ra"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := &Config{VNodes: 8}
			for _, name := range []string{"rc", "rb", "ra"} { // shuffled config order
				ts := fakePlaceReplica(t, 3, tc.bps[name])
				cfg.Replicas = append(cfg.Replicas, Replica{Name: name, URL: ts.URL})
			}
			gw, err := NewGateway(GatewayConfig{Fleet: cfg})
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/fleet/place",
				strings.NewReader(`{"machine": "intel-4s4n", "target": 0}`))
			rec := httptest.NewRecorder()
			gw.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("fleet place = %d: %s", rec.Code, rec.Body)
			}
			var resp fleetPlaceResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Host != tc.wantHost {
				t.Errorf("best host = %s, want %s (per-host %+v)", resp.Host, tc.wantHost, resp.PerHost)
			}
			if resp.Node != 3 || resp.Degraded || resp.Responses != 3 {
				t.Errorf("node/degraded/responses = %d/%t/%d", resp.Node, resp.Degraded, resp.Responses)
			}
			if resp.PredictedBPS != tc.bps[tc.wantHost] {
				t.Errorf("predicted = %g, want %g", resp.PredictedBPS, tc.bps[tc.wantHost])
			}
		})
	}
}

// TestFleetPlaceDegraded: a dead replica degrades the fan-out but the
// placement still stands over the survivors.
func TestFleetPlaceDegraded(t *testing.T) {
	cfg := &Config{VNodes: 8}
	live := fakePlaceReplica(t, 5, 100)
	dead := httptest.NewServer(http.HandlerFunc(nil))
	dead.Close()
	cfg.Replicas = []Replica{
		{Name: "live", URL: live.URL},
		{Name: "dead", URL: dead.URL},
	}
	gw, err := NewGateway(GatewayConfig{Fleet: cfg})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/fleet/place",
		strings.NewReader(`{"machine": "intel-4s4n", "target": 0}`))
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded fleet place = %d: %s", rec.Code, rec.Body)
	}
	var resp fleetPlaceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Host != "live" || resp.Node != 5 || resp.Responses != 1 {
		t.Errorf("degraded place = %+v", resp)
	}
}

// TestShardKey: an explicit fingerprint wins over the machine; malformed
// bodies fail before any forward.
func TestShardKey(t *testing.T) {
	key, err := shardKey([]byte(`{"fingerprint": "fp-explicit", "machine": "intel-4s4n"}`))
	if err != nil || key != "fp-explicit" {
		t.Errorf("shardKey = %q, %v", key, err)
	}
	key, err = shardKey([]byte(`{"machine": "intel-4s4n", "target": 3}`))
	if err != nil || key != fingerprintOf(t, "intel-4s4n") {
		t.Errorf("machine shardKey = %q, %v", key, err)
	}
	if _, err := shardKey([]byte(`{"machine": "no-such-profile"}`)); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := shardKey([]byte(`{broken`)); err == nil {
		t.Error("malformed body accepted")
	}
}

// TestShardKeyMatchesReplicaFingerprint: for the fleet's profiles and an
// inline machine, the key the gateway shards on is the fingerprint the
// replica that serves the request reports, so both hops agree on identity.
func TestShardKeyMatchesReplicaFingerprint(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	inline := topology.Intel4S4N()
	if err := inline.DegradeLinkBetween("node0", "node3", 0.5); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := inline.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	machines := []string{`"dl585g7"`, `"magny-a"`, `"intel-4s4n"`, `"amd-4s8n"`, buf.String()}
	for _, machine := range machines {
		body := `{"machine": ` + machine + `, "config": {"repeats": 1, "sigma": -1}}`
		key, err := shardKey([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		rec := tf.do(t, http.MethodPost, "/v1/characterize", body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("characterize %.40s = %d: %s", machine, rec.Code, rec.Body)
		}
		var resp struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Fingerprint != key {
			t.Errorf("machine %.40s: shard key %s, replica fingerprint %s", machine, key, resp.Fingerprint)
		}
	}
	if got := tf.gw.routed.Value(); got != int64(len(machines)) {
		t.Errorf("routed = %d, want %d (every request to its key's owner)", got, len(machines))
	}
}

// TestGatewayBodyTooLarge: a routed or fan-out body past
// telemetry.MaxBodyBytes is answered 413 before it is routed, so no
// replica sees it and numaiogw_routed_total does not move; a body of
// exactly the bound is routed, and the replica's own bound accepts it.
func TestGatewayBodyTooLarge(t *testing.T) {
	tf := newTestFleet(t, 3, nil)
	const place = `{"machine": "intel-4s4n", "target": 0}`
	const batch = `{"machine": "intel-4s4n", "items": [{"target": 0, "mode": "write", "mix": {"0": 1}}]}`
	for path, body := range map[string]string{"/v1/predict": predictBody, "/v1/predict/batch": batch, "/v1/fleet/place": place} {
		huge := body + strings.Repeat(" ", telemetry.MaxBodyBytes+1-len(body))
		rec := tf.do(t, http.MethodPost, path, huge, nil)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413 (%.200s)", path, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "exceeds") {
			t.Errorf("%s: error body %.200s", path, rec.Body)
		}
	}
	text := tf.do(t, http.MethodGet, "/metrics", "", nil).Body.String()
	for _, want := range []string{
		"numaiogw_routed_total 0",
		"numaiogw_proxied_total 0",
		"numaiogw_fleet_place_total 0",
		`numaiogw_requests_total{endpoint="/v1/predict",status="413"} 1`,
		`numaiogw_requests_total{endpoint="/v1/predict/batch",status="413"} 1`,
		`numaiogw_requests_total{endpoint="/v1/fleet/place",status="413"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	for name, hits := range tf.hits {
		if n := hits.count("/v1/predict") + hits.count("/v1/predict/batch") + hits.count("/v1/place"); n != 0 {
			t.Errorf("replica %s saw %d requests for oversized bodies", name, n)
		}
	}

	pad := strings.Repeat(" ", telemetry.MaxBodyBytes-len(predictBody))
	if rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody+pad, nil); rec.Code != http.StatusOK {
		t.Fatalf("1 MiB predict = %d: %.200s", rec.Code, rec.Body)
	}
	if got := tf.gw.routed.Value(); got != 1 {
		t.Errorf("routed = %d after a body of exactly the bound, want 1", got)
	}
}

// TestGatewayMetricsAndStatus: the metric families and the status endpoint
// render the ring and membership state.
func TestGatewayMetricsAndStatus(t *testing.T) {
	tf := newTestFleet(t, 3, func(cfg *Config) { cfg.Replication = 2 })
	if rec := tf.do(t, http.MethodPost, "/v1/predict", predictBody, nil); rec.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", rec.Code, rec.Body)
	}
	rec := tf.do(t, http.MethodGet, "/metrics", "", nil)
	text := rec.Body.String()
	for _, want := range []string{
		"numaiogw_replicas 3",
		"numaiogw_ring_points 96",
		"numaiogw_replicas_healthy 3",
		"numaiogw_breaker_open 0",
		`numaiogw_replica_healthy{replica="r0"} 1`,
		"numaiogw_routed_total 1",
		"numaiogw_proxied_total 0",
		`numaiogw_requests_total{endpoint="/v1/predict",status="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	rec = tf.do(t, http.MethodGet, "/v1/fleet/status", "", nil)
	var st fleetStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.RingMembers != 3 || st.Replication != 2 || len(st.Replicas) != 3 {
		t.Errorf("status = %+v", st)
	}
	for _, rep := range st.Replicas {
		if !rep.Available || rep.Breaker != "closed" {
			t.Errorf("replica %s: available=%t breaker=%s", rep.Name, rep.Available, rep.Breaker)
		}
	}
}
