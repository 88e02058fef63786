package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"numaio/internal/resilience"
	"numaio/internal/telemetry"
)

// Replica is one numaiod instance of the fleet.
type Replica struct {
	// Name is the stable identity hashed onto the ring. Renaming a replica
	// moves its keys; changing only its URL does not.
	Name string `json:"name"`
	// URL is the replica's base URL, e.g. http://127.0.0.1:8081.
	URL string `json:"url"`
}

// Config is the static fleet membership file (JSON): the replica set plus
// the ring and replication tuning. Membership is deliberately static —
// deterministic placement and smoke-testable failover first; gossip is a
// later problem.
type Config struct {
	Replicas []Replica `json:"replicas"`
	// VNodes is the virtual-node count per replica; 0 means DefaultVNodes.
	VNodes int `json:"vnodes,omitempty"`
	// Replication is the total copies of a hot model (owner + peers);
	// 0 or 1 disables peer replication.
	Replication int `json:"replication,omitempty"`
	// HotThreshold is how many routed requests a fingerprint takes before
	// the gateway replicates its model to peers; 0 means 8, negative
	// disables hot-model replication.
	HotThreshold int `json:"hot_threshold,omitempty"`
}

// ParseConfig decodes and validates a fleet config. It decodes as
// strictly as a request body: unknown fields and data after the object
// are errors.
func ParseConfig(r io.Reader) (*Config, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading config: %w", err)
	}
	var cfg Config
	if err := telemetry.Decode(data, &cfg); err != nil {
		return nil, fmt.Errorf("fleet: invalid config: %w", err)
	}
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: config has no replicas")
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for i := range cfg.Replicas {
		rep := &cfg.Replicas[i]
		if rep.Name == "" {
			return nil, fmt.Errorf("fleet: replica %d has no name", i)
		}
		if seen[rep.Name] {
			return nil, fmt.Errorf("fleet: duplicate replica name %q", rep.Name)
		}
		seen[rep.Name] = true
		rep.URL = strings.TrimRight(rep.URL, "/")
		if rep.URL == "" {
			return nil, fmt.Errorf("fleet: replica %q has no url", rep.Name)
		}
	}
	return &cfg, nil
}

// LoadConfig reads a fleet config file.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseConfig(f)
}

// replicaState is one replica's availability: the last active health-probe
// outcome plus a circuit breaker fed by both probes and forward failures,
// so a replica that dies between probes stops receiving traffic after a
// few failed forwards instead of a full health interval.
type replicaState struct {
	replica Replica
	breaker *resilience.Breaker
	mu      sync.Mutex
	healthy bool
}

// Membership tracks which replicas of the static set are currently
// routable. It is optimistic at boot (every replica starts healthy) so a
// cold gateway routes immediately; the first probe round corrects it.
type Membership struct {
	replicas []*replicaState // config order
	byName   map[string]*replicaState
	client   *http.Client

	// OnBreakerOpen, when set, is called with the replica name each time a
	// recorded failure is the one that opens its breaker — the gateway hangs
	// its flight-recorder breadcrumb and automatic dump off this. Set it
	// before the first probe or forward; it may be called from any of them.
	OnBreakerOpen func(name string)
}

// NewMembership builds the tracker. threshold consecutive failures open a
// replica's breaker (0 means 3); cooldown is the open period before a
// probe is readmitted (0 means 10s). A nil client gets a 5s timeout; a nil
// clock means the system clock (tests inject fakes).
func NewMembership(replicas []Replica, threshold int, cooldown time.Duration, clock resilience.Clock, client *http.Client) *Membership {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	m := &Membership{byName: make(map[string]*replicaState, len(replicas)), client: client}
	for _, rep := range replicas {
		st := &replicaState{
			replica: rep,
			breaker: resilience.NewBreaker(threshold, cooldown, clock),
			healthy: true,
		}
		m.replicas = append(m.replicas, st)
		m.byName[rep.Name] = st
	}
	return m
}

// CheckNow probes every replica's /healthz once, synchronously, updating
// health state and breakers. The background loop (Run) calls it each
// interval; tests call it directly.
func (m *Membership) CheckNow(ctx context.Context) {
	for _, st := range m.replicas {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.replica.URL+"/healthz", nil)
		if err != nil {
			m.observe(st, false)
			continue
		}
		resp, err := m.client.Do(req)
		ok := err == nil && resp.StatusCode == http.StatusOK
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		m.observe(st, ok)
	}
}

// Run probes every interval until ctx is done.
func (m *Membership) Run(ctx context.Context, clock resilience.Clock, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if clock == nil {
		clock = resilience.SystemClock{}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-clock.After(interval):
			m.CheckNow(ctx)
		}
	}
}

func (m *Membership) observe(st *replicaState, ok bool) {
	st.mu.Lock()
	st.healthy = ok
	st.mu.Unlock()
	if ok {
		st.breaker.Success()
	} else {
		m.noteFailure(st)
	}
}

// noteFailure records one failure on st's breaker and fires OnBreakerOpen
// when that failure is the one that opened it.
func (m *Membership) noteFailure(st *replicaState) {
	before := st.breaker.State()
	st.breaker.Failure()
	if m.OnBreakerOpen != nil && before != resilience.BreakerOpen && st.breaker.State() == resilience.BreakerOpen {
		m.OnBreakerOpen(st.replica.Name)
	}
}

// ReportSuccess records a successful forward to the named replica,
// closing its breaker.
func (m *Membership) ReportSuccess(name string) {
	if st, ok := m.byName[name]; ok {
		st.breaker.Success()
	}
}

// ReportFailure records a failed forward to the named replica. Enough
// consecutive failures open its breaker and pull it out of rotation until
// a health probe succeeds.
func (m *Membership) ReportFailure(name string) {
	if st, ok := m.byName[name]; ok {
		m.noteFailure(st)
	}
}

// Available reports whether the named replica is routable: its last probe
// succeeded (or none ran yet) and its breaker is not open.
func (m *Membership) Available(name string) bool {
	st, ok := m.byName[name]
	if !ok {
		return false
	}
	st.mu.Lock()
	healthy := st.healthy
	st.mu.Unlock()
	return healthy && st.breaker.State() != resilience.BreakerOpen
}

// Replica returns the named replica's config entry.
func (m *Membership) Replica(name string) (Replica, bool) {
	st, ok := m.byName[name]
	if !ok {
		return Replica{}, false
	}
	return st.replica, true
}

// Replicas returns every replica in config order.
func (m *Membership) Replicas() []Replica {
	out := make([]Replica, len(m.replicas))
	for i, st := range m.replicas {
		out[i] = st.replica
	}
	return out
}

// Counts returns (available, open-breaker) replica counts — the
// numaiogw_replicas_healthy and numaiogw_breaker_open gauges.
func (m *Membership) Counts() (available, open int) {
	for _, st := range m.replicas {
		if m.Available(st.replica.Name) {
			available++
		}
		if st.breaker.State() == resilience.BreakerOpen {
			open++
		}
	}
	return available, open
}

// BreakerState returns the named replica's breaker position (status
// endpoint and tests).
func (m *Membership) BreakerState(name string) resilience.BreakerState {
	st, ok := m.byName[name]
	if !ok {
		return resilience.BreakerClosed
	}
	return st.breaker.State()
}
