package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"numaio/internal/resilience"
)

// TestParseConfig covers validation and URL normalization.
func TestParseConfig(t *testing.T) {
	good := `{"replicas": [{"name": "a", "url": "http://a:1/"}, {"name": "b", "url": "http://b:2"}],
	          "vnodes": 32, "replication": 2, "hot_threshold": 4}`
	cfg, err := ParseConfig(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas[0].URL != "http://a:1" {
		t.Errorf("trailing slash not stripped: %q", cfg.Replicas[0].URL)
	}
	if cfg.VNodes != 32 || cfg.Replication != 2 || cfg.HotThreshold != 4 {
		t.Errorf("tuning = %+v", cfg)
	}
	for _, bad := range []string{
		`{}`,
		`{"replicas": []}`,
		`{"replicas": [{"name": "", "url": "http://a:1"}]}`,
		`{"replicas": [{"name": "a", "url": ""}]}`,
		`{"replicas": [{"name": "a", "url": "http://a:1"}, {"name": "a", "url": "http://b:2"}]}`,
		`{"replicas": [{"name": "a", "url": "http://a:1"}], "surprise": true}`,
		`{"replicas": [{"name": "a", "url": "/"}]}`,
		`{"replicas": [{"name": "a", "url": "http://a:1"}]} {}`,
		`not json`,
	} {
		if _, err := ParseConfig(strings.NewReader(bad)); err == nil {
			t.Errorf("config %s accepted", bad)
		}
	}
}

// FuzzParseConfig: ParseConfig never panics, and every config it accepts
// has at least one replica, each with a unique name and a non-empty URL.
func FuzzParseConfig(f *testing.F) {
	f.Add(`{"replicas": [{"name": "a", "url": "http://a:1/"}, {"name": "b", "url": "http://b:2"}], "vnodes": 32}`)
	f.Fuzz(func(t *testing.T, data string) {
		cfg, err := ParseConfig(strings.NewReader(data))
		if err != nil {
			return
		}
		if len(cfg.Replicas) == 0 {
			t.Fatalf("%q: accepted with no replicas", data)
		}
		seen := make(map[string]bool, len(cfg.Replicas))
		for _, r := range cfg.Replicas {
			if r.Name == "" || seen[r.Name] {
				t.Fatalf("%q: replica name %q is empty or repeated", data, r.Name)
			}
			seen[r.Name] = true
			if r.URL == "" {
				t.Fatalf("%q: replica %q accepted with an empty URL", data, r.Name)
			}
		}
	})
}

// TestMembershipHealthCheck: a live replica stays available, a dead one is
// pulled out after one probe, and a recovered one comes back.
func TestMembershipHealthCheck(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s, want /healthz", r.URL.Path)
		}
	}))
	defer up.Close()
	down := httptest.NewServer(http.HandlerFunc(nil))
	down.Close() // already dead

	m := NewMembership([]Replica{
		{Name: "up", URL: up.URL},
		{Name: "down", URL: down.URL},
	}, 3, time.Minute, nil, nil)

	// Optimistic before any probe: both routable.
	if !m.Available("up") || !m.Available("down") {
		t.Error("replicas not optimistic at boot")
	}

	m.CheckNow(context.Background())
	if !m.Available("up") {
		t.Error("live replica marked unavailable")
	}
	if m.Available("down") {
		t.Error("dead replica still available after probe")
	}
	if avail, _ := m.Counts(); avail != 1 {
		t.Errorf("available = %d, want 1", avail)
	}
}

// TestMembershipForwardFailuresOpenBreaker: enough forward failures open
// the replica's breaker without waiting for a probe, and a successful
// probe closes it again.
func TestMembershipForwardFailuresOpenBreaker(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer up.Close()

	clock := resilience.NewFakeClock(time.Unix(0, 0))
	m := NewMembership([]Replica{{Name: "a", URL: up.URL}}, 2, time.Hour, clock, nil)

	m.ReportFailure("a")
	if !m.Available("a") {
		t.Error("one failure below threshold already unavailable")
	}
	m.ReportFailure("a")
	if m.Available("a") {
		t.Error("breaker did not open after threshold failures")
	}
	if _, open := m.Counts(); open != 1 {
		t.Errorf("open breakers = %d, want 1", open)
	}
	if m.BreakerState("a") != resilience.BreakerOpen {
		t.Errorf("breaker state = %v", m.BreakerState("a"))
	}

	// A successful health probe closes the breaker and restores routing.
	m.CheckNow(context.Background())
	if !m.Available("a") {
		t.Error("replica not restored after successful probe")
	}
}
