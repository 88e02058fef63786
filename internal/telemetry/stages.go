package telemetry

import (
	"context"
	"log/slog"
	"strconv"
	"sync"
	"time"
)

// maxStages bounds the per-request stage table. Requests have a handful
// of well-known stages (queue, cache, solve, encode; route, forward,
// failover on the gateway); anything past the bound is dropped rather
// than grown.
const maxStages = 8

// Stages accumulates one request's per-stage latency breakdown in
// first-Add order. It is the attribution side of the paper's question —
// where did this request's wall time go — and renders either as a
// Server-Timing response header or as structured-log fields. A nil
// *Stages no-ops on every method, so instrumented code records
// unconditionally. Safe for concurrent use.
type Stages struct {
	mu    sync.Mutex
	n     int
	names [maxStages]string
	durs  [maxStages]time.Duration
}

// Add folds d into the named stage, creating it on first use. Repeated
// names accumulate — e.g. the response-cache probe and fill of one
// request both land in "cache".
func (s *Stages) Add(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.n; i++ {
		if s.names[i] == name {
			s.durs[i] += d
			return
		}
	}
	if s.n < maxStages {
		s.names[s.n] = name
		s.durs[s.n] = d
		s.n++
	}
}

// Observe runs fn and attributes its wall time to the named stage.
func (s *Stages) Observe(name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	s.Add(name, time.Since(start))
}

// Len returns the number of distinct stages recorded.
func (s *Stages) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Get returns the accumulated duration for name (0 if absent).
func (s *Stages) Get(name string) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.n; i++ {
		if s.names[i] == name {
			return s.durs[i]
		}
	}
	return 0
}

// Header renders the breakdown as a Server-Timing header value —
// "queue;dur=0.132, solve;dur=5.210" — durations in milliseconds with
// microsecond precision, stages in first-Add order. Empty when nothing
// was recorded.
func (s *Stages) Header() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return ""
	}
	b := make([]byte, 0, 24*s.n)
	for i := 0; i < s.n; i++ {
		if i > 0 {
			b = append(b, ',', ' ')
		}
		b = append(b, s.names[i]...)
		b = append(b, ";dur="...)
		b = strconv.AppendFloat(b, float64(s.durs[i])/1e6, 'f', 3, 64)
	}
	return string(b)
}

// AppendLogAttrs appends one "stage_<name>" duration attribute per stage
// to attrs for the structured request log.
func (s *Stages) AppendLogAttrs(attrs []slog.Attr) []slog.Attr {
	if s == nil {
		return attrs
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.n; i++ {
		attrs = append(attrs, slog.Duration("stage_"+s.names[i], s.durs[i]))
	}
	return attrs
}

// StagesFromContext returns the breakdown the request pipeline threads
// through a /v1/ request's context, so code deep in the handler chain
// (pools, caches, solvers) can attribute time without threading a
// parameter through every signature; else nil — which every Stages
// method accepts.
func StagesFromContext(ctx context.Context) *Stages {
	if rw, ok := ctx.Value(requestKey{}).(*responseWriter); ok {
		return rw.stages
	}
	return nil
}
