package telemetry

import (
	"context"
	"log/slog"
	"strconv"
	"sync"
	"time"
)

// maxStages bounds the per-request stage table. Requests have a handful
// of well-known stages (decode, cache, resolve, queue, solve, predict,
// encode on numaiod; route, forward, failover on the gateway); anything
// past the bound is dropped rather than grown.
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

// Lap folds the time since start into the named stage and returns the
// time it stopped the clock, the start of the next stage, so a handler's
// consecutive stages chain: t = st.Lap("decode", t).
func (s *Stages) Lap(name string, start time.Time) time.Time {
	if s == nil {
		return start
	}
	now := time.Now()
	s.Add(name, now.Sub(start))
	return now
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
	var buf [24 * maxStages]byte // room for the usual names, off the heap
	b := buf[:0]
	for i := 0; i < s.n; i++ {
		if i > 0 {
			b = append(b, ',', ' ')
		}
		b = append(b, s.names[i]...)
		b = append(b, ";dur="...)
		b = appendMillis(b, s.durs[i])
	}
	return string(b)
}

// appendMillis appends d in milliseconds to the nearest microsecond,
// "5.210", in integer arithmetic: strconv's fixed-precision 'f' format
// takes its arbitrary-precision decimal path, about 0.27 µs a stage on a
// 2-vCPU Xeon.
func appendMillis(b []byte, d time.Duration) []byte {
	if d < 0 {
		b = append(b, '-')
		d = -d
	}
	us := (d + time.Microsecond/2) / time.Microsecond
	b = strconv.AppendInt(b, int64(us/1000), 10)
	frac := us % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
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
		attrs = append(attrs, slog.Duration(logKey(s.names[i]), s.durs[i]))
	}
	return attrs
}

// logKeys maps a stage name to its log key, "stage_<name>". The same
// handful of names recur on every request, so each key is built once
// rather than once per logged request.
var logKeys sync.Map

func logKey(name string) string {
	if k, ok := logKeys.Load(name); ok {
		return k.(string)
	}
	k, _ := logKeys.LoadOrStore(name, "stage_"+name)
	return k.(string)
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
