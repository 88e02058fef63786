// Package telemetry is the repo's unified observability layer: a
// dependency-free span tracer exporting Chrome trace-event JSON
// (chrome://tracing / Perfetto), a generalized metrics registry (sharded
// counters, gauges, bucket histograms) behind numaiod's /metrics, and the
// HDR-style log-linear latency histogram shared by the daemon and the
// load generator.
//
// The tracer answers the paper's core question — *where* does the
// bandwidth time go — at the systems level: characterization sweeps,
// (node, repeat) measurement cells, fluid solver phases and resilience
// events all land on one timeline, stage-attributed by category. See
// docs/OBSERVABILITY.md.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value span attribute. Values are pre-rendered strings so
// event recording never reflects and the JSON export is deterministic.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// Event is one recorded trace event. Phase follows the Chrome trace-event
// format: 'X' complete span, 'i' instant, 'C' counter.
type Event struct {
	Name  string
	Cat   string
	Phase byte
	TID   int
	Start time.Duration // since the tracer's epoch
	Dur   time.Duration // complete spans only
	Value float64       // counter samples only
	Args  []Attr
}

// Tracer records spans, instants and counter samples, goroutine-safely,
// and exports them as Chrome trace-event JSON. A nil *Tracer is a valid
// no-op — instrumented code calls it unconditionally and pays one nil
// check when tracing is off.
//
// Timestamps come from a monotonic now function measured from the
// tracer's construction; tests inject a deterministic step function so
// identical runs serialize byte-identically.
type Tracer struct {
	now   func() time.Duration
	epoch int64 // wall-clock unix ns at construction; 0 for fake clocks

	mu     sync.Mutex
	events []Event
}

// NewTracer returns a tracer stamping events with real monotonic time
// since construction. The construction wall-clock instant is kept as the
// trace epoch so numaiotrace can align dumps from different processes.
func NewTracer() *Tracer {
	start := time.Now()
	return &Tracer{
		now:   func() time.Duration { return time.Since(start) },
		epoch: start.UnixNano(),
	}
}

// NewTracerFunc returns a tracer whose timestamps come from now — a fake
// clock for deterministic tests. now must be safe for concurrent use when
// the traced code is.
func NewTracerFunc(now func() time.Duration) *Tracer {
	return &Tracer{now: now}
}

// StepClock returns a now function that advances by step on every call —
// the canonical deterministic clock for golden trace tests.
func StepClock(step time.Duration) func() time.Duration {
	var mu sync.Mutex
	var t time.Duration
	return func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		t += step
		return t
	}
}

// Span is an in-flight interval; End records it. A nil *Span (from a nil
// tracer) no-ops on every method.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	tid   int
	start time.Duration
	attrs []Attr
}

// StartSpan opens a span on track 0. cat is the stage label the
// per-stage breakdown aggregates by (e.g. "characterize", "measure",
// "fluid").
func (t *Tracer) StartSpan(name, cat string, attrs ...Attr) *Span {
	return t.StartSpanOn(0, name, cat, attrs...)
}

// StartSpanOn opens a span on an explicit track (trace-viewer "thread");
// worker pools give each worker its own track so concurrent cells render
// side by side instead of stacked.
func (t *Tracer) StartSpanOn(tid int, name, cat string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, tid: tid, start: t.now(), attrs: attrs}
}

// StartSpan opens a child span on the parent's track.
func (s *Span) StartSpan(name, cat string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.StartSpanOn(s.tid, name, cat, attrs...)
}

// SetAttr appends attributes to the span (recorded at End).
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End records the span as a complete ('X') event.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.now()
	s.t.append(Event{
		Name: s.name, Cat: s.cat, Phase: 'X', TID: s.tid,
		Start: s.start, Dur: end - s.start, Args: s.attrs,
	})
}

// Instant records a point-in-time ('i') event on track 0.
func (t *Tracer) Instant(name, cat string, attrs ...Attr) {
	t.InstantOn(0, name, cat, attrs...)
}

// InstantOn records a point-in-time event on an explicit track.
func (t *Tracer) InstantOn(tid int, name, cat string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.append(Event{Name: name, Cat: cat, Phase: 'i', TID: tid, Start: t.now(), Args: attrs})
}

// Count records a counter ('C') sample — trace viewers render these as a
// stacked time series (e.g. worker-pool occupancy).
func (t *Tracer) Count(name string, value float64) {
	if t == nil {
		return
	}
	t.append(Event{Name: name, Phase: 'C', Start: t.now(), Value: value})
}

func (t *Tracer) append(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in recording order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// WriteJSON exports the trace in the Chrome trace-event JSON format,
// loadable by chrome://tracing and https://ui.perfetto.dev. Output is a
// pure function of the recorded events: args maps marshal with sorted
// keys, so identical event sequences yield identical bytes.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms",`); err != nil {
		return err
	}
	// The epoch is emitted as a string: unix nanoseconds exceed float64's
	// integer range, and trace tooling must not round it. Fake-clock
	// tracers (golden tests) have no epoch and keep their historical
	// byte-exact output.
	if t != nil && t.epoch != 0 {
		if _, err := fmt.Fprintf(bw, `"epochNanos":"%d",`, t.epoch); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(`"traceEvents":[`); err != nil {
		return err
	}
	for i, e := range events {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(e.jsonMap())
		if err != nil {
			return fmt.Errorf("telemetry: encoding trace event %q: %w", e.Name, err)
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// jsonMap renders one event as the trace-event object. Timestamps and
// durations are microseconds (the format's unit) with sub-microsecond
// fractions preserved.
func (e Event) jsonMap() map[string]any {
	m := map[string]any{
		"name": e.Name,
		"ph":   string(e.Phase),
		"ts":   float64(e.Start) / 1e3,
		"pid":  1,
		"tid":  e.TID,
	}
	if e.Cat != "" {
		m["cat"] = e.Cat
	}
	switch e.Phase {
	case 'X':
		m["dur"] = float64(e.Dur) / 1e3
	case 'i':
		m["s"] = "t" // thread-scoped instant
	case 'C':
		m["args"] = map[string]any{e.Name: e.Value}
		return m
	}
	if len(e.Args) > 0 {
		args := make(map[string]any, len(e.Args))
		for _, a := range e.Args {
			args[a.Key] = a.Value
		}
		m["args"] = args
	}
	return m
}

// StageRow is one line of the per-stage breakdown: all complete spans of
// one category, aggregated.
type StageRow struct {
	Stage string // the spans' category
	Spans int
	Total time.Duration
}

// StageReport aggregates complete spans by category, ordered by total
// time descending (ties by name). Categories nest — a "characterize"
// sweep contains its "measure" cells — so rows are hierarchical shares of
// the wall time, not disjoint ones.
func (t *Tracer) StageReport() []StageRow {
	if t == nil {
		return nil
	}
	totals := make(map[string]*StageRow)
	for _, e := range t.Events() {
		if e.Phase != 'X' {
			continue
		}
		cat := e.Cat
		if cat == "" {
			cat = e.Name
		}
		row, ok := totals[cat]
		if !ok {
			row = &StageRow{Stage: cat}
			totals[cat] = row
		}
		row.Spans++
		row.Total += e.Dur
	}
	out := make([]StageRow, 0, len(totals))
	for _, row := range totals {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// WallTime is the extent of the trace: last span end minus first span
// start over all complete events (0 when none were recorded).
func (t *Tracer) WallTime() time.Duration {
	if t == nil {
		return 0
	}
	var first, last time.Duration
	seen := false
	for _, e := range t.Events() {
		if e.Phase != 'X' {
			continue
		}
		if !seen || e.Start < first {
			first = e.Start
		}
		if end := e.Start + e.Dur; !seen || end > last {
			last = end
		}
		seen = true
	}
	if !seen {
		return 0
	}
	return last - first
}
