package telemetry

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatal("fresh context is invalid")
	}
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("ID lengths: trace %d, span %d", len(tc.TraceID), len(tc.SpanID))
	}
	got, ok := ParseTraceContext(tc.String())
	if !ok || got != tc {
		t.Fatalf("round trip %q -> %+v ok=%v, want %+v", tc.String(), got, ok, tc)
	}
}

// FuzzParseTraceContext: ParseTraceContext never panics, and a value it
// accepts is Valid, renders with the same first 53 bytes (all but the
// flags), and re-parses to itself.
func FuzzParseTraceContext(f *testing.F) {
	f.Add(NewTraceContext().String())
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceContext(s)
		if !ok {
			return
		}
		if !tc.Valid() {
			t.Fatalf("%q: accepted an invalid context %+v", s, tc)
		}
		if out := tc.String(); out[:53] != s[:53] {
			t.Fatalf("%q renders as %q", s, out)
		}
		if back, ok := ParseTraceContext(tc.String()); !ok || back != tc {
			t.Fatalf("%q: %q re-parses to %+v, %v", s, tc.String(), back, ok)
		}
	})
}

func TestParseTraceContextRejects(t *testing.T) {
	valid := NewTraceContext().String()
	bad := []string{
		"",
		"garbage",
		valid[:len(valid)-1],                // truncated
		valid + "0",                         // too long
		"01" + valid[2:],                    // unknown version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		strings.ToUpper(valid),              // uppercase hex
		"00-" + strings.Repeat("0", 32) + "-" + valid[36:], // all-zero trace ID
		valid[:36] + strings.Repeat("0", 16) + "-01",       // all-zero span ID
		"00-" + strings.Repeat("zz", 16) + valid[35:],      // non-hex trace ID
	}
	for _, s := range bad {
		if _, ok := ParseTraceContext(s); ok {
			t.Errorf("ParseTraceContext(%q) accepted a malformed value", s)
		}
	}
}

// TestTraceContextInContext: the pipeline threads the request's trace
// context — a child of the inbound one, as echoed on the response —
// through the handler's context.
func TestTraceContextInContext(t *testing.T) {
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("empty context yielded a trace context")
	}
	p := NewPipeline(PipelineConfig{Daemon: "test"})
	mux := http.NewServeMux()
	var got TraceContext
	var ok bool
	p.Handle(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		got, ok = TraceFromContext(r.Context())
	})
	parent := NewTraceContext()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set(TraceCtxHeader, parent.String())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	echoed, _ := ParseTraceContext(rec.Header().Get(TraceCtxHeader))
	if !ok || got != echoed || got.TraceID != parent.TraceID || got.SpanID == parent.SpanID {
		t.Fatalf("TraceFromContext = %+v ok=%v; echoed %+v, parent %+v", got, ok, echoed, parent)
	}
}

func TestStagesHeaderAndAttrs(t *testing.T) {
	var nilStages *Stages
	nilStages.Add("queue", time.Second) // must not panic
	if nilStages.Header() != "" || nilStages.Len() != 0 {
		t.Fatal("nil stages are not empty")
	}

	s := new(Stages)
	s.Add("queue", 132*time.Microsecond)
	s.Add("solve", 5210*time.Microsecond)
	s.Add("queue", 868*time.Microsecond) // accumulates, keeps first-add order
	if got := s.Header(); got != "queue;dur=1.000, solve;dur=5.210" {
		t.Errorf("Header() = %q", got)
	}
	if got := stageDur(s, "queue"); got != time.Millisecond {
		t.Errorf("Get(queue) = %v", got)
	}
	attrs := s.AppendLogAttrs([]slog.Attr{slog.String("endpoint", "/v1/predict")})
	if len(attrs) != 3 || attrs[1].Key != "stage_queue" || attrs[2].Key != "stage_solve" {
		t.Errorf("AppendLogAttrs = %v", attrs)
	}

	// Past the bound, extra stages are dropped, not grown.
	for i := 0; i < 2*maxStages; i++ {
		s.Add(strings.Repeat("x", i+1), time.Millisecond)
	}
	if s.Len() != maxStages {
		t.Errorf("Len() = %d after overflow, want %d", s.Len(), maxStages)
	}
}

// TestAppendMillis: the integer rendering of a stage duration matches
// strconv's fixed-precision float format, which Header used before, for
// every duration that is not a tie at the microsecond.
func TestAppendMillis(t *testing.T) {
	ds := []time.Duration{0, 1, 499, 501, 999, 1000, 132 * time.Microsecond,
		5210 * time.Microsecond, 999_999, time.Second + 1499, -2 * time.Millisecond,
		-1234567, 90 * time.Minute}
	for d := time.Duration(7); d < time.Hour; d = d*3 + 11 {
		ds = append(ds, d)
	}
	for _, d := range ds {
		if abs := max(d, -d); abs%time.Microsecond == time.Microsecond/2 {
			continue
		}
		want := strconv.AppendFloat(nil, float64(d)/1e6, 'f', 3, 64)
		if got := appendMillis(nil, d); string(got) != string(want) {
			t.Errorf("appendMillis(%d) = %s, want %s", d, got, want)
		}
	}
}

// TestStagesLap: Lap charges the time since start to a stage and hands
// back the next stage's start; a nil breakdown hands back start.
func TestStagesLap(t *testing.T) {
	var nilStages *Stages
	t0 := time.Now()
	if got := nilStages.Lap("decode", t0); !got.Equal(t0) {
		t.Errorf("nil Lap = %v, want %v", got, t0)
	}
	s := new(Stages)
	start := time.Now().Add(-time.Millisecond)
	next := s.Lap("decode", start)
	if d := stageDur(s, "decode"); d < time.Millisecond || d != next.Sub(start) {
		t.Errorf("decode = %v, want next-start = %v (>= 1ms)", d, next.Sub(start))
	}
	s.Lap("cache", next)
	if s.Len() != 2 {
		t.Errorf("Len() = %d, want 2", s.Len())
	}
}

// stageDur returns the accumulated duration of the named stage.
func stageDur(s *Stages, name string) time.Duration {
	for i := 0; i < s.n; i++ {
		if s.names[i] == name {
			return s.durs[i]
		}
	}
	return 0
}

func TestStagesContext(t *testing.T) {
	if StagesFromContext(context.Background()) != nil {
		t.Fatal("empty context yielded stages")
	}

	// The pipeline threads a breakdown through /v1/ requests only,
	// reachable from the context and the writer alike, and renders it as
	// the Server-Timing header.
	p := NewPipeline(PipelineConfig{Daemon: "test"})
	mux := http.NewServeMux()
	var v1, other *Stages
	p.Handle(mux, "GET /v1/x", func(w http.ResponseWriter, r *http.Request) {
		v1 = StagesFromContext(r.Context())
		if StagesFromWriter(w) != v1 {
			t.Error("writer and context disagree on the stage breakdown")
		}
		v1.Add("cache", time.Millisecond)
	})
	p.Handle(mux, "GET /other", func(w http.ResponseWriter, r *http.Request) {
		other = StagesFromContext(r.Context())
	})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/x", nil))
	if v1 == nil || rec.Header().Get("Server-Timing") != "cache;dur=1.000" {
		t.Errorf("/v1/ route: stages %v, Server-Timing %q", v1, rec.Header().Get("Server-Timing"))
	}
	mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/other", nil))
	if other != nil {
		t.Error("non-/v1/ route got a stage breakdown")
	}
}
