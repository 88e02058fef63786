package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerNoop: every entry point must be safe on a nil tracer and
// the spans it hands out.
func TestNilTracerNoop(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("x", "cat", Int("k", 1))
	sp.SetAttr(String("a", "b"))
	child := sp.StartSpan("y", "cat")
	child.End()
	sp.End()
	tr.Instant("i", "cat")
	tr.Count("c", 1)
	if tr.Len() != 0 || tr.Events() != nil || tr.StageReport() != nil || tr.WallTime() != 0 {
		t.Error("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := NewTracer().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("empty trace is not valid JSON: %s", buf.String())
	}
}

// TestTraceShape: spans, instants and counters round-trip through the
// Chrome trace-event JSON with the expected fields.
func TestTraceShape(t *testing.T) {
	tr := NewTracerFunc(StepClock(time.Millisecond))
	outer := tr.StartSpan("sweep", "characterize", String("mode", "write"))
	inner := outer.StartSpan("cell", "measure", Int("node", 3))
	inner.SetAttr(Int("attempts", 1))
	inner.End()
	tr.InstantOn(2, "measure-timeout", "resilience")
	tr.Count("workers-busy", 4)
	outer.End()

	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	byName := make(map[string]map[string]any)
	for _, e := range doc.TraceEvents {
		byName[e["name"].(string)] = e
	}
	cell := byName["cell"]
	if cell["ph"] != "X" || cell["cat"] != "measure" {
		t.Errorf("cell event malformed: %v", cell)
	}
	if cell["dur"].(float64) <= 0 {
		t.Errorf("cell span has no duration: %v", cell)
	}
	args := cell["args"].(map[string]any)
	if args["node"] != "3" || args["attempts"] != "1" {
		t.Errorf("cell args = %v", args)
	}
	if inst := byName["measure-timeout"]; inst["ph"] != "i" || inst["s"] != "t" || inst["tid"].(float64) != 2 {
		t.Errorf("instant malformed: %v", inst)
	}
	if cnt := byName["workers-busy"]; cnt["ph"] != "C" || cnt["args"].(map[string]any)["workers-busy"].(float64) != 4 {
		t.Errorf("counter malformed: %v", cnt)
	}
	// Nesting: the inner span must lie within the outer span's interval.
	sweep := byName["sweep"]
	so, do := sweep["ts"].(float64), sweep["dur"].(float64)
	si, di := cell["ts"].(float64), cell["dur"].(float64)
	if si < so || si+di > so+do {
		t.Errorf("inner span [%g,%g] escapes outer [%g,%g]", si, si+di, so, so+do)
	}
}

// TestTraceDeterministic: two identical instrumented runs under the fake
// clock serialize byte-identically.
func TestTraceDeterministic(t *testing.T) {
	run := func() []byte {
		tr := NewTracerFunc(StepClock(time.Microsecond))
		for i := 0; i < 3; i++ {
			sp := tr.StartSpan("outer", "a", Int("i", i))
			in := sp.StartSpan("inner", "b", String("f", "0.125"))
			in.End()
			sp.End()
		}
		tr.Instant("done", "a")
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("identical runs produced different traces:\n%s\n---\n%s", a, b)
	}
}

// TestStageReportAndWallTime: aggregation by category, ordering by total
// descending, and wall time as the span extent.
func TestStageReportAndWallTime(t *testing.T) {
	var now time.Duration
	tr := NewTracerFunc(func() time.Duration { return now })
	span := func(cat string, start, dur time.Duration) {
		now = start
		s := tr.StartSpan("s", cat)
		now = start + dur
		s.End()
	}
	span("measure", 0, 10*time.Millisecond)
	span("measure", 10*time.Millisecond, 10*time.Millisecond)
	span("classify", 20*time.Millisecond, 5*time.Millisecond)
	tr.Instant("noise", "resilience") // instants don't count

	rows := tr.StageReport()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want 2", rows)
	}
	if rows[0].Stage != "measure" || rows[0].Spans != 2 || rows[0].Total != 20*time.Millisecond {
		t.Errorf("rows[0] = %+v", rows[0])
	}
	if rows[1].Stage != "classify" || rows[1].Total != 5*time.Millisecond {
		t.Errorf("rows[1] = %+v", rows[1])
	}
	if got := tr.WallTime(); got != 25*time.Millisecond {
		t.Errorf("WallTime = %v, want 25ms", got)
	}
}

// TestTracerConcurrent: hammer the tracer from 32 goroutines under -race;
// every recorded event must survive intact.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	const workers, per = 32, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.StartSpanOn(w, "work", "stress", Int("i", i))
				sp.StartSpan("child", "stress").End()
				sp.End()
				tr.InstantOn(w, "tick", "stress")
				tr.Count("busy", float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got, want := tr.Len(), workers*per*4; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("concurrent trace is not valid JSON")
	}
	if n := strings.Count(buf.String(), `"ph":"X"`); n != workers*per*2 {
		t.Errorf("trace has %d complete spans, want %d", n, workers*per*2)
	}
}
