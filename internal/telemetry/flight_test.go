package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func flightEvent(i int) FlightEvent {
	return FlightEvent{
		Time:   int64(1000 + i),
		Dur:    time.Duration(i) * time.Microsecond,
		Status: 200,
		Name:   fmt.Sprintf("/v1/predict#%d", i),
		Cat:    "http",
		RID:    fmt.Sprintf("rid-%d", i),
	}
}

// TestFlightRecorderWraparound pins the ring behavior at the exact
// capacity boundaries: capacity-1, capacity, capacity+1 and a full
// second lap.
func TestFlightRecorderWraparound(t *testing.T) {
	const capacity = 8
	cases := []struct {
		records     int
		wantLen     int
		wantDropped uint64
		wantFirst   int // index of the oldest surviving event
	}{
		{records: capacity - 1, wantLen: capacity - 1, wantDropped: 0, wantFirst: 0},
		{records: capacity, wantLen: capacity, wantDropped: 0, wantFirst: 0},
		{records: capacity + 1, wantLen: capacity, wantDropped: 1, wantFirst: 1},
		{records: 2 * capacity, wantLen: capacity, wantDropped: capacity, wantFirst: capacity},
		{records: 2*capacity + 1, wantLen: capacity, wantDropped: capacity + 1, wantFirst: capacity + 1},
	}
	for _, tc := range cases {
		r := NewFlightRecorder(capacity)
		for i := 0; i < tc.records; i++ {
			r.Record(flightEvent(i))
		}
		events, dropped := r.Snapshot()
		if len(events) != tc.wantLen || r.Len() != tc.wantLen {
			t.Errorf("%d records: len = %d (Len %d), want %d", tc.records, len(events), r.Len(), tc.wantLen)
		}
		if dropped != tc.wantDropped {
			t.Errorf("%d records: dropped = %d, want %d", tc.records, dropped, tc.wantDropped)
		}
		if total := uint64(len(events)) + dropped; total != uint64(tc.records) {
			t.Errorf("%d records: total = %d", tc.records, total)
		}
		for i, e := range events {
			if want := flightEvent(tc.wantFirst + i).Name; e.Name != want {
				t.Errorf("%d records: event %d = %q, want %q", tc.records, i, e.Name, want)
			}
		}
	}
}

// TestFlightRecorderNil checks the nil recorder honors the no-op contract
// instrumented code relies on.
func TestFlightRecorderNil(t *testing.T) {
	var r *FlightRecorder
	r.Record(flightEvent(0))
	if r.Len() != 0 {
		t.Fatal("nil recorder reports non-zero sizes")
	}
	events, dropped := r.Snapshot()
	if events != nil || dropped != 0 {
		t.Fatal("nil recorder returned a snapshot")
	}
	if err := r.WriteJSON(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

// TestFlightRecorderJSON checks the dump shape: valid JSON, oldest-first,
// optional fields omitted when empty.
func TestFlightRecorderJSON(t *testing.T) {
	r := NewFlightRecorder(4)
	r.Record(FlightEvent{Time: 1, Name: "a", Cat: "http", Status: 200, RID: "rid-1", TraceID: "0123", Dur: 1500 * time.Nanosecond})
	r.Record(FlightEvent{Time: 2, Name: "b", Cat: "breaker", Detail: "open"})
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Time    int64   `json:"time_unix_ns"`
			Name    string  `json:"name"`
			Cat     string  `json:"cat"`
			DurUS   float64 `json:"dur_us"`
			Status  int     `json:"status"`
			RID     string  `json:"request_id"`
			TraceID string  `json:"trace_id"`
			Detail  string  `json:"detail"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, sb.String())
	}
	if doc.Dropped != 0 || len(doc.Events) != 2 {
		t.Fatalf("dropped %d, %d events; want 0, 2", doc.Dropped, len(doc.Events))
	}
	first := doc.Events[0]
	if first.Name != "a" || first.RID != "rid-1" || first.TraceID != "0123" || first.DurUS != 1.5 {
		t.Errorf("first event mismatch: %+v", first)
	}
	if doc.Events[1].Detail != "open" || doc.Events[1].RID != "" {
		t.Errorf("second event mismatch: %+v", doc.Events[1])
	}
	if strings.Contains(sb.String(), `"request_id":""`) {
		t.Error("empty optional fields must be omitted")
	}

	// Equal snapshots dump equal bytes.
	var again strings.Builder
	if err := r.WriteJSON(&again); err != nil {
		t.Fatalf("second WriteJSON: %v", err)
	}
	if again.String() != sb.String() {
		t.Error("dump is not byte-deterministic for an unchanged ring")
	}
}

// TestFlightRecorderConcurrent races writers against snapshots; run under
// -race in CI. Every writer's last event must be accounted for either in
// the final snapshot or the dropped count.
func TestFlightRecorderConcurrent(t *testing.T) {
	const workers, per, capacity = 8, 200, 64
	r := NewFlightRecorder(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(flightEvent(w*per + i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	events, dropped := r.Snapshot()
	if got := uint64(len(events)) + dropped; got != workers*per {
		t.Fatalf("events %d + dropped %d = %d, want %d", len(events), dropped, got, workers*per)
	}
	if len(events) != capacity {
		t.Fatalf("retained %d events, want %d", len(events), capacity)
	}
}

// TestFlightRecorderRecordAllocs is the bounded-memory contract: the
// steady-state Record path allocates nothing.
func TestFlightRecorderRecordAllocs(t *testing.T) {
	r := NewFlightRecorder(16)
	ev := flightEvent(1)
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(ev) }); allocs != 0 {
		t.Fatalf("Record allocates %.1f objects per call, want 0", allocs)
	}
}

// TestFlightRecorderTruncation: over-budget string fields are truncated
// at the slot's fixed byte caps rather than retained — the pointer-free
// slot contract — while in-budget fields round-trip exactly.
func TestFlightRecorderTruncation(t *testing.T) {
	r := NewFlightRecorder(4)
	long := strings.Repeat("x", 200)
	r.Record(FlightEvent{
		Time: 1, Status: 200,
		Name: long, Cat: long, RID: long, TraceID: long, Detail: long,
	})
	r.Record(FlightEvent{
		Time: 2, Name: "/v1/characterize", Cat: "http",
		RID: "gw-000042", TraceID: strings.Repeat("ab", 16),
		Detail: "key=dl585g7:1:-1 from=closed",
	})
	events, _ := r.Snapshot()
	if len(events) != 2 {
		t.Fatalf("retained %d events, want 2", len(events))
	}
	truncated := events[0]
	for _, f := range []struct {
		name  string
		got   string
		limit int
	}{
		{"Name", truncated.Name, flightNameCap},
		{"Cat", truncated.Cat, flightCatCap},
		{"RID", truncated.RID, flightRIDCap},
		{"TraceID", truncated.TraceID, flightTraceCap},
		{"Detail", truncated.Detail, flightDetailCap},
	} {
		if len(f.got) != f.limit || f.got != long[:f.limit] {
			t.Errorf("%s = %q (%d bytes), want the first %d bytes", f.name, f.got, len(f.got), f.limit)
		}
	}
	exact := events[1]
	if exact.Name != "/v1/characterize" || exact.Cat != "http" ||
		exact.RID != "gw-000042" || exact.TraceID != strings.Repeat("ab", 16) ||
		exact.Detail != "key=dl585g7:1:-1 from=closed" {
		t.Errorf("in-budget event did not round-trip: %+v", exact)
	}
}

// TestTraceControlLifecycle covers the start/stop/current transitions the
// /debug/trace endpoints are built on.
func TestTraceControlLifecycle(t *testing.T) {
	var c TraceControl
	if c.Active() != nil || c.Current() != nil || c.Tracing() {
		t.Fatal("fresh control is not idle")
	}
	if c.Stop() != nil {
		t.Fatal("stop with no history returned a tracer")
	}
	t1 := c.Start()
	if c.Active() != t1 || !c.Tracing() || c.Current() != t1 {
		t.Fatal("start did not install the tracer")
	}
	t2 := c.Start() // restart while active: t1 becomes the last trace
	if c.Active() != t2 || c.Current() != t2 {
		t.Fatal("restart did not swap the active tracer")
	}
	if got := c.Stop(); got != t2 {
		t.Fatalf("stop returned %p, want %p", got, t2)
	}
	if c.Active() != nil || c.Tracing() {
		t.Fatal("stop left the control active")
	}
	if c.Current() != t2 {
		t.Fatal("stopped trace is not downloadable")
	}
	if got := c.Stop(); got != t2 {
		t.Fatal("redundant stop lost the last trace")
	}
}
