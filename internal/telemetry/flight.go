package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightEvent is one record in the always-on flight recorder: a completed
// request, a resilience transition, or any other event worth still having
// around when something goes wrong. All fields are plain values — Record
// copies them byte-wise into a preallocated pointer-free slot and
// allocates nothing; string fields longer than the slot's fixed budgets
// (40 bytes for Name and RID, 32 for TraceID, 64 for Detail) are
// truncated rather than retained.
type FlightEvent struct {
	Time    int64         // wall-clock unix nanoseconds
	Dur     time.Duration // 0 for point events
	Status  int           // HTTP status for request events, else 0
	Name    string        // endpoint pattern, transition name, ...
	Cat     string        // "http", "breaker", ...
	RID     string        // request ID, "" when none
	TraceID string        // trace ID from X-Trace-Ctx, "" when none
	Detail  string        // free-form: error summary, breaker state, ...
}

// Per-field byte budgets for a ring slot. Values are copied in truncated
// to these caps; they are sized for the repo's actual identifiers (v1
// endpoint paths, 32-hex trace IDs, gateway request IDs, breaker detail
// strings) with headroom.
const (
	flightNameCap   = 40
	flightCatCap    = 12
	flightRIDCap    = 40
	flightTraceCap  = 32
	flightDetailCap = 64
)

// flightSlot is one ring entry. Writers claim a slot index with a single
// atomic add on the ring cursor, then take only this slot's mutex for the
// copy — two writers contend only when they land on the same slot (the
// ring has wrapped a full capacity between them), so the steady state is
// an uncontended lock around a plain struct copy.
//
// The slot is deliberately pointer-free: string fields are copied into
// fixed byte arrays rather than retained. A ring that held string
// references would extend the lifetime of every recent request's IDs and
// give the garbage collector thousands of extra pointers to mark on each
// cycle — a tax charged to the request path the recorder is supposed to
// observe, not perturb. With value-only slots the GC skips the ring
// entirely.
type flightSlot struct {
	mu                                           sync.Mutex
	idx                                          uint64 // 1-based claim index; 0 = never written
	time                                         int64
	dur                                          time.Duration
	status                                       int32
	nameLen, catLen, ridLen, traceLen, detailLen uint8
	name                                         [flightNameCap]byte
	cat                                          [flightCatCap]byte
	rid                                          [flightRIDCap]byte
	trace                                        [flightTraceCap]byte
	detail                                       [flightDetailCap]byte
}

// capped copies s into the fixed buffer, truncating at its cap.
func capped(dst []byte, s string) uint8 {
	return uint8(copy(dst, s))
}

// event reconstructs the slot's FlightEvent (allocating its strings —
// snapshot/dump path only).
func (s *flightSlot) event() FlightEvent {
	return FlightEvent{
		Time:    s.time,
		Dur:     s.dur,
		Status:  int(s.status),
		Name:    string(s.name[:s.nameLen]),
		Cat:     string(s.cat[:s.catLen]),
		RID:     string(s.rid[:s.ridLen]),
		TraceID: string(s.trace[:s.traceLen]),
		Detail:  string(s.detail[:s.detailLen]),
	}
}

// FlightRecorder is a fixed-size, lock-light ring of recent events — the
// always-on black box behind /debug/flightrecorder. Memory is bounded at
// construction, recording is allocation-free, and a nil *FlightRecorder
// no-ops so instrumentation is unconditional.
type FlightRecorder struct {
	next  atomic.Uint64 // claim cursor: total events ever recorded
	slots []flightSlot
}

// NewFlightRecorder builds a recorder retaining the last capacity events.
// Capacities below 1 are clamped to 1.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{slots: make([]flightSlot, capacity)}
}

// Record appends ev, overwriting the oldest entry once the ring is full.
func (r *FlightRecorder) Record(ev FlightEvent) {
	if r == nil {
		return
	}
	i := r.next.Add(1)
	s := &r.slots[(i-1)%uint64(len(r.slots))]
	s.mu.Lock()
	s.idx = i
	s.time, s.dur, s.status = ev.Time, ev.Dur, int32(ev.Status)
	s.nameLen = capped(s.name[:], ev.Name)
	s.catLen = capped(s.cat[:], ev.Cat)
	s.ridLen = capped(s.rid[:], ev.RID)
	s.traceLen = capped(s.trace[:], ev.TraceID)
	s.detailLen = capped(s.detail[:], ev.Detail)
	s.mu.Unlock()
}

// Len returns the number of events currently retained.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	if n := r.next.Load(); n < uint64(len(r.slots)) {
		return int(n)
	}
	return len(r.slots)
}

// Snapshot returns the retained events oldest-first plus the number of
// older events already overwritten. It is safe against concurrent Record;
// a recording that races the snapshot lands in either the snapshot or the
// dropped count, never half in both.
func (r *FlightRecorder) Snapshot() ([]FlightEvent, uint64) {
	if r == nil {
		return nil, 0
	}
	type rec struct {
		idx uint64
		ev  FlightEvent
	}
	recs := make([]rec, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.idx > 0 {
			recs = append(recs, rec{s.idx, s.event()})
		}
		s.mu.Unlock()
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].idx < recs[b].idx })
	events := make([]FlightEvent, len(recs))
	var dropped uint64
	for i, rc := range recs {
		events[i] = rc.ev
		if i == 0 && rc.idx > 1 {
			dropped = rc.idx - 1
		}
	}
	return events, dropped
}

// WriteJSON dumps the retained events as one JSON document:
//
//	{"dropped":N,"events":[{...},...]}
//
// Events are oldest-first; optional fields (request_id, trace_id, detail)
// are omitted when empty. The encoding is hand-ordered, so equal
// snapshots yield equal bytes.
func (r *FlightRecorder) WriteJSON(w io.Writer) error {
	events, dropped := r.Snapshot()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"dropped\":%d,\"events\":[", dropped)
	for i, e := range events {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "{\"time_unix_ns\":%d,\"name\":%s,\"cat\":%s,\"dur_us\":%.3f,\"status\":%d",
			e.Time, jsonString(e.Name), jsonString(e.Cat), float64(e.Dur)/1e3, e.Status)
		if e.RID != "" {
			fmt.Fprintf(bw, ",\"request_id\":%s", jsonString(e.RID))
		}
		if e.TraceID != "" {
			fmt.Fprintf(bw, ",\"trace_id\":%s", jsonString(e.TraceID))
		}
		if e.Detail != "" {
			fmt.Fprintf(bw, ",\"detail\":%s", jsonString(e.Detail))
		}
		bw.WriteByte('}')
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// jsonString renders s as a JSON string literal (json.Marshal escaping,
// which %q does not guarantee for control bytes).
func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return []byte(`""`)
	}
	return b
}
