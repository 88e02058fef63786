package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// TraceCtxHeader is the HTTP header carrying the trace context across
// process hops: numaioload → numaiogw → numaiod, including proxy failover
// and model-pull hops. The value follows the W3C traceparent shape,
//
//	00-<32 hex trace id>-<16 hex span id>-01
//
// with the version and flags fields fixed; only the trace and span IDs
// are meaningful here.
const TraceCtxHeader = "X-Trace-Ctx"

// TraceContext identifies one request's position in a fleet-wide trace:
// the trace ID shared by every hop, and the span ID of the hop that sent
// it (the receiver's parent). The zero value means "no context".
type TraceContext struct {
	TraceID string // 32 lowercase hex digits
	SpanID  string // 16 lowercase hex digits
}

// NewTraceContext mints a root context with random trace and span IDs.
func NewTraceContext() TraceContext {
	tc, _ := mintTrace("")
	return tc
}

// Child keeps the trace ID and mints a fresh span ID — the context a hop
// attaches to its own span and forwards downstream, so the downstream
// span's parent is this hop rather than this hop's caller.
func (c TraceContext) Child() TraceContext {
	tc, _ := mintTrace(c.TraceID)
	return tc
}

// mintTrace mints a fresh span ID under traceID (under a fresh random
// trace ID when traceID is empty) and returns the context together with
// its TraceCtxHeader value. Both IDs are slices of that one string, so a
// request's whole trace context costs a single allocation.
func mintTrace(traceID string) (TraceContext, string) {
	var rnd [24]byte
	mustRandRead(rnd[:])
	b := []byte("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	hex.Encode(b[3:35], rnd[:16])
	if traceID != "" {
		copy(b[3:35], traceID)
	}
	hex.Encode(b[36:52], rnd[16:])
	hdr := string(b)
	return TraceContext{TraceID: hdr[3:35], SpanID: hdr[36:52]}, hdr
}

// Valid reports whether the context carries both IDs.
func (c TraceContext) Valid() bool { return c.TraceID != "" && c.SpanID != "" }

// String renders the context as the TraceCtxHeader value. The zero
// context renders an invalid value; callers guard with Valid.
func (c TraceContext) String() string {
	return "00-" + c.TraceID + "-" + c.SpanID + "-01"
}

// ParseTraceContext parses a TraceCtxHeader value. Malformed or all-zero
// values are rejected, so propagation degrades to a fresh trace instead
// of failing the request.
func ParseTraceContext(s string) (TraceContext, bool) {
	// 00-<32 hex>-<16 hex>-<2 hex>
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	tid, sid := s[3:35], s[36:52]
	if !isLowerHex(tid) || !isLowerHex(sid) || !isLowerHex(s[53:]) {
		return TraceContext{}, false
	}
	if allZero(tid) || allZero(sid) {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: tid, SpanID: sid}, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// mustRandRead fills b from crypto/rand. Read never fails on supported
// platforms; if it somehow does, the zero bytes yield an all-zero (and
// therefore invalid, unparseable) context rather than a panic in the
// request path.
func mustRandRead(b []byte) {
	_, _ = rand.Read(b)
}

// TraceFromContext returns the trace context the request pipeline threads
// through a request's context, so outbound hops made on behalf of the
// request (forwards, model pulls) can propagate it.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	rw, ok := ctx.Value(requestKey{}).(*responseWriter)
	if !ok {
		return TraceContext{}, false
	}
	return rw.trace, rw.trace.Valid()
}
