package telemetry

import "sync/atomic"

// TraceControl owns a process's /debug/trace lifecycle: at most one
// active tracer, plus the most recently stopped one so a completed
// recording stays downloadable after tracing ends. All methods are safe
// for concurrent use — start, stop and download may race each other and
// live requests. The request pipeline embeds one behind /debug/trace.
type TraceControl struct {
	active atomic.Pointer[Tracer]
	last   atomic.Pointer[Tracer]
}

// Start installs a fresh tracer and returns it. A recording already in
// progress is stopped and becomes the last trace.
func (c *TraceControl) Start() *Tracer {
	t := NewTracer()
	if old := c.active.Swap(t); old != nil {
		c.last.Store(old)
	}
	return t
}

// Stop halts recording and returns the stopped tracer, or the previous
// last trace when nothing was active (nil if there has never been one) —
// so a stop response can always report the frozen recording's size.
func (c *TraceControl) Stop() *Tracer {
	if old := c.active.Swap(nil); old != nil {
		c.last.Store(old)
		return old
	}
	return c.last.Load()
}

// Active returns the tracer currently recording, or nil. Request paths
// call this once per request; the nil-tracer no-op contract keeps the
// untraced path to a single atomic load.
func (c *TraceControl) Active() *Tracer { return c.active.Load() }

// Tracing reports whether a recording is in progress.
func (c *TraceControl) Tracing() bool { return c.active.Load() != nil }

// Current returns the active tracer, else the last stopped one, else nil
// — the recording /debug/trace serves.
func (c *TraceControl) Current() *Tracer {
	if t := c.active.Load(); t != nil {
		return t
	}
	return c.last.Load()
}
