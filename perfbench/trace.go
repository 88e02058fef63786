package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"numaio/internal/core"
	"numaio/internal/service"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

// kind names the layer boundary a benchmark span was recorded at.
type kind uint8

const (
	kClient       kind = iota // client request, send to last response byte
	kGateway                  // numaiogw Handler()
	kForward                  // gateway round trip to a replica, to body close
	kService                  // numaiod Handler()
	kCharacterize             // the Config.Characterize wrapper
	kReduce                   // the benchmark folding the program's sweep spans
	nKinds
)

var kindNames = [nKinds]string{"client", "gateway", "forward", "service", "characterize", "trace-reduce"}

type span struct {
	rid        string
	kind       kind
	start, end time.Duration // since the tracer's epoch
}

// sweepCall is one characterization's program spans, folded into layer
// self times as soon as it returns so the traced run's memory stays flat.
type sweepCall struct {
	rid               string
	sweep, cell, flow time.Duration // self time summed over worker tracks
	union             time.Duration // wall time covered by any sweep span
	busy              time.Duration // sweep span durations summed over tracks
}

// tracer records the benchmark's own spans around each layer's entry
// point: handler wrappers, a timing RoundTripper in the gateway's client,
// and a wrapper of service.Config.Characterize that hands the program a
// telemetry tracer for its existing sweep spans. Spans of one operation
// share the X-Request-Id the clients send; nothing is recorded unless on.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	calls atomic.Int64 // characterizations while on

	mu     sync.Mutex
	spans  []span
	sweeps []sweepCall
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setOn starts or stops recording; a nil tracer ignores it.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) at(tm time.Time) time.Duration { return tm.Sub(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type ridKey struct{}

// handler wraps a daemon's handler with a span per v1 request; a nil
// tracer returns h itself.
func (t *tracer) handler(k kind, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if !t.on.Load() || rid == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ridKey{}, rid)))
		t.add(span{rid: rid, kind: k, start: t.at(start), end: t.at(time.Now())})
	})
}

// transport times the gateway's forwards from request to response-body
// close; a nil tracer returns next itself.
func (t *tracer) transport(next http.RoundTripper) http.RoundTripper {
	if t == nil {
		return next
	}
	return roundTripper{t: t, next: next}
}

type roundTripper struct {
	t    *tracer
	next http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	rid := req.Header.Get("X-Request-Id")
	if !rt.t.on.Load() || rid == "" {
		return rt.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		rt.t.add(span{rid: rid, kind: kForward, start: rt.t.at(start), end: rt.t.at(time.Now())})
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: rt.t, rid: rid, start: start}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	t     *tracer
	rid   string
	start time.Time
	once  sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.t.add(span{rid: b.rid, kind: kForward, start: b.t.at(b.start), end: b.t.at(time.Now())})
	})
	return err
}

// characterize is the daemon's Characterize hook in traced runs: it calls
// service.DefaultCharacterize with a fresh telemetry tracer in
// core.Config.Tracer and folds the program's spans afterwards, under a
// span of its own so the folding is not charged to the daemon.
func (t *tracer) characterize(ctx context.Context, m *topology.Machine, cfg core.Config) (*core.MachineModel, error) {
	rid, _ := ctx.Value(ridKey{}).(string)
	if !t.on.Load() || rid == "" {
		return service.DefaultCharacterize(ctx, m, cfg)
	}
	t.calls.Add(1)
	prog := telemetry.NewTracer()
	cfg.Tracer = prog
	start := time.Now()
	mm, err := service.DefaultCharacterize(ctx, m, cfg)
	end := time.Now()
	call := foldSweep(prog.Events())
	call.rid = rid
	folded := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans,
		span{rid: rid, kind: kCharacterize, start: t.at(start), end: t.at(end)},
		span{rid: rid, kind: kReduce, start: t.at(end), end: t.at(folded)})
	t.sweeps = append(t.sweeps, call)
	t.mu.Unlock()
	return mm, err
}

// foldSweep derives self times from one characterization's complete
// spans. Spans nest per worker track, so each span's direct children are
// found with a stack; a span's self time is its duration minus theirs.
// Categories map to layers: characterize and classify spans are the core
// sweep, measure spans the fio cell, and fluid-run spans with their
// fluid-phase children the simhost run.
func foldSweep(events []telemetry.Event) sweepCall {
	var out sweepCall
	tracks := make(map[int][]telemetry.Event)
	var sweeps [][2]time.Duration
	for _, e := range events {
		if e.Phase != 'X' {
			continue
		}
		tracks[e.TID] = append(tracks[e.TID], e)
		if e.Cat == "characterize" {
			sweeps = append(sweeps, [2]time.Duration{e.Start, e.Start + e.Dur})
			out.busy += e.Dur
		}
	}
	for _, evs := range tracks {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].Dur > evs[j].Dur
		})
		self := make([]time.Duration, len(evs))
		var stack []int
		for i, e := range evs {
			self[i] = e.Dur
			for len(stack) > 0 {
				p := evs[stack[len(stack)-1]]
				if p.Start+p.Dur > e.Start {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				end := e.Start + e.Dur
				if pend := evs[p].Start + evs[p].Dur; end > pend {
					end = pend
				}
				self[p] -= end - e.Start
			}
			stack = append(stack, i)
		}
		for i, e := range evs {
			switch e.Cat {
			case "characterize", "classify":
				out.sweep += self[i]
			case "measure":
				out.cell += self[i]
			case "fluid":
				out.flow += self[i]
			}
		}
	}
	out.union = unionLen(sweeps)
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curStart, curEnd time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = x[0], x[1], true
		} else if x[1] > curEnd {
			curEnd = x[1]
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// layerTimes are per-operation means over the traced window's operations.
// Self times partition the client span: each layer's span minus the child
// span it encloses. The sweep layers run on parallel worker tracks, so
// besides their thread time they get a share of the sweeps' wall time in
// proportion to it.
type layerTimes struct {
	ops                           int
	client, clientSelf            time.Duration
	gw, gwSelf, fwdSelf           time.Duration
	svc, svcSelf                  time.Duration
	charSpan, charSelf, reduce    time.Duration
	sweep, cell, flow             time.Duration
	sweepWall, cellWall, flowWall time.Duration
}

// layers joins the spans by request ID and averages each layer's self
// time over the operations that have a client span.
func (t *tracer) layers() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	byRID := make(map[string]*[nKinds]time.Duration)
	for _, s := range t.spans {
		d := byRID[s.rid]
		if d == nil {
			d = new([nKinds]time.Duration)
			byRID[s.rid] = d
		}
		d[s.kind] += s.end - s.start
	}
	sweepByRID := make(map[string]sweepCall, len(t.sweeps))
	for _, c := range t.sweeps {
		sweepByRID[c.rid] = c
	}
	var lt layerTimes
	for rid, d := range byRID {
		if d[kClient] == 0 {
			continue
		}
		lt.ops++
		lt.client += d[kClient]
		if d[kGateway] > 0 {
			lt.clientSelf += d[kClient] - d[kGateway]
			lt.gw += d[kGateway]
			lt.gwSelf += d[kGateway] - d[kForward]
			lt.fwdSelf += d[kForward] - d[kService]
		} else {
			lt.clientSelf += d[kClient] - d[kService]
		}
		lt.svc += d[kService]
		lt.svcSelf += d[kService] - d[kCharacterize] - d[kReduce]
		lt.charSpan += d[kCharacterize]
		lt.reduce += d[kReduce]
		c, ok := sweepByRID[rid]
		if !ok || c.busy == 0 {
			continue
		}
		lt.charSelf += d[kCharacterize] - c.union
		lt.sweep += c.sweep
		lt.cell += c.cell
		lt.flow += c.flow
		share := float64(c.union) / float64(c.busy)
		lt.sweepWall += time.Duration(float64(c.sweep) * share)
		lt.cellWall += time.Duration(float64(c.cell) * share)
		lt.flowWall += time.Duration(float64(c.flow) * share)
	}
	if lt.ops == 0 {
		return lt
	}
	n := time.Duration(lt.ops)
	for _, p := range []*time.Duration{
		&lt.client, &lt.clientSelf, &lt.gw, &lt.gwSelf, &lt.fwdSelf, &lt.svc, &lt.svcSelf,
		&lt.charSpan, &lt.charSelf, &lt.reduce, &lt.sweep, &lt.cell, &lt.flow,
		&lt.sweepWall, &lt.cellWall, &lt.flowWall,
	} {
		*p /= n
	}
	return lt
}

// writeJSON writes the benchmark's spans as Chrome trace-event JSON, one
// track per layer.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// A bufio.Writer keeps its first write error and returns it from
	// Flush, so only Flush is checked.
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteString(",\n")
		}
		b, err := json.Marshal(map[string]any{
			"name": kindNames[s.kind], "ph": "X", "pid": 1, "tid": int(s.kind),
			"ts": float64(s.start) / 1e3, "dur": float64(s.end-s.start) / 1e3,
			"args": map[string]string{"request_id": s.rid},
		})
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
