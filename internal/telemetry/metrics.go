package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// numShards fixes the fan-out of sharded counters. 16 padded slots cover
// typical server core counts without bloating each counter past 1 KiB.
const numShards = 16

// paddedInt64 occupies a full cache line so adjacent shards never
// false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded atomic counter. Add picks
// a shard via the per-thread math/rand/v2 fast path (lock-free and
// allocation-free), spreading contended increments across cache lines;
// Value sums the shards. The zero value is ready to use.
type Counter struct {
	shards [numShards]paddedInt64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	c.shards[rand.Uint64()%numShards].v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// IntCounterVec is a family of Counters keyed by a small integer label
// (e.g. HTTP status). The hot path — With on an existing key — takes only
// a read lock and allocates nothing.
type IntCounterVec struct {
	mu sync.RWMutex
	m  map[int]*Counter
}

// NewIntCounterVec builds an empty family.
func NewIntCounterVec() *IntCounterVec {
	return &IntCounterVec{m: make(map[int]*Counter)}
}

// With returns the counter for key, creating it on first use.
func (v *IntCounterVec) With(key int) *Counter {
	v.mu.RLock()
	c, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.m[key]; ok {
		return c
	}
	c = new(Counter)
	v.m[key] = c
	return c
}

// Keys returns the registered keys in ascending order.
func (v *IntCounterVec) Keys() []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]int, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Value returns the total for key (0 if never observed).
func (v *IntCounterVec) Value(key int) int64 {
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// EndpointCounter counts requests by endpoint and status: the
// <daemon>_requests_total family. The request pipeline resolves each
// route's per-status counters when the route is registered, so counting a
// request is a read-locked status lookup plus a sharded atomic add.
type EndpointCounter struct {
	mu sync.RWMutex
	m  map[string]*IntCounterVec
}

// NewEndpointCounter builds an empty counter.
func NewEndpointCounter() *EndpointCounter {
	return &EndpointCounter{m: make(map[string]*IntCounterVec)}
}

// Endpoint returns endpoint's per-status counters, creating them on first
// use.
func (c *EndpointCounter) Endpoint(endpoint string) *IntCounterVec {
	c.mu.RLock()
	vec, ok := c.m[endpoint]
	c.mu.RUnlock()
	if ok {
		return vec
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if vec, ok = c.m[endpoint]; !ok {
		vec = NewIntCounterVec()
		c.m[endpoint] = vec
	}
	return vec
}

// Count returns the requests counted for endpoint, over all statuses.
func (c *EndpointCounter) Count(endpoint string) int64 {
	vec := c.Endpoint(endpoint)
	var total int64
	for _, s := range vec.Keys() {
		total += vec.Value(s)
	}
	return total
}

// BucketHistogram is a fixed-bounds histogram in the Prometheus style:
// explicit upper bounds plus a +Inf overflow, an observation sum and a
// total count, all updated atomically so Observe takes no lock.
type BucketHistogram struct {
	bounds    []float64
	counts    []atomic.Int64 // len(bounds)+1; last is +Inf
	exemplars []exemplar     // len(bounds)+1; latest request ID per bucket
	sum       atomic.Uint64  // float64 bits, updated by CAS
	total     atomic.Int64
}

// exemplar is one bucket's latest request ID. A string stored under a
// lock, unlike a swapped *string, costs ObserveExemplar no allocation.
type exemplar struct {
	mu sync.Mutex
	id string
}

// NewBucketHistogram builds a histogram over the given ascending upper
// bounds.
func NewBucketHistogram(bounds []float64) *BucketHistogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &BucketHistogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]exemplar, len(b)+1),
	}
}

// Observe records one value into the first bucket whose bound contains it.
func (h *BucketHistogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records v and keeps id as the bucket's latest exemplar,
// so a /metrics bucket links to a concrete request in the flight recorder
// (OpenMetrics-style). An empty id degrades to a plain Observe.
func (h *BucketHistogram) ObserveExemplar(v float64, id string) {
	if id != "" {
		ex := &h.exemplars[sort.SearchFloat64s(h.bounds, v)]
		ex.mu.Lock()
		ex.id = id
		ex.mu.Unlock()
	}
	h.Observe(v)
}

// Exemplar returns the latest exemplar ID recorded for bucket i ("" when
// none). Bucket indexing matches Counts: the final index is +Inf.
func (h *BucketHistogram) Exemplar(i int) string {
	if i < 0 || i >= len(h.exemplars) {
		return ""
	}
	ex := &h.exemplars[i]
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.id
}

// Counts returns a snapshot of per-bucket (non-cumulative) counts; the
// final element is the +Inf overflow bucket.
func (h *BucketHistogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Sum returns the sum of observed values.
func (h *BucketHistogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Total returns the number of observations.
func (h *BucketHistogram) Total() int64 { return h.total.Load() }

// Series is one named metric family the Registry renders: HELP and TYPE
// lines followed by whatever samples Collect writes.
type Series struct {
	Name    string
	Type    string // "counter", "gauge" or "histogram"
	Help    string
	Collect func(w io.Writer)
}

// Registry renders registered metric families in registration order, in
// the Prometheus text exposition format. Registration is expected at
// startup; Render may be called concurrently with metric updates.
type Registry struct {
	mu     sync.Mutex
	series []Series
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a metric family. Collect must be non-nil.
func (r *Registry) Register(s Series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series = append(r.series, s)
}

// Render renders every registered family in registration order.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	series := r.series
	r.mu.Unlock()
	for _, s := range series {
		fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help)
		fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Type)
		s.Collect(w)
	}
}

// ServeHTTP serves the rendered families: a /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.Render(w)
}

// CounterSeries registers a sharded counter as a single-sample family.
func (r *Registry) CounterSeries(name, help string, c *Counter) {
	r.Register(Series{Name: name, Type: "counter", Help: help, Collect: func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, c.Value())
	}})
}

// IntCounterFunc registers a counter family whose sample is read from fn
// at render time.
func (r *Registry) IntCounterFunc(name, help string, fn func() int64) {
	r.Register(Series{Name: name, Type: "counter", Help: help, Collect: func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, fn())
	}})
}

// IntGaugeFunc registers a gauge family whose sample is read from fn at
// render time.
func (r *Registry) IntGaugeFunc(name, help string, fn func() int64) {
	r.Register(Series{Name: name, Type: "gauge", Help: help, Collect: func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, fn())
	}})
}

// FloatCounterFunc registers a float-valued counter family (rendered %g)
// whose sample is read from fn at render time.
func (r *Registry) FloatCounterFunc(name, help string, fn func() float64) {
	r.Register(Series{Name: name, Type: "counter", Help: help, Collect: func(w io.Writer) {
		fmt.Fprintf(w, "%s %g\n", name, fn())
	}})
}

// HistogramSeries registers h as a histogram family: cumulative buckets,
// each followed by its latest request-ID exemplar when one was recorded,
// then the sum and count.
func (r *Registry) HistogramSeries(name, help string, h *BucketHistogram) {
	r.Register(Series{Name: name, Type: "histogram", Help: help, Collect: func(w io.Writer) {
		var cum int64
		for i, c := range h.Counts() {
			cum += c
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d", name, le, cum)
			if ex := h.Exemplar(i); ex != "" {
				fmt.Fprintf(w, " # {request_id=%q}", ex)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", name, h.Total())
	}})
}

// EndpointSeries registers c as a counter family labelled by endpoint and
// status, endpoints in lexical and statuses in numeric order.
func (r *Registry) EndpointSeries(name, help string, c *EndpointCounter) {
	r.Register(Series{Name: name, Type: "counter", Help: help, Collect: func(w io.Writer) {
		c.mu.RLock()
		endpoints := make([]string, 0, len(c.m))
		for e := range c.m {
			endpoints = append(endpoints, e)
		}
		c.mu.RUnlock()
		sort.Strings(endpoints)
		for _, e := range endpoints {
			vec := c.Endpoint(e)
			for _, s := range vec.Keys() {
				fmt.Fprintf(w, "%s{endpoint=%q,status=\"%d\"} %d\n", name, e, s, vec.Value(s))
			}
		}
	}})
}
