package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// Histogram is an HDR-style log-linear latency histogram over nanosecond
// values: each power-of-two magnitude is split into 2^subBits/2 linear
// sub-buckets, bounding the relative quantile error at ~2/2^subBits
// (≈3% at subBits = 6) across the full range with a few KiB of counters.
// Recording is O(1) and allocation-free; buckets grow lazily with the
// largest observed value. Not safe for concurrent use — give each worker
// its own and Merge.
//
// This is the single latency-histogram implementation shared by the
// numaioload driver (p50/p95/p99 report, -hist-dump) and anything else
// that needs full-range quantiles without preconfigured bounds.
type Histogram struct {
	counts []int64
	ex     []string // lazily sized; last exemplar ID per bucket
	total  int64
	sum    int64
	max    int64
}

const (
	subBits  = 6
	subCount = 1 << subBits
)

// bucketIndex maps a nanosecond value to its log-linear bucket. Values
// below subCount get exact unit buckets; above, value>>exp lands in
// [subCount/2, subCount), giving subCount/2 linear sub-buckets per octave.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - subBits
	return exp*subCount/2 + int(v>>uint(exp))
}

// bucketUpper returns the largest value mapping to bucket i — the
// conservative representative reported for quantiles in that bucket.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	exp := i/(subCount/2) - 1
	base := int64(i - exp*subCount/2)
	return base<<uint(exp) + (1 << uint(exp)) - 1
}

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, subCount)}
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	for i >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, len(h.counts))...)
	}
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// RecordExemplar records d and remembers id as the bucket's latest
// exemplar, linking the bucket back to a concrete request ID. An empty id
// degrades to a plain Record.
func (h *Histogram) RecordExemplar(d time.Duration, id string) {
	h.Record(d)
	if id == "" {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	for i >= len(h.ex) {
		if len(h.ex) == 0 {
			h.ex = make([]string, subCount)
			continue
		}
		h.ex = append(h.ex, make([]string, len(h.ex))...)
	}
	h.ex[i] = id
}

// Merge folds another histogram into this one. Exemplars from o overwrite
// this histogram's where o has one — merge order decides ties, which is
// fine for "a concrete example per bucket".
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for len(h.counts) < len(o.counts) {
		h.counts = append(h.counts, make([]int64, len(h.counts))...)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if len(o.ex) > 0 {
		for len(h.ex) < len(o.ex) {
			if len(h.ex) == 0 {
				h.ex = make([]string, subCount)
				continue
			}
			h.ex = append(h.ex, make([]string, len(h.ex))...)
		}
		for i, id := range o.ex {
			if id != "" {
				h.ex[i] = id
			}
		}
	}
	h.total += o.total
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Max returns the largest recorded observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Quantile returns the latency at quantile q in [0, 1]: the upper edge of
// the bucket containing the q-th observation, clamped to the recorded
// maximum. Zero observations yield zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := bucketUpper(i)
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Exemplar is one bucket's request-ID exemplar: the bucket's upper edge,
// its observation count, and the last recorded ID.
type Exemplar struct {
	Upper time.Duration
	Count int64
	ID    string
}

// ExemplarsAbove returns the exemplars recorded at or above the bucket
// containing quantile q, fastest-first — "name a concrete request from
// the slowest decile" is ExemplarsAbove(0.9). Buckets without a recorded
// ID are skipped.
func (h *Histogram) ExemplarsAbove(q float64) []Exemplar {
	if h.total == 0 || len(h.ex) == 0 {
		return nil
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	start := len(h.counts) - 1
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			start = i
			break
		}
	}
	var out []Exemplar
	for i := start; i < len(h.counts) && i < len(h.ex); i++ {
		if h.counts[i] == 0 || h.ex[i] == "" {
			continue
		}
		out = append(out, Exemplar{
			Upper: time.Duration(bucketUpper(i)),
			Count: h.counts[i],
			ID:    h.ex[i],
		})
	}
	return out
}

// WriteJSON dumps the raw histogram as JSON: total count, nanosecond sum
// and max, and every non-empty bucket with its upper edge. The encoding
// is hand-rolled (ordered, no reflection) so dumps of equal histograms
// are byte-identical.
func (h *Histogram) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n  \"count\": %d,\n  \"sum_ns\": %d,\n  \"max_ns\": %d,\n  \"buckets\": [",
		h.total, h.sum, h.max)
	first := true
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		fmt.Fprintf(bw, "\n    {\"upper_ns\": %d, \"count\": %d}", bucketUpper(i), c)
	}
	if !first {
		fmt.Fprint(bw, "\n  ")
	}
	fmt.Fprint(bw, "]\n}\n")
	return bw.Flush()
}
