package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestBucketIndexMonotone: the log-linear mapping must be monotone and
// contiguous, and every value must fall at or below its bucket's upper
// edge.
func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<14; v++ {
		i := bucketIndex(v)
		if i != prev && i != prev+1 {
			t.Fatalf("bucketIndex(%d) = %d jumps from %d", v, i, prev)
		}
		prev = i
		if up := bucketUpper(i); v > up {
			t.Fatalf("value %d above its bucket %d upper edge %d", v, i, up)
		}
	}
	// Spot-check large magnitudes (seconds to minutes in nanoseconds).
	for _, v := range []int64{1e6, 1e9, 6e10, 36e11} {
		i := bucketIndex(v)
		up := bucketUpper(i)
		if v > up {
			t.Errorf("value %d above bucket upper %d", v, up)
		}
		// Log-linear relative error bound: the bucket spans < 2/subCount of
		// the value.
		if lo := bucketUpper(i - 1); float64(up-lo) > float64(v)*2/subCount {
			t.Errorf("bucket span %d too wide for value %d", up-lo, v)
		}
	}
}

// TestHistogramQuantiles: quantiles of a known uniform distribution land
// within the histogram's resolution of the exact order statistics.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = rng.Int63n(int64(10 * time.Millisecond))
		h.Record(time.Duration(vals[i]))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != time.Duration(vals[len(vals)-1]) {
		t.Errorf("max = %v, want %v", h.Max(), time.Duration(vals[len(vals)-1]))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := float64(vals[int(q*float64(len(vals)))])
		got := float64(h.Quantile(q))
		if got < exact*(1-4.0/subCount) || got > exact*(1+4.0/subCount) {
			t.Errorf("q%.2f = %v, exact %v: outside resolution bound", q, got, exact)
		}
	}
}

// TestHistogramMerge: merging per-worker histograms equals recording
// everything into one.
func TestHistogramMerge(t *testing.T) {
	whole, a, b := NewHistogram(), NewHistogram(), NewHistogram()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(int64(time.Second)))
		whole.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(b)
	if a.Count() != whole.Count() || a.Max() != whole.Max() || a.sum != whole.sum {
		t.Fatalf("merge mismatch: count %d/%d max %v/%v", a.Count(), whole.Count(), a.Max(), whole.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q%g: merged %v != whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

// TestHistogramWriteJSON: the dump is valid JSON whose bucket counts sum
// to the recorded total, and equal histograms dump byte-identically.
func TestHistogramWriteJSON(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{0, time.Microsecond, time.Millisecond, time.Millisecond, time.Second} {
		h.Record(d)
	}
	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Count   int64 `json:"count"`
		SumNs   int64 `json:"sum_ns"`
		MaxNs   int64 `json:"max_ns"`
		Buckets []struct {
			UpperNs int64 `json:"upper_ns"`
			Count   int64 `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if dump.Count != h.Count() || dump.MaxNs != int64(h.Max()) {
		t.Errorf("dump header %+v disagrees with histogram (count %d max %d)", dump, h.Count(), h.Max())
	}
	var sum int64
	for _, b := range dump.Buckets {
		if b.Count == 0 {
			t.Errorf("dump contains empty bucket at upper_ns=%d", b.UpperNs)
		}
		sum += b.Count
	}
	if sum != dump.Count {
		t.Errorf("bucket counts sum to %d, want %d", sum, dump.Count)
	}

	var again bytes.Buffer
	if err := h.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("repeated dumps of the same histogram differ")
	}

	var empty bytes.Buffer
	if err := NewHistogram().WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(empty.Bytes(), &dump); err != nil {
		t.Fatalf("empty dump is not valid JSON: %v\n%s", err, empty.String())
	}
}
