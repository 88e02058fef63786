package telemetry

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
}

func TestIntCounterVec(t *testing.T) {
	v := NewIntCounterVec()
	v.With(200).Add(3)
	v.With(404).Inc()
	v.With(200).Inc()
	if got := v.Value(200); got != 4 {
		t.Errorf("Value(200) = %d, want 4", got)
	}
	if got := v.Value(500); got != 0 {
		t.Errorf("Value(500) = %d, want 0", got)
	}
	keys := v.Keys()
	if len(keys) != 2 || keys[0] != 200 || keys[1] != 404 {
		t.Errorf("Keys = %v", keys)
	}
}

func TestBucketHistogram(t *testing.T) {
	h := NewBucketHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	counts := h.Counts()
	// 0.05 and 0.1 land in le=0.1 (SearchFloat64s returns the first bound
	// >= v, matching the old "s <= le" loop); 0.5 in le=1; 5 in le=10; 100
	// overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
	if h.Total() != 5 {
		t.Errorf("total = %d", h.Total())
	}
	if diff := math.Abs(h.Sum() - 105.65); diff > 1e-9 {
		t.Errorf("sum = %g, want 105.65", h.Sum())
	}
}

func TestRegistryRendersInOrder(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(5)
	r.CounterSeries("demo_total", "A demo counter.", &c)
	r.IntGaugeFunc("demo_gauge", "A demo gauge.", func() int64 { return 2 })
	r.IntCounterFunc("demo_func_total", "A derived counter.", func() int64 { return 9 })
	r.FloatCounterFunc("demo_seconds_total", "A float counter.", func() float64 { return 0.25 })

	var buf bytes.Buffer
	r.Render(&buf)
	want := "# HELP demo_total A demo counter.\n" +
		"# TYPE demo_total counter\n" +
		"demo_total 5\n" +
		"# HELP demo_gauge A demo gauge.\n" +
		"# TYPE demo_gauge gauge\n" +
		"demo_gauge 2\n" +
		"# HELP demo_func_total A derived counter.\n" +
		"# TYPE demo_func_total counter\n" +
		"demo_func_total 9\n" +
		"# HELP demo_seconds_total A float counter.\n" +
		"# TYPE demo_seconds_total counter\n" +
		"demo_seconds_total 0.25\n"
	if buf.String() != want {
		t.Errorf("render mismatch:\n got: %q\nwant: %q", buf.String(), want)
	}
}

// TestMetricsConcurrent hammers every primitive from 32 goroutines; run
// under the -race CI leg it proves the sharded/atomic paths are clean,
// and the final totals prove no increment was lost.
func TestMetricsConcurrent(t *testing.T) {
	const workers, per = 32, 1000
	var c Counter
	vec := NewIntCounterVec()
	hist := NewBucketHistogram([]float64{1, 2, 4})
	reg := NewRegistry()
	reg.CounterSeries("stress_total", "stress", &c)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				vec.With(200 + w%3).Inc()
				hist.Observe(float64(i % 5))
				if i%100 == 0 {
					var buf bytes.Buffer
					reg.Render(&buf) // render concurrently with updates
					_ = c.Value()
					_ = vec.Keys()
					_ = hist.Counts()
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	var vecTotal int64
	for _, k := range vec.Keys() {
		vecTotal += vec.Value(k)
	}
	if vecTotal != workers*per {
		t.Errorf("vec total = %d, want %d", vecTotal, workers*per)
	}
	if hist.Total() != workers*per {
		t.Errorf("hist total = %d, want %d", hist.Total(), workers*per)
	}
	var histSum int64
	for _, n := range hist.Counts() {
		histSum += n
	}
	if histSum != workers*per {
		t.Errorf("hist bucket sum = %d, want %d", histSum, workers*per)
	}
	// Each goroutine observed i%5 over per iterations: per/5 full cycles
	// of 0+1+2+3+4.
	wantSum := float64(workers) * float64(per/5) * (0 + 1 + 2 + 3 + 4)
	if math.Abs(hist.Sum()-wantSum) > 1e-6 {
		t.Errorf("hist sum = %g, want %g", hist.Sum(), wantSum)
	}
}
