// Package loadgen is the serving-path load harness behind cmd/numaioload:
// a concurrent closed-loop request driver whose per-worker latencies land
// in an HDR-style log-linear histogram, merged into one report of RPS and
// p50/p95/p99 latency. The histogram is allocation-free per record, so the
// harness itself does not distort the latencies it measures.
package loadgen

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"numaio/internal/telemetry"
)

// Config shapes one load run. Exactly what "one request" means is the
// caller's DoTagged closure, keeping the driver protocol-agnostic
// (cmd/numaioload wires in HTTP posts; tests use stubs).
type Config struct {
	// Concurrency is the number of closed-loop workers; <= 0 means 1.
	Concurrency int
	// Requests caps the total request count; <= 0 means no cap (Duration
	// alone stops the run).
	Requests int
	// Duration caps the wall time; <= 0 means no cap (Requests alone stops
	// the run). At least one cap must be set.
	Duration time.Duration
	// DoTagged issues one request and reports its failure. Each call
	// receives a generated request ID ("load-1", "load-2", ...) unique
	// within the run, and the driver remembers the ID as the latency
	// bucket's exemplar, so Result.SlowExemplars names concrete requests
	// from the slowest decile. Must be safe for concurrent use.
	DoTagged func(id string) error
}

// Result is the merged outcome of a load run.
type Result struct {
	Requests int64
	Errors   int64
	Duration time.Duration
	// RPS counts completed requests (successes and failures) per second of
	// wall time.
	RPS           float64
	P50, P95, P99 time.Duration
	Max           time.Duration
	// Hist is the merged latency histogram for further quantiles.
	Hist *telemetry.Histogram
	// SlowExemplars names concrete request IDs from the slowest-decile
	// latency buckets, fastest-first.
	SlowExemplars []telemetry.Exemplar
}

// Run drives DoTagged from Concurrency workers until a cap is hit and
// merges the per-worker latency histograms.
func Run(cfg Config) (*Result, error) {
	if cfg.DoTagged == nil {
		return nil, fmt.Errorf("loadgen: DoTagged is required")
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: either Requests or Duration must be set")
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 1
	}

	var quota atomic.Int64 // remaining requests; negative means unlimited
	if cfg.Requests > 0 {
		quota.Store(int64(cfg.Requests))
	} else {
		quota.Store(1 << 62)
	}
	deadline := make(chan struct{})
	var stopTimer *time.Timer
	if cfg.Duration > 0 {
		stopTimer = time.AfterFunc(cfg.Duration, func() { close(deadline) })
		defer stopTimer.Stop()
	}

	var seq atomic.Int64 // shared request-ID sequence

	type workerState struct {
		hist   *telemetry.Histogram
		errors int64
	}
	states := make([]workerState, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(st *workerState) {
			defer wg.Done()
			st.hist = telemetry.NewHistogram()
			for {
				select {
				case <-deadline:
					return
				default:
				}
				if quota.Add(-1) < 0 {
					return
				}
				id := "load-" + strconv.FormatInt(seq.Add(1), 10)
				t0 := time.Now()
				err := cfg.DoTagged(id)
				st.hist.RecordExemplar(time.Since(t0), id)
				if err != nil {
					st.errors++
				}
			}
		}(&states[w])
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := telemetry.NewHistogram()
	res := &Result{Duration: elapsed, Hist: merged}
	for i := range states {
		merged.Merge(states[i].hist)
		res.Errors += states[i].errors
	}
	res.Requests = merged.Count()
	if secs := elapsed.Seconds(); secs > 0 {
		res.RPS = float64(res.Requests) / secs
	}
	res.P50 = merged.Quantile(0.50)
	res.P95 = merged.Quantile(0.95)
	res.P99 = merged.Quantile(0.99)
	res.Max = merged.Max()
	res.SlowExemplars = merged.ExemplarsAbove(0.90)
	return res, nil
}
