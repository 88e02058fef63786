package service

import (
	"fmt"
	"io"

	"numaio/internal/core"
	"numaio/internal/fabric"
	"numaio/internal/telemetry"
)

// newRegistry registers every /metrics family. Families render in
// registration order, which is the historical order scrapers and the
// smoke greps depend on: request and cache series first, then the solver,
// pool, occupancy, trace and flight-recorder series.
func (s *Server) newRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	r.EndpointSeries("numaiod_requests_total",
		"Requests served, by endpoint and status.", s.pipe.Requests())
	r.HistogramSeries("numaiod_characterize_seconds",
		"Wall time of Algorithm 1 characterizations.", s.charLatency)
	r.IntGaugeFunc("numaiod_characterize_parallelism",
		"Configured measurement worker-pool width.",
		func() int64 { return int64(s.parallelism) })
	r.Register(telemetry.Series{
		Name: "numaiod_model_cache", Type: "counter", Help: "Model cache activity.",
		Collect: func(w io.Writer) {
			st := s.cache.Stats()
			fmt.Fprintf(w, "numaiod_model_cache{event=\"hit\"} %d\n", st.Hits)
			fmt.Fprintf(w, "numaiod_model_cache{event=\"miss\"} %d\n", st.Misses)
			fmt.Fprintf(w, "numaiod_model_cache{event=\"coalesced\"} %d\n", st.Coalesced)
			fmt.Fprintf(w, "numaiod_model_cache{event=\"eviction\"} %d\n", st.Evictions)
		}})
	r.IntGaugeFunc("numaiod_model_cache_entries", "Live model cache entries.",
		func() int64 { return int64(s.cache.Stats().Entries) })
	r.IntCounterFunc("numaiod_predict_cache_hits_total",
		"Predict responses served from the response cache.",
		func() int64 { return s.predictCache.Stats().Hits })
	r.IntCounterFunc("numaiod_predict_cache_misses_total",
		"Predict requests that missed the response cache.",
		func() int64 { return s.predictCache.Stats().Misses })
	r.IntGaugeFunc("numaiod_predict_cache_entries",
		"Rendered predict responses currently cached.",
		func() int64 { return int64(s.predictCache.Stats().Entries) })
	r.IntCounterFunc("numaiod_place_cache_hits_total",
		"Place responses served from the response cache.",
		func() int64 { return s.placeCache.Stats().Hits })
	r.IntCounterFunc("numaiod_place_cache_misses_total",
		"Place requests that missed the response cache.",
		func() int64 { return s.placeCache.Stats().Misses })
	r.IntGaugeFunc("numaiod_place_cache_entries",
		"Rendered place responses currently cached.",
		func() int64 { return int64(s.placeCache.Stats().Entries) })
	r.IntGaugeFunc("numaiod_inflight_jobs",
		"Characterizations currently holding a worker slot.", s.pool.InFlight)
	r.CounterSeries("numaiod_characterize_retries_total",
		"Characterization attempts retried after a failure.", &s.charRetries)
	r.CounterSeries("numaiod_stale_served_total",
		"Responses served from an expired cache entry after a failed recomputation.", &s.staleServed)
	r.IntGaugeFunc("numaiod_stale_models", "Expired models retained as stale fallbacks.",
		func() int64 { return int64(s.cache.Stats().Stale) })
	r.IntGaugeFunc("numaiod_breaker_open", "Characterization circuit breakers currently open.",
		func() int64 { return int64(s.openBreakers()) })

	r.IntCounterFunc("numaiod_solver_solves_total",
		"Successful fabric solver passes (water-filling allocations).",
		func() int64 { return fabric.ReadStats().Solves })
	r.FloatCounterFunc("numaiod_solver_solve_seconds_total",
		"Total wall time spent in fabric solver passes.",
		func() float64 { return float64(fabric.ReadStats().SolveNanos) / 1e9 })
	r.IntCounterFunc("numaiod_solver_resets_total",
		"Solver flow-set resets (fluid-session reuse between runs).",
		func() int64 { return fabric.ReadStats().Resets })
	r.IntCounterFunc("numaiod_solver_incremental_total",
		"Solver passes served from converged state (dirty components only).",
		func() int64 { return fabric.ReadStats().IncrementalSolves })
	r.IntCounterFunc("numaiod_solver_full_total",
		"Solver passes that re-leveled every flow from scratch.",
		func() int64 { return fabric.ReadStats().FullSolves })
	r.IntCounterFunc("numaiod_solver_pool_hits_total",
		"AcquireSolver calls served from the solver pool.",
		func() int64 { return fabric.ReadStats().PoolHits() })
	r.IntCounterFunc("numaiod_solver_pool_misses_total",
		"AcquireSolver calls that constructed a fresh solver.",
		func() int64 { return fabric.ReadStats().PoolNews })
	r.CounterSeries("numaiod_models_installed_total",
		"Models installed by the fleet replication hooks (push or pull).", &s.installs)
	r.IntGaugeFunc("numaiod_measure_workers_busy",
		"Measurement workers currently executing a characterization cell.",
		core.ActiveMeasureWorkers)
	s.pipe.RegisterSeries(r,
		"v1 request latency, with the last request ID per bucket as an OpenMetrics-style exemplar.")
	return r
}
