package fabric

import (
	"time"

	"numaio/internal/telemetry"
)

// Package-wide solver statistics, exported to numaiod's /metrics and
// counted across every solver in the process. They sit on every solve, and
// the sweeps fan out over several workers, so each is a sharded
// telemetry.Counter rather than one contended atomic.
var (
	statSolves     telemetry.Counter
	statSolveNanos telemetry.Counter
	statResets     telemetry.Counter
)

// Stats is a snapshot of the package-wide solver counters.
type Stats struct {
	// Solves counts successful Solve calls; SolveNanos is the wall time
	// they took in total.
	Solves     int64
	SolveNanos int64
	// Resets counts Solver.Reset calls (flow-set reuse between fluid runs).
	Resets int64
	// IncrementalSolves is always 0: every Solve re-levels every flow. It
	// stays because perfbench still reads it.
	IncrementalSolves int64
}

// ReadStats snapshots the solver counters.
func ReadStats() Stats {
	return Stats{
		Solves:     statSolves.Value(),
		SolveNanos: statSolveNanos.Value(),
		Resets:     statResets.Value(),
	}
}

// timedSolve wraps the core water-filling pass with the stats counters.
func (s *Solver) timedSolve() error {
	start := time.Now()
	err := s.solve()
	statSolveNanos.Add(time.Since(start).Nanoseconds())
	if err == nil {
		statSolves.Inc()
	}
	return err
}
