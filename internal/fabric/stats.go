package fabric

import (
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// counterShards fixes the fan-out of the sharded counters below. 16 padded
// slots cover typical server core counts without bloating each counter past
// 1 KiB (same layout as telemetry.Counter — fabric stays leaf-level and
// cannot import it).
const counterShards = 16

// paddedInt64 occupies a full cache line so adjacent shards never
// false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// shardedCounter is a monotonically increasing counter spread over
// cache-line-padded shards. The solver counters sit on every solve — with
// CharacterizeAll fanning sweeps over a worker pool, a single atomic would
// be a contended cache line shared by all workers.
type shardedCounter struct {
	shards [counterShards]paddedInt64
}

// Add increments the counter by delta, picking a shard via the per-thread
// math/rand/v2 fast path (lock-free and allocation-free).
func (c *shardedCounter) Add(delta int64) {
	c.shards[rand.Uint64()%counterShards].v.Add(delta)
}

// Load sums the shards.
func (c *shardedCounter) Load() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

// Package-wide solver statistics, exported to numaiod's /metrics. They are
// plain (sharded) atomics — no telemetry dependency, fabric stays
// leaf-level — counted across every solver in the process.
var (
	statSolves     shardedCounter
	statSolveNanos shardedCounter
	statResets     shardedCounter
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
		Solves:     statSolves.Load(),
		SolveNanos: statSolveNanos.Load(),
		Resets:     statResets.Load(),
	}
}

// timedSolve wraps the core water-filling pass with the stats counters.
func (s *Solver) timedSolve() error {
	start := time.Now()
	err := s.solve()
	statSolveNanos.Add(time.Since(start).Nanoseconds())
	if err == nil {
		statSolves.Add(1)
	}
	return err
}
