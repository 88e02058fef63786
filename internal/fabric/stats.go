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
// leaf-level — counted across every solver in the process, pooled or not.
var (
	statSolves      shardedCounter
	statSolveNanos  shardedCounter
	statResets      shardedCounter
	statIncremental shardedCounter
	statFull        shardedCounter
	statPoolGets    atomic.Int64
	statPoolNews    atomic.Int64
)

// Stats is a snapshot of the package-wide solver counters.
type Stats struct {
	// Solves counts successful Solve calls; SolveNanos is the wall time
	// they took in total.
	Solves     int64
	SolveNanos int64
	// Resets counts Solver.Reset calls (flow-set reuse between fluid runs).
	Resets int64
	// IncrementalSolves counts solves served from the converged allocation:
	// at least one connected component kept its stored rates (including the
	// nothing-changed fast path). FullSolves counts solves that re-leveled
	// every flow — no prior state, or a dirty frontier spanning the whole
	// graph. IncrementalSolves + FullSolves == Solves.
	IncrementalSolves int64
	FullSolves        int64
	// PoolGets counts AcquireSolver calls; PoolNews counts the ones that had
	// to construct a fresh solver. PoolGets - PoolNews is the pool hit count.
	PoolGets int64
	PoolNews int64
}

// ReadStats snapshots the solver counters.
func ReadStats() Stats {
	return Stats{
		Solves:            statSolves.Load(),
		SolveNanos:        statSolveNanos.Load(),
		Resets:            statResets.Load(),
		IncrementalSolves: statIncremental.Load(),
		FullSolves:        statFull.Load(),
		PoolGets:          statPoolGets.Load(),
		PoolNews:          statPoolNews.Load(),
	}
}

// PoolHits returns the number of AcquireSolver calls served from the pool.
func (s Stats) PoolHits() int64 { return s.PoolGets - s.PoolNews }

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
