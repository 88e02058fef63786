package core

import (
	"fmt"
	"math"
	"sort"

	"numaio/internal/topology"
	"numaio/internal/units"
)

// predictEntry is one node's row of the precomputed Eq. 1 lookup table:
// its class rank and the class's average bandwidth.
type predictEntry struct {
	node topology.NodeID
	rank int
	avg  units.Bandwidth
}

// predictTable returns the model's node-sorted class-rate table, building
// it on first use. Walking this table in order visits mix nodes in exactly
// the ascending-node order the per-call sort used to produce, so float
// accumulation stays byte-identical while Predict itself stops allocating.
func (m *Model) predictTable() []predictEntry {
	if t, ok := m.table.Load().([]predictEntry); ok {
		return t
	}
	var t []predictEntry
	for _, c := range m.Classes {
		for _, n := range c.Nodes {
			t = append(t, predictEntry{node: n, rank: c.Rank, avg: c.Avg})
		}
	}
	sort.Slice(t, func(i, j int) bool { return t[i].node < t[j].node })
	m.table.Store(t)
	return t
}

// Predict estimates the aggregate device bandwidth when the device is
// shared by data accesses distributed over NUMA nodes — Eq. 1 of the paper:
//
//	BW_io = Σ αᵢ · BWᵢ
//
// where αᵢ is the fraction of accesses from class i and BWᵢ the class's
// average single-class bandwidth, taken from a measured per-class I/O rate
// table (classRates) or, when classRates is nil, from the model's own
// memcpy averages.
//
// mix maps nodes to their traffic fraction; fractions must sum to 1.
func (m *Model) Predict(mix map[topology.NodeID]float64, classRates map[int]units.Bandwidth) (units.Bandwidth, error) {
	if len(mix) == 0 {
		return 0, fmt.Errorf("core: empty mix")
	}
	var total float64
	for _, f := range mix {
		if f < 0 {
			return 0, fmt.Errorf("core: negative mix fraction")
		}
		total += f
	}
	if math.Abs(total-1) > 1e-6 {
		return 0, fmt.Errorf("core: mix fractions sum to %v, want 1", total)
	}

	var bw float64
	matched := 0
	for _, e := range m.predictTable() {
		f, ok := mix[e.node]
		if !ok {
			continue
		}
		matched++
		rate := e.avg
		if classRates != nil {
			r, ok := classRates[e.rank]
			if !ok {
				return 0, fmt.Errorf("core: no measured rate for class %d", e.rank)
			}
			rate = r
		}
		bw += f * float64(rate)
	}
	if matched != len(mix) {
		// Cold error path: rescan to name the unclassified node.
		for n := range mix {
			if _, err := m.ClassOf(n); err != nil {
				return 0, err
			}
		}
	}
	return units.Bandwidth(bw), nil
}

// PredictCounts is Predict with process counts per node instead of
// fractions (the paper's worked example uses two processes on node 2 and
// two on node 0).
func (m *Model) PredictCounts(counts map[topology.NodeID]int, classRates map[int]units.Bandwidth) (units.Bandwidth, error) {
	total := 0
	for _, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("core: negative process count")
		}
		total += c
	}
	if total == 0 {
		return 0, fmt.Errorf("core: no processes")
	}
	mix := make(map[topology.NodeID]float64, len(counts))
	for n, c := range counts {
		if c > 0 {
			mix[n] = float64(c) / float64(total)
		}
	}
	return m.Predict(mix, classRates)
}

// RelativeError returns |predicted-measured|/measured, the paper's Eq. 1
// validation metric (3.1% in Sec. V-B).
func RelativeError(predicted, measured units.Bandwidth) float64 {
	if measured == 0 {
		return math.Inf(1)
	}
	return math.Abs(float64(predicted-measured)) / math.Abs(float64(measured))
}
