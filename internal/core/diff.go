package core

import (
	"fmt"
	"math"

	"numaio/internal/topology"
	"numaio/internal/units"
)

// NodeDiff compares one node across two models of the same target/mode.
type NodeDiff struct {
	Node         topology.NodeID
	Before       units.Bandwidth
	After        units.Bandwidth
	ClassBefore  int
	ClassAfter   int
	RelChange    float64 // (after-before)/before
	ClassChanged bool
}

// Diff compares two models node by node — the analysis behind the what-if
// workflow (re-characterize after a hardware change, see what moved).
// Both models must describe the same target, mode and node set.
func Diff(before, after *Model) ([]NodeDiff, error) {
	if before == nil || after == nil {
		return nil, fmt.Errorf("core: Diff needs two models")
	}
	if before.Target != after.Target {
		return nil, fmt.Errorf("core: Diff across targets (%d vs %d)",
			int(before.Target), int(after.Target))
	}
	if before.Mode != after.Mode {
		return nil, fmt.Errorf("core: Diff across modes (%v vs %v)", before.Mode, after.Mode)
	}
	if len(before.Samples) != len(after.Samples) {
		return nil, fmt.Errorf("core: Diff across node sets (%d vs %d samples)",
			len(before.Samples), len(after.Samples))
	}
	var out []NodeDiff
	for _, s := range before.Samples {
		afterBW, err := after.SampleOf(s.Node)
		if err != nil {
			return nil, err
		}
		cb, err := before.ClassOf(s.Node)
		if err != nil {
			return nil, err
		}
		ca, err := after.ClassOf(s.Node)
		if err != nil {
			return nil, err
		}
		d := NodeDiff{
			Node: s.Node, Before: s.Bandwidth, After: afterBW,
			ClassBefore: cb.Rank, ClassAfter: ca.Rank,
			ClassChanged: cb.Rank != ca.Rank,
		}
		if s.Bandwidth > 0 {
			d.RelChange = float64(afterBW-s.Bandwidth) / float64(s.Bandwidth)
		} else {
			d.RelChange = math.Inf(1)
		}
		out = append(out, d)
	}
	return out, nil
}
