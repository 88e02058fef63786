//go:build !race

// The race detector makes sync.Pool drop a random share of its items, so
// the pooled fluid sessions behind RunAggregate are rebuilt and allocation
// counts mean nothing there.

package fio

import (
	"context"
	"testing"

	"numaio/internal/device"
	"numaio/internal/numa"
	"numaio/internal/topology"
)

// TestRunAggregateZeroAlloc: a warm measurement cell on a plain runner —
// no knob set — stays off the allocator, with transfer IDs out of
// instance order.
func TestRunAggregateZeroAlloc(t *testing.T) {
	sys, err := numa.NewSystem(topology.DL585G7())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sys)
	jobs := []Job{{Name: "cell", Engine: device.EngineMemcpy, Node: 7, NumJobs: 12,
		SrcNode: nid(0), DstNode: nid(7)}}
	ctx := context.Background()
	if _, err := r.RunAggregate(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.RunAggregate(ctx, jobs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm RunAggregate: %v allocs/op, want 0", allocs)
	}
}
