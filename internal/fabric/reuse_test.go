package fabric

import (
	"fmt"
	"math"
	"testing"

	"numaio/internal/units"
)

// TestSolverResetKeepsResources: after Reset the flow set is empty but the
// resources survive, and a fresh round over the same fabric solves cleanly.
func TestSolverResetKeepsResources(t *testing.T) {
	s := NewSolver()
	mustSetResource(t, s, Resource{ID: "l", Capacity: 30 * units.Gbps})
	mustAddFlow(t, s, Flow{ID: "f0", Usages: []Usage{{Resource: "l", Weight: 1}}})
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if got := s.NumFlows(); got != 0 {
		t.Fatalf("flows after Reset = %d, want 0", got)
	}
	if _, ok := s.Resource("l"); !ok {
		t.Fatal("resource lost across Reset")
	}
	mustAddFlow(t, s, Flow{ID: "f0", Usages: []Usage{{Resource: "l", Weight: 1}}})
	mustAddFlow(t, s, Flow{ID: "f1", Usages: []Usage{{Resource: "l", Weight: 1}}})
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumFlows(); i++ {
		if got := a.Rate(i).Gbps(); math.Abs(got-15) > 1e-6 {
			t.Errorf("rate[%s] = %v, want 15", a.FlowID(i), got)
		}
	}
}

// TestSolverRemoveFlowAt: removing a flow by index frees its share and
// shifts the later flows down one index.
func TestSolverRemoveFlowAt(t *testing.T) {
	s := NewSolver()
	mustSetResource(t, s, Resource{ID: "l", Capacity: 30 * units.Gbps})
	for i := 0; i < 3; i++ {
		mustAddFlow(t, s, Flow{ID: fmt.Sprintf("f%d", i),
			Usages: []Usage{{Resource: "l", Weight: 1}}})
	}
	s.RemoveFlowAt(1)
	if got := s.NumFlows(); got != 2 {
		t.Fatalf("flows = %d, want 2", got)
	}
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"f0", "f2"} {
		if a.FlowID(i) != id {
			t.Errorf("flow %d = %q, want %q", i, a.FlowID(i), id)
		}
		if got := a.Rate(i).Gbps(); math.Abs(got-15) > 1e-6 {
			t.Errorf("rate[%s] = %v, want 15", id, got)
		}
	}
	// A re-added flow takes the next index.
	mustAddFlow(t, s, Flow{ID: "f1", Usages: []Usage{{Resource: "l", Weight: 1}}})
	a, err = s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFlows() != 3 || a.FlowID(2) != "f1" {
		t.Fatalf("after re-add: %d flows, flow 2 = %q; want 3, f1", a.NumFlows(), a.FlowID(2))
	}
	if got := a.Rate(2).Gbps(); math.Abs(got-10) > 1e-6 {
		t.Errorf("rate[f1] = %v, want 10", got)
	}
}

// TestSolverReuseMatchesFresh: a reused solver (shrinking flow set via
// RemoveFlowAt) must produce exactly the allocation a freshly built solver
// produces for the same flow subset — this is the contract RunFluid's
// fast path depends on.
func TestSolverReuseMatchesFresh(t *testing.T) {
	res := []Resource{
		{ID: "a", Capacity: 20 * units.Gbps},
		{ID: "b", Capacity: 35 * units.Gbps},
		{ID: "c", Capacity: 50 * units.Gbps},
	}
	flows := []Flow{
		{ID: "f0", Usages: []Usage{{Resource: "a", Weight: 1}, {Resource: "c", Weight: 1}}},
		{ID: "f1", Usages: []Usage{{Resource: "a", Weight: 1}, {Resource: "b", Weight: 1}}},
		{ID: "f2", Demand: 4 * units.Gbps, Usages: []Usage{{Resource: "b", Weight: 2}}},
		{ID: "f3", Usages: []Usage{{Resource: "b", Weight: 1}, {Resource: "c", Weight: 1}}},
		{ID: "f4", Usages: []Usage{{Resource: "c", Weight: 1}}},
	}
	build := func(fs []Flow) *Solver {
		s := NewSolver()
		for _, r := range res {
			mustSetResource(t, s, r)
		}
		for _, f := range fs {
			mustAddFlow(t, s, f)
		}
		return s
	}

	reused := build(flows)
	// Remove flows one at a time; after each removal the reused solver must
	// match a solver built from scratch with the surviving flows.
	live := append([]Flow(nil), flows...)
	for len(live) > 0 {
		assertSameAllocation(t, fmt.Sprintf("live=%d", len(live)), reused, build(live))
		// Drop the middle survivor to exercise non-edge splices.
		victim := len(live) / 2
		reused.RemoveFlowAt(victim)
		live = append(live[:victim], live[victim+1:]...)
	}
}

// TestSolverSetResourceReplaces: re-registering a resource updates its
// capacity in place without duplicating it.
func TestSolverSetResourceReplaces(t *testing.T) {
	s := NewSolver()
	mustSetResource(t, s, Resource{ID: "l", Capacity: 10 * units.Gbps})
	mustAddFlow(t, s, Flow{ID: "f", Usages: []Usage{{Resource: "l", Weight: 1}}})
	mustSetResource(t, s, Resource{ID: "l", Capacity: 40 * units.Gbps})
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate(0).Gbps(); math.Abs(got-40) > 1e-6 {
		t.Errorf("rate = %v, want 40 after capacity update", got)
	}
}
