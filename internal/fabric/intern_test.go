package fabric

import (
	"fmt"
	"strconv"
	"testing"

	"numaio/internal/topology"
	"numaio/internal/units"
)

// internMachines are the reference topologies a reused solver must solve
// exactly like a fresh one (same set reuse_test.go's contract covers for
// RunFluid).
var internMachines = []string{"dl585g7", "magny-a", "intel-4s4n"}

// machineWorkload builds a contended copy workload over a machine: four
// flows from every node into the highest node, with per-node core budgets
// so demand- and resource-frozen flows both occur.
func machineWorkload(t *testing.T, name string) ([]Resource, []Flow) {
	t.Helper()
	m, err := topology.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	resources := MachineResources(m)
	for _, n := range m.Nodes {
		resources = append(resources, Resource{
			ID:       CoreResource(n.ID),
			Capacity: units.Bandwidth(float64(n.Cores)) * units.Gbps,
		})
	}
	dst := m.Nodes[len(m.Nodes)-1].ID
	var flows []Flow
	for _, n := range m.Nodes {
		usages, err := CopyFlowUsages(m, n.ID, dst)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			f := Flow{ID: fmt.Sprintf("f%d-%d", int(n.ID), k), Usages: usages}
			if k == 3 {
				// One demand-capped flow per node exercises demand freezing.
				f.Demand = units.Bandwidth(float64(n.ID)+1) * units.Gbps / 4
			}
			flows = append(flows, f)
		}
	}
	return resources, flows
}

// TestPooledSolverMatchesFresh: one solver kept across machines of
// different sizes, as a pooled fluid session keeps its own, and Cleared
// between them, must solve each machine exactly like a freshly constructed
// solver, so the request path can reuse solvers without changing any
// output.
func TestPooledSolverMatchesFresh(t *testing.T) {
	load := func(t *testing.T, s *Solver, name string) {
		resources, flows := machineWorkload(t, name)
		for _, r := range resources {
			mustSetResource(t, s, r)
		}
		for _, f := range flows {
			mustAddFlow(t, s, f)
		}
	}
	// Solve the last machine first, so every machine below follows
	// another's table on the reused solver.
	pooled := NewSolver()
	load(t, pooled, internMachines[len(internMachines)-1])
	if _, err := pooled.Solve(); err != nil {
		t.Fatal(err)
	}
	for _, name := range internMachines {
		t.Run(name, func(t *testing.T) {
			pooled.Clear()
			load(t, pooled, name)
			fresh := NewSolver()
			load(t, fresh, name)
			assertSameAllocation(t, name+" pooled", pooled, fresh)
		})
	}
}

// TestInternedResourceIDs: the interned constructors must spell IDs exactly
// like the historical fmt.Sprintf forms, inside and outside the interned
// range.
func TestInternedResourceIDs(t *testing.T) {
	for _, i := range []int{0, 1, 7, internedIDs - 1, internedIDs, 1000} {
		if got, want := LinkResource(i), ResourceID("link:"+strconv.Itoa(i)); got != want {
			t.Errorf("LinkResource(%d) = %q, want %q", i, got, want)
		}
		n := topology.NodeID(i)
		if got, want := MemResource(n), ResourceID("mem:"+strconv.Itoa(i)); got != want {
			t.Errorf("MemResource(%d) = %q, want %q", i, got, want)
		}
		if got, want := CoreResource(n), ResourceID("core:"+strconv.Itoa(i)); got != want {
			t.Errorf("CoreResource(%d) = %q, want %q", i, got, want)
		}
	}
	if got := DeviceResource("nic0", "tcp_send"); got != "dev:nic0:tcp_send" {
		t.Errorf("DeviceResource = %q", got)
	}
}

// TestSolverReusedAddFlowKeepsUsageOrder: after Reset, reused usage-slice
// capacity must not leak stale entries or misorder fresh usages.
func TestSolverReusedAddFlowKeepsUsageOrder(t *testing.T) {
	s := NewSolver()
	for _, id := range []ResourceID{"a", "b", "c", "d"} {
		mustSetResource(t, s, Resource{ID: id, Capacity: 10 * units.Gbps})
	}
	mustAddFlow(t, s, Flow{ID: "f", Usages: []Usage{
		{Resource: "d", Weight: 1}, {Resource: "a", Weight: 1},
		{Resource: "c", Weight: 1}, {Resource: "b", Weight: 1},
	}})
	s.Reset()
	// Fewer usages than before: the parked capacity is longer than needed.
	mustAddFlow(t, s, Flow{ID: "g", Usages: []Usage{
		{Resource: "c", Weight: 2}, {Resource: "a", Weight: 1},
	}})
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate(0).Gbps(); got != 5 {
		t.Errorf("rate = %v, want 5 (bottleneck c at weight 2)", got)
	}
	if got := a.Bottleneck(0); got != "c" {
		t.Errorf("bottleneck = %q, want c", got)
	}
}
