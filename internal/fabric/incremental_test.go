package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"numaio/internal/topology"
	"numaio/internal/units"
)

// assertSameAllocation compares two solved solvers bit for bit: rates,
// bottlenecks and per-resource utilization. Both solvers must hold the same
// flows (same dense order) over the same resources (same registration
// order).
func assertSameAllocation(t *testing.T, label string, inc, fresh *Solver) {
	t.Helper()
	ia, err := inc.Solve()
	if err != nil {
		t.Fatalf("%s: reused solve: %v", label, err)
	}
	fa, err := fresh.Solve()
	if err != nil {
		t.Fatalf("%s: fresh solve: %v", label, err)
	}
	if ia.numFlows() != fa.numFlows() {
		t.Fatalf("%s: flow count %d != %d", label, ia.numFlows(), fa.numFlows())
	}
	for i := 0; i < ia.numFlows(); i++ {
		if ia.flowID(i) != fa.flowID(i) {
			t.Fatalf("%s: flow %d ID %q != %q", label, i, ia.flowID(i), fa.flowID(i))
		}
		ir, fr := float64(ia.Rate(i)), float64(fa.Rate(i))
		if math.Float64bits(ir) != math.Float64bits(fr) {
			t.Fatalf("%s: flow %q rate %v (bits %x) != fresh %v (bits %x)",
				label, ia.flowID(i), ir, math.Float64bits(ir), fr, math.Float64bits(fr))
		}
		if ia.Bottleneck(i) != fa.Bottleneck(i) {
			t.Fatalf("%s: flow %q bottleneck %q != fresh %q",
				label, ia.flowID(i), ia.Bottleneck(i), fa.Bottleneck(i))
		}
	}
	if ia.NumResources() != fa.NumResources() {
		t.Fatalf("%s: resource count %d != %d", label, ia.NumResources(), fa.NumResources())
	}
	for ri := 0; ri < ia.NumResources(); ri++ {
		iu, fu := ia.Utilization(ri), fa.Utilization(ri)
		if math.Float64bits(iu) != math.Float64bits(fu) {
			t.Fatalf("%s: resource %q utilization %v != fresh %v",
				label, ia.ResourceID(ri), iu, fu)
		}
	}
}

// incrementalHarness drives one reused solver through add, remove, retune
// and rebuild steps alongside a shadow flow list, building a fresh
// reference solver on demand.
type incrementalHarness struct {
	resources []Resource // current capacities, registration order
	inc       *Solver
	flows     []Flow // shadow of the reused solver's dense order
	nextID    int
}

func newIncrementalHarness(t testing.TB, resources []Resource) *incrementalHarness {
	t.Helper()
	h := &incrementalHarness{resources: append([]Resource(nil), resources...)}
	h.inc = NewSolver()
	for _, r := range h.resources {
		if err := h.inc.SetResource(r); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *incrementalHarness) fresh(t testing.TB) *Solver {
	t.Helper()
	s := NewSolver()
	for _, r := range h.resources {
		if err := s.SetResource(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range h.flows {
		if err := s.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func (h *incrementalHarness) add(t testing.TB, f Flow) {
	t.Helper()
	f.ID = fmt.Sprintf("f%d", h.nextID)
	h.nextID++
	if err := h.inc.AddFlow(f); err != nil {
		t.Fatal(err)
	}
	h.flows = append(h.flows, f)
}

func (h *incrementalHarness) removeAt(i int) {
	h.inc.RemoveFlowsAt([]int32{int32(i)})
	h.flows = append(h.flows[:i], h.flows[i+1:]...)
}

// removeBatch drops the flows at the given ascending unique indices via the
// solver's one-pass compaction, mirroring it on the shadow list.
func (h *incrementalHarness) removeBatch(idx []int32) {
	h.inc.RemoveFlowsAt(idx)
	w, di := 0, 0
	for r := range h.flows {
		if di < len(idx) && int(idx[di]) == r {
			di++
			continue
		}
		h.flows[w] = h.flows[r]
		w++
	}
	h.flows = h.flows[:w]
}

// rebuildCycle drops every flow with Reset and re-adds the same flows in
// order — the prologue of every fluid run on a session's solver. The shadow
// list is unchanged, so the next comparison checks that a table rebuilt on
// a solver with history solves bit-identically to a fresh build.
func (h *incrementalHarness) rebuildCycle(t testing.TB) {
	t.Helper()
	h.inc.Reset()
	for _, f := range h.flows {
		if err := h.inc.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
}

func (h *incrementalHarness) scaleResource(t testing.TB, ri int, factor float64) {
	t.Helper()
	h.resources[ri].Capacity = units.Bandwidth(float64(h.resources[ri].Capacity) * factor)
	if err := h.inc.SetResource(h.resources[ri]); err != nil {
		t.Fatal(err)
	}
}

// propertyMachines are the topologies the reused == fresh bit-identity
// property is pinned on (the same set the parallel-characterization and
// interning tests use).
func propertyMachines() map[string]*topology.Machine {
	return map[string]*topology.Machine{
		"dl585g7":    topology.DL585G7(),
		"magny-a":    topology.MagnyCours4P(topology.VariantA),
		"intel-4s4n": topology.Intel4S4N(),
	}
}

// TestIncrementalMatchesFreshRandomOps: a reused solver equals a fresh one.
// After every step of a long randomized add/remove/retune/solve sequence on
// each reference machine, its rates, bottlenecks and utilization match a
// solver rebuilt from scratch bit for bit.
func TestIncrementalMatchesFreshRandomOps(t *testing.T) {
	for name, m := range propertyMachines() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			nodes := m.NodeIDs()
			h := newIncrementalHarness(t, MachineResources(m))
			copyFlow := func() Flow {
				src := nodes[rng.Intn(len(nodes))]
				dst := nodes[rng.Intn(len(nodes))]
				usages, err := CopyFlowUsages(m, src, dst)
				if err != nil {
					t.Fatal(err)
				}
				f := Flow{Usages: usages}
				if rng.Intn(4) == 0 {
					f.Demand = units.Bandwidth(1+rng.Float64()*20) * units.Gbps
				}
				return f
			}
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(12); {
				case op < 4 || len(h.flows) == 0: // add
					h.add(t, copyFlow())
				case op < 6: // remove one
					h.removeAt(rng.Intn(len(h.flows)))
				case op < 7: // batch remove a random ascending subset
					pick := map[int]bool{}
					for j := 1 + rng.Intn(3); j > 0; j-- {
						pick[rng.Intn(len(h.flows))] = true
					}
					var idx []int32
					for i := range h.flows {
						if pick[i] {
							idx = append(idx, int32(i))
						}
					}
					h.removeBatch(idx)
				case op < 8: // retune one resource's capacity
					ri := rng.Intn(len(h.resources))
					factors := []float64{0.5, 0.8, 1.25, 2}
					h.scaleResource(t, ri, factors[rng.Intn(len(factors))])
				case op < 9: // Reset, then re-add every flow in order
					h.rebuildCycle(t)
				default: // solve and compare against a fresh build
					assertSameAllocation(t, fmt.Sprintf("%s step %d", name, step), h.inc, h.fresh(t))
				}
			}
			assertSameAllocation(t, name+" final", h.inc, h.fresh(t))
		})
	}
}

// TestIncrementalPhaseRemovalMatchesFresh: a reused solver equals a fresh
// one along the fluid executor's pattern — build a full flow set, then
// repeatedly solve and remove a few flows, checking bit-identity against a
// from-scratch solver at every phase boundary.
func TestIncrementalPhaseRemovalMatchesFresh(t *testing.T) {
	for name, m := range propertyMachines() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			nodes := m.NodeIDs()
			h := newIncrementalHarness(t, MachineResources(m))
			for _, n := range nodes {
				for k := 0; k < 4; k++ {
					usages, err := CopyFlowUsages(m, n, nodes[len(nodes)-1])
					if err != nil {
						t.Fatal(err)
					}
					h.add(t, Flow{Usages: usages})
				}
			}
			phase := 0
			for len(h.flows) > 0 {
				assertSameAllocation(t, fmt.Sprintf("%s phase %d", name, phase), h.inc, h.fresh(t))
				for drop := 1 + rng.Intn(3); drop > 0 && len(h.flows) > 0; drop-- {
					h.removeAt(rng.Intn(len(h.flows)))
				}
				phase++
			}
		})
	}
}

// TestIncrementalSteadyStateZeroAlloc: once grown, a reused solver's
// add/remove/solve cycle of a steady-state fluid run allocates nothing.
func TestIncrementalSteadyStateZeroAlloc(t *testing.T) {
	m := topology.DL585G7()
	resources := MachineResources(m)
	s := NewSolver()
	for _, r := range resources {
		if err := s.SetResource(r); err != nil {
			t.Fatal(err)
		}
	}
	nodes := m.NodeIDs()
	var flows []Flow
	for _, n := range nodes {
		usages, err := CopyFlowUsages(m, n, 7)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			flows = append(flows, Flow{ID: fmt.Sprintf("t%d-%d", int(n), k), Usages: usages})
		}
	}
	for _, f := range flows {
		if err := s.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}

	// Unchanged flow set: the solve re-levels in the grown scratch.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("nothing-changed solve: %v allocs/op, want 0", allocs)
	}

	// Churn one flow per round (remove + re-add + solve): parked usage
	// slices and grown scratch make the steady state alloc-free.
	flowByID := make(map[string]Flow, len(flows))
	for _, f := range flows {
		flowByID[f.ID] = f
	}
	first := []int32{0}
	if allocs := testing.AllocsPerRun(100, func() {
		victim := s.flows[0].id
		s.RemoveFlowsAt(first)
		if err := s.AddFlow(flowByID[victim]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("remove/re-add/solve churn: %v allocs/op, want 0", allocs)
	}

	// Full re-level via Reset + re-add (every fluid run's prologue).
	if allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		for _, f := range flows {
			if err := s.AddFlow(f); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("reset/re-add/solve: %v allocs/op, want 0", allocs)
	}
}

// TestReusedSolverNearTieMatchesFresh: two flows on disjoint resources whose
// capacities differ by 5e-7 relative saturate in the same water-filling
// round (the saturation test tolerates 1e-6), so a fresh solver gives both
// the lower level. Removing and re-adding the second flow on a reused
// solver must give it that same level, not its own resource's capacity.
func TestReusedSolverNearTieMatchesFresh(t *testing.T) {
	h := newIncrementalHarness(t, []Resource{
		{ID: "a", Capacity: 10 * units.Gbps},
		{ID: "b", Capacity: units.Bandwidth(10 * (1 + 5e-7) * float64(units.Gbps))},
	})
	onA := Flow{Usages: []Usage{{Resource: "a", Weight: 1}}}
	onB := Flow{Usages: []Usage{{Resource: "b", Weight: 1}}}
	h.add(t, onA)
	h.add(t, onB)
	assertSameAllocation(t, "first solve", h.inc, h.fresh(t))
	h.removeAt(1)
	h.add(t, onB)
	assertSameAllocation(t, "re-added", h.inc, h.fresh(t))
}
