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
		t.Fatalf("%s: incremental solve: %v", label, err)
	}
	fa, err := fresh.Solve()
	if err != nil {
		t.Fatalf("%s: fresh solve: %v", label, err)
	}
	if ia.NumFlows() != fa.NumFlows() {
		t.Fatalf("%s: flow count %d != %d", label, ia.NumFlows(), fa.NumFlows())
	}
	for i := 0; i < ia.NumFlows(); i++ {
		if ia.FlowID(i) != fa.FlowID(i) {
			t.Fatalf("%s: flow %d ID %q != %q", label, i, ia.FlowID(i), fa.FlowID(i))
		}
		ir, fr := float64(ia.Rate(i)), float64(fa.Rate(i))
		if math.Float64bits(ir) != math.Float64bits(fr) {
			t.Fatalf("%s: flow %q rate %v (bits %x) != fresh %v (bits %x)",
				label, ia.FlowID(i), ir, math.Float64bits(ir), fr, math.Float64bits(fr))
		}
		if ia.Bottleneck(i) != fa.Bottleneck(i) {
			t.Fatalf("%s: flow %q bottleneck %q != fresh %q",
				label, ia.FlowID(i), ia.Bottleneck(i), fa.Bottleneck(i))
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

// incrementalHarness drives one incremental solver alongside a shadow flow
// list, building a from-scratch reference solver on demand.
type incrementalHarness struct {
	resources []Resource // current capacities, registration order
	inc       *Solver
	flows     []Flow // shadow of the incremental solver's dense order
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
	h.inc.RemoveFlowAt(i)
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
// order — the prologue of every fluid run on a pooled solver. The shadow
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

// propertyMachines are the topologies the incremental == full bit-identity
// property is pinned on (the same set the parallel-characterization and
// interning tests use).
func propertyMachines() map[string]*topology.Machine {
	return map[string]*topology.Machine{
		"dl585g7":    topology.DL585G7(),
		"magny-a":    topology.MagnyCours4P(topology.VariantA),
		"intel-4s4n": topology.Intel4S4N(),
	}
}

// TestIncrementalMatchesFreshRandomOps: a long randomized add/remove/
// retune/solve sequence on each reference machine must keep the
// incremental solver byte-identical — rates, bottlenecks, utilization — to
// a solver rebuilt from scratch at every solve point.
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

// TestIncrementalPhaseRemovalMatchesFresh mirrors the fluid executor's
// pattern: build a full flow set, then repeatedly solve and remove a batch
// of flows, checking bit-identity against a from-scratch solver at every
// phase boundary.
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

// TestIncrementalDisjointComponents: per-node local copies form disjoint
// components; removing one flow must re-level only its own component and
// count as an incremental solve, while first solves count as full.
func TestIncrementalDisjointComponents(t *testing.T) {
	m := topology.DL585G7()
	s := NewSolver()
	for _, r := range MachineResources(m) {
		if err := s.SetResource(r); err != nil {
			t.Fatal(err)
		}
	}
	nodes := m.NodeIDs()
	for _, n := range nodes {
		usages, err := CopyFlowUsages(m, n, n) // local copy: only mem:<n>
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if err := s.AddFlow(Flow{ID: fmt.Sprintf("n%d-%d", int(n), k), Usages: usages}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := ReadStats()
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	mid := ReadStats()
	if got := mid.FullSolves - before.FullSolves; got != 1 {
		t.Errorf("first solve: full solves += %d, want 1", got)
	}
	rateBefore := make([]float64, s.NumFlows())
	for i := range rateBefore {
		rateBefore[i] = s.flows[i].rate
	}

	// Remove one node-0 flow: node 0's survivor re-levels, everyone else's
	// stored rate must be untouched (same backing floats, not recomputed).
	if id := s.flows[1].id; id != "n0-1" {
		t.Fatalf("flow 1 is %q, want n0-1", id)
	}
	s.RemoveFlowAt(1)
	ia, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	after := ReadStats()
	if got := after.IncrementalSolves - mid.IncrementalSolves; got != 1 {
		t.Errorf("delta solve: incremental solves += %d, want 1", got)
	}
	if got := after.FullSolves - mid.FullSolves; got != 0 {
		t.Errorf("delta solve: full solves += %d, want 0", got)
	}
	// n0-0 now owns all of mem:0 (weight 2): rate doubles.
	if got, want := float64(ia.Rate(0)), 2*rateBefore[0]; got != want {
		t.Errorf("n0-0 rate after removal = %v, want %v", got, want)
	}
	// Flows of the untouched nodes keep their converged bits.
	for i := 1; i < ia.NumFlows(); i++ {
		if math.Float64bits(s.flows[i].rate) != math.Float64bits(rateBefore[i+1]) {
			t.Errorf("flow %s re-leveled: %v != %v", ia.FlowID(i), s.flows[i].rate, rateBefore[i+1])
		}
	}

	// Invalidate forces the next solve to re-level everything.
	s.Invalidate()
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	end := ReadStats()
	if got := end.FullSolves - after.FullSolves; got != 1 {
		t.Errorf("post-Invalidate solve: full solves += %d, want 1", got)
	}
}

// TestIncrementalSteadyStateZeroAlloc: once grown, the add/remove/solve
// cycle of a steady-state fluid run allocates nothing.
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

	// Unchanged flow set: the converged allocation is returned as is.
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
	if allocs := testing.AllocsPerRun(100, func() {
		victim := s.flows[0].id
		s.RemoveFlowAt(0)
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
