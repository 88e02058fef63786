package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"numaio/internal/topology"
	"numaio/internal/units"
)

func mustSetResource(t *testing.T, s *Solver, r Resource) {
	t.Helper()
	if err := s.SetResource(r); err != nil {
		t.Fatal(err)
	}
}

func mustAddFlow(t *testing.T, s *Solver, f Flow) {
	t.Helper()
	if err := s.AddFlow(f); err != nil {
		t.Fatal(err)
	}
}

func TestSingleFlowGetsBottleneck(t *testing.T) {
	s := NewSolver()
	mustSetResource(t, s, Resource{ID: "a", Capacity: 40 * units.Gbps})
	mustSetResource(t, s, Resource{ID: "b", Capacity: 25 * units.Gbps})
	mustAddFlow(t, s, Flow{ID: "f", Usages: []Usage{
		{Resource: "a", Weight: 1}, {Resource: "b", Weight: 1},
	}})
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate(0).Gbps(); math.Abs(got-25) > 1e-6 {
		t.Errorf("rate = %v, want 25", got)
	}
	if a.Bottleneck(0) != "b" {
		t.Errorf("bottleneck = %q, want b", a.Bottleneck(0))
	}
	if a.ResourceID(0) != "a" || a.ResourceID(1) != "b" {
		t.Fatalf("resource order = %q, %q, want a, b", a.ResourceID(0), a.ResourceID(1))
	}
	if u := a.Utilization(1); math.Abs(u-1) > 1e-6 {
		t.Errorf("utilization of b = %v, want 1", u)
	}
	if u := a.Utilization(0); math.Abs(u-25.0/40) > 1e-6 {
		t.Errorf("utilization of a = %v, want 0.625", u)
	}
}

func TestEqualFlowsShareEqually(t *testing.T) {
	s := NewSolver()
	mustSetResource(t, s, Resource{ID: "l", Capacity: 30 * units.Gbps})
	for i := 0; i < 3; i++ {
		mustAddFlow(t, s, Flow{ID: fmt.Sprintf("f%d", i),
			Usages: []Usage{{Resource: "l", Weight: 1}}})
	}
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := a.Rate(i).Gbps(); math.Abs(got-10) > 1e-6 {
			t.Errorf("f%d rate = %v, want 10", i, got)
		}
	}
}

func TestDemandFreezeReleasesCapacity(t *testing.T) {
	s := NewSolver()
	mustSetResource(t, s, Resource{ID: "l", Capacity: 30 * units.Gbps})
	mustAddFlow(t, s, Flow{ID: "small", Demand: 5 * units.Gbps,
		Usages: []Usage{{Resource: "l", Weight: 1}}})
	mustAddFlow(t, s, Flow{ID: "big",
		Usages: []Usage{{Resource: "l", Weight: 1}}})
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate(0).Gbps(); math.Abs(got-5) > 1e-6 {
		t.Errorf("small rate = %v, want 5", got)
	}
	if got := a.Rate(1).Gbps(); math.Abs(got-25) > 1e-6 {
		t.Errorf("big rate = %v, want 25 (leftover)", got)
	}
	if a.Bottleneck(0) != "" {
		t.Errorf("small should be demand-frozen, got %q", a.Bottleneck(0))
	}
}

// A device engine that charges slow paths more engine time per byte yields
// the harmonic-mean aggregate of Sec. V-B: two streams to an 18.036 Gb/s
// class and two to a 21.998 Gb/s class aggregate to ~19.8 Gb/s, slightly
// below the paper's arithmetic-mean prediction of 20.017 Gb/s.
func TestWeightedEngineHarmonicAggregate(t *testing.T) {
	const base = 22.0
	resources := []Resource{{ID: "eng", Capacity: base * units.Gbps}}
	var flows []Flow
	for i, r := range []float64{18.036, 18.036, 21.998, 21.998} {
		flows = append(flows, Flow{ID: fmt.Sprintf("f%d", i),
			Usages: []Usage{{Resource: "eng", Weight: base / r}}})
	}
	agg, err := AggregateRate(resources, flows)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 / (2/18.036 + 2/21.998)
	if got := agg.Gbps(); math.Abs(got-want) > 1e-6 {
		t.Errorf("aggregate = %v, want %v", got, want)
	}
	arithmetic := 0.5*18.036 + 0.5*21.998
	if got := agg.Gbps(); got >= arithmetic {
		t.Errorf("aggregate %v should undercut the arithmetic mean %v", got, arithmetic)
	}
}

func TestDuplicateUsagesMerge(t *testing.T) {
	s := NewSolver()
	mustSetResource(t, s, Resource{ID: "m", Capacity: 100 * units.Gbps})
	// Local copy: same controller charged twice.
	mustAddFlow(t, s, Flow{ID: "copy", Usages: []Usage{
		{Resource: "m", Weight: 1}, {Resource: "m", Weight: 1},
	}})
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate(0).Gbps(); math.Abs(got-50) > 1e-6 {
		t.Errorf("rate = %v, want 50 (controller charged twice)", got)
	}
}

func TestSolverErrors(t *testing.T) {
	s := NewSolver()
	if err := s.SetResource(Resource{ID: "z", Capacity: 0}); err == nil {
		t.Error("zero capacity should be rejected")
	}
	mustSetResource(t, s, Resource{ID: "a", Capacity: units.Gbps})
	if err := s.AddFlow(Flow{ID: ""}); err == nil {
		t.Error("empty flow ID should be rejected")
	}
	if err := s.AddFlow(Flow{ID: "f", Usages: []Usage{{Resource: "nope", Weight: 1}}}); err == nil {
		t.Error("unknown resource should be rejected")
	}
	if err := s.AddFlow(Flow{ID: "f", Usages: []Usage{{Resource: "a", Weight: 0}}}); err == nil {
		t.Error("zero weight should be rejected")
	}
	mustAddFlow(t, s, Flow{ID: "f", Usages: []Usage{{Resource: "a", Weight: 1}}})
	if s.NumFlows() != 1 {
		t.Errorf("NumFlows = %d, want 1", s.NumFlows())
	}
	if _, ok := s.Resource("a"); !ok {
		t.Error("Resource lookup failed")
	}
}

func TestUnboundedUnconstrainedFlowErrors(t *testing.T) {
	s := NewSolver()
	if err := s.AddFlow(Flow{ID: "free"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err == nil {
		t.Error("unbounded unconstrained flow should error")
	}
}

func TestDemandOnlyFlow(t *testing.T) {
	s := NewSolver()
	mustAddFlow(t, s, Flow{ID: "d", Demand: 3 * units.Gbps})
	a, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Rate(0).Gbps(); math.Abs(got-3) > 1e-9 {
		t.Errorf("rate = %v, want 3", got)
	}
}

func TestEmptySolve(t *testing.T) {
	a, err := NewSolver().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFlows() != 0 {
		t.Errorf("empty allocation has %d flows", a.NumFlows())
	}
	if agg, err := AggregateRate(nil, nil); err != nil || agg != 0 {
		t.Errorf("empty AggregateRate = %v, %v; want 0, nil", agg, err)
	}
}

func TestAggregateRate(t *testing.T) {
	res := []Resource{{ID: "a", Capacity: 10 * units.Gbps}}
	bw, err := AggregateRate(res, []Flow{{ID: "x", Usages: []Usage{{Resource: "a", Weight: 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := bw.Gbps(); math.Abs(got-5) > 1e-6 {
		t.Errorf("rate = %v, want 5", got)
	}
	if _, err := AggregateRate([]Resource{{ID: "a", Capacity: -1}}, []Flow{{ID: "x"}}); err == nil {
		t.Error("bad resource should error")
	}
	if _, err := AggregateRate(res, []Flow{{ID: "x", Usages: []Usage{{Resource: "b", Weight: 1}}}}); err == nil {
		t.Error("unknown resource should error")
	}
	dup := []Flow{
		{ID: "x", Usages: []Usage{{Resource: "a", Weight: 1}}},
		{ID: "x", Usages: []Usage{{Resource: "a", Weight: 1}}},
	}
	if _, err := AggregateRate(res, dup); err == nil {
		t.Error("duplicate flow IDs should error")
	}
}

// TestAggregateRateSumsInIDOrder pins the summation order: three flows, each
// alone on its own resource, registered as t2, t10, t11. Added in that
// order the two unit rates vanish into 1e16 (1e16+1 rounds back to 1e16);
// in flow-ID order (t10, t11, t2) they sum to 2 first and survive.
func TestAggregateRateSumsInIDOrder(t *testing.T) {
	resources := []Resource{{ID: "big", Capacity: 1e16}, {ID: "u1", Capacity: 1}, {ID: "u2", Capacity: 1}}
	flows := []Flow{
		{ID: "t2", Usages: []Usage{{Resource: "big", Weight: 1}}},
		{ID: "t10", Usages: []Usage{{Resource: "u1", Weight: 1}}},
		{ID: "t11", Usages: []Usage{{Resource: "u2", Weight: 1}}},
	}
	var regOrder units.Bandwidth // each flow's rate is its resource's capacity
	for _, r := range resources {
		regOrder += r.Capacity
	}
	if regOrder != 1e16 {
		t.Fatalf("registration-order sum = %v, want 1e16 (the rounding this test relies on)", float64(regOrder))
	}
	got, err := AggregateRate(resources, flows)
	if err != nil {
		t.Fatal(err)
	}
	if want := units.Bandwidth(1e16 + 2); got != want {
		t.Errorf("AggregateRate = %v, want %v (flow-ID order)", float64(got), float64(want))
	}
}

// randomScenario builds a reproducible random solver instance.
func randomScenario(seed int64) (*Solver, []Flow, []Resource) {
	rng := rand.New(rand.NewSource(seed))
	nRes := 1 + rng.Intn(6)
	nFlows := 1 + rng.Intn(8)
	s := NewSolver()
	var resources []Resource
	for i := 0; i < nRes; i++ {
		r := Resource{ID: ResourceID(fmt.Sprintf("r%d", i)),
			Capacity: units.Bandwidth(1+rng.Float64()*99) * units.Gbps}
		resources = append(resources, r)
		if err := s.SetResource(r); err != nil {
			panic(err)
		}
	}
	var flows []Flow
	for i := 0; i < nFlows; i++ {
		f := Flow{ID: fmt.Sprintf("f%d", i)}
		k := 1 + rng.Intn(nRes)
		perm := rng.Perm(nRes)[:k]
		for _, ri := range perm {
			f.Usages = append(f.Usages, Usage{
				Resource: resources[ri].ID,
				Weight:   0.5 + rng.Float64()*2,
			})
		}
		if rng.Intn(2) == 0 {
			f.Demand = units.Bandwidth(1+rng.Float64()*49) * units.Gbps
		}
		flows = append(flows, f)
		if err := s.AddFlow(f); err != nil {
			panic(err)
		}
	}
	return s, flows, resources
}

// Property: allocations are feasible (no resource overloaded) and demands
// are never exceeded.
func TestSolveFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, flows, resources := randomScenario(seed)
		a, err := s.Solve()
		if err != nil {
			return false
		}
		load := make(map[ResourceID]float64)
		for i, fl := range flows {
			r := float64(a.Rate(i))
			if r < -eps {
				return false
			}
			if !fl.unbounded() && r > float64(fl.Demand)*(1+1e-6)+eps {
				return false
			}
			seen := make(map[ResourceID]float64)
			for _, u := range fl.Usages {
				seen[u.Resource] += u.Weight
			}
			for id, w := range seen {
				load[id] += w * r
			}
		}
		for _, res := range resources {
			if load[res.ID] > float64(res.Capacity)*(1+1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: max-min fairness — every flow below its demand has a saturated
// bottleneck resource on which no competing flow holds a higher rate.
func TestSolveMaxMinProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, flows, resources := randomScenario(seed)
		a, err := s.Solve()
		if err != nil {
			return false
		}
		caps := make(map[ResourceID]float64)
		for _, r := range resources {
			caps[r.ID] = float64(r.Capacity)
		}
		load := make(map[ResourceID]float64)
		usedBy := make(map[ResourceID][]int)
		for i, fl := range flows {
			r := float64(a.Rate(i))
			seen := make(map[ResourceID]bool)
			for _, u := range fl.Usages {
				load[u.Resource] += u.Weight * r
				if !seen[u.Resource] {
					usedBy[u.Resource] = append(usedBy[u.Resource], i)
					seen[u.Resource] = true
				}
			}
		}
		for i, fl := range flows {
			r := float64(a.Rate(i))
			if !fl.unbounded() && r >= float64(fl.Demand)*(1-1e-6) {
				continue // demand-satisfied
			}
			ok := false
			for _, u := range fl.Usages {
				if load[u.Resource] < caps[u.Resource]*(1-1e-4) {
					continue // not saturated
				}
				// No flow sharing this saturated resource may exceed ours.
				higher := false
				for _, other := range usedBy[u.Resource] {
					if float64(a.Rate(other)) > r*(1+1e-4)+eps {
						higher = true
						break
					}
				}
				if !higher {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: scaling all capacities and demands scales all rates.
func TestSolveScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		const k = 3.5
		s1, flows, resources := randomScenario(seed)
		a1, err := s1.Solve()
		if err != nil {
			return false
		}
		s2 := NewSolver()
		for _, r := range resources {
			if err := s2.SetResource(Resource{ID: r.ID, Capacity: r.Capacity * k}); err != nil {
				return false
			}
		}
		for _, fl := range flows {
			scaled := fl
			scaled.Demand = fl.Demand * k
			if err := s2.AddFlow(scaled); err != nil {
				return false
			}
		}
		a2, err := s2.Solve()
		if err != nil {
			return false
		}
		for i := range flows {
			r1, r2 := float64(a1.Rate(i)), float64(a2.Rate(i))
			if math.Abs(r2-k*r1) > 1e-4*(1+k*r1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestMachineResourcesAndCopyUsages(t *testing.T) {
	m := topology.DL585G7()
	resources := MachineResources(m)

	// Local copy on node 7: controller charged twice -> memBW/2 = 53.
	usages, err := CopyFlowUsages(m, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	local, err := AggregateRate(resources, []Flow{{ID: "local", Usages: usages}})
	if err != nil {
		t.Fatal(err)
	}
	if got := local.Gbps(); math.Abs(got-53) > 0.01 {
		t.Errorf("local copy = %v, want 53", got)
	}

	// Remote copy 2->7 is starved at 26.5.
	usages, err = CopyFlowUsages(m, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := AggregateRate(resources, []Flow{{ID: "r", Usages: usages}})
	if err != nil {
		t.Fatal(err)
	}
	if got := remote.Gbps(); math.Abs(got-26.5) > 0.01 {
		t.Errorf("copy 2->7 = %v, want 26.5", got)
	}

	if _, err := CopyFlowUsages(m, 99, 7); err == nil {
		t.Error("unknown node should error")
	}
}

func TestPIOFlowUsages(t *testing.T) {
	m := topology.DL585G7()
	p := DefaultPIOParams()

	// Local PIO: only the controller, charged twice.
	u, err := PIOFlowUsages(m, 7, 7, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(u) != 1 || u[0].Weight != 2 {
		t.Errorf("local PIO usages = %+v", u)
	}

	// Remote PIO 4 on 7: the 7->4 return direction is PIO-penalized, so its
	// usage weight must exceed the plain response overhead.
	u, err = PIOFlowUsages(m, 4, 7, p)
	if err != nil {
		t.Fatal(err)
	}
	var sawPenalized bool
	for _, us := range u {
		if us.Weight > 1.3 && us.Resource != MemResource(7) {
			sawPenalized = true
		}
	}
	if !sawPenalized {
		t.Errorf("expected a penalized response link in %+v", u)
	}

	if _, err := PIOFlowUsages(m, 99, 7, p); err != nil {
		// unknown core node: route lookup fails
	} else {
		t.Error("unknown node should error")
	}
}

func TestResourceIDConstructors(t *testing.T) {
	if LinkResource(3) != "link:3" {
		t.Error("LinkResource")
	}
	if MemResource(topology.NodeID(7)) != "mem:7" {
		t.Error("MemResource")
	}
	if CoreResource(topology.NodeID(2)) != "core:2" {
		t.Error("CoreResource")
	}
	if DeviceResource("nic0", "tcp") != "dev:nic0:tcp" {
		t.Error("DeviceResource")
	}
}
