// Package fabric computes bandwidth allocations for concurrent transfers
// over a shared machine fabric.
//
// The model is flow-based: every transfer is a Flow that consumes a set of
// Resources (directed interconnect links, memory controllers, device DMA
// engines, core budgets) with per-resource weights. A weight of 1 means the
// flow loads the resource with its full data rate; a local memory copy loads
// its node's controller with weight 2 (read + write); a device engine that
// serves a slow path charges more engine time per byte, expressed as a
// weight above 1.
//
// Solve performs weighted max-min fair allocation by progressive filling
// (water-filling): all unfrozen flows rise at the same rate, a flow freezes
// when one of its resources saturates or its demand is met. This yields the
// equal-share contention behaviour of real interconnects and, for weighted
// device engines, the harmonic-mean aggregate the paper observes in its
// multi-user experiment (Sec. V-B).
//
// Every Solve water-fills all registered flows from zero, so a solver
// reused across rounds gives bit for bit what a fresh one gives.
package fabric

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"numaio/internal/topology"
	"numaio/internal/units"
)

// ResourceID names a capacity-constrained resource.
type ResourceID string

// internedIDs bounds the precomputed small-index resource-ID tables below:
// the conventional constructors are on the per-request serving path (every
// flow build names its links, controllers and core budgets), so the common
// indices are built once at init instead of fmt.Sprintf-ing per call.
const internedIDs = 64

var (
	linkIDs [internedIDs]ResourceID
	memIDs  [internedIDs]ResourceID
	coreIDs [internedIDs]ResourceID
)

func init() {
	for i := range linkIDs {
		s := strconv.Itoa(i)
		linkIDs[i] = ResourceID("link:" + s)
		memIDs[i] = ResourceID("mem:" + s)
		coreIDs[i] = ResourceID("core:" + s)
	}
}

// Conventional resource ID constructors.
func LinkResource(linkIdx int) ResourceID {
	if linkIdx >= 0 && linkIdx < internedIDs {
		return linkIDs[linkIdx]
	}
	return ResourceID("link:" + strconv.Itoa(linkIdx))
}
func MemResource(n topology.NodeID) ResourceID {
	if n >= 0 && int(n) < internedIDs {
		return memIDs[n]
	}
	return ResourceID("mem:" + strconv.Itoa(int(n)))
}
func CoreResource(n topology.NodeID) ResourceID {
	if n >= 0 && int(n) < internedIDs {
		return coreIDs[n]
	}
	return ResourceID("core:" + strconv.Itoa(int(n)))
}
func DeviceResource(deviceID, engine string) ResourceID {
	return ResourceID("dev:" + deviceID + ":" + engine)
}

// Resource is a shared capacity.
type Resource struct {
	ID       ResourceID
	Capacity units.Bandwidth
}

// ScaleResources multiplies the capacity of every listed resource by its
// factor, in place, and returns the slice. Resources absent from scale are
// untouched. Fault plans (internal/faults) use this to degrade links and
// device engines without mutating the topology itself.
func ScaleResources(resources []Resource, scale map[ResourceID]float64) []Resource {
	if len(scale) == 0 {
		return resources
	}
	for i := range resources {
		if f, ok := scale[resources[i].ID]; ok {
			resources[i].Capacity = units.Bandwidth(float64(resources[i].Capacity) * f)
		}
	}
	return resources
}

// Usage couples a flow to a resource: the flow's rate times Weight counts
// against the resource's capacity.
type Usage struct {
	Resource ResourceID
	Weight   float64
}

// Flow is a single transfer competing for resources.
type Flow struct {
	ID     string
	Demand units.Bandwidth // <= 0 means unbounded
	Usages []Usage
}

// indexedUsage is a Usage resolved to a resource index, so the solve loops
// run on slices instead of maps.
type indexedUsage struct {
	res    int32
	weight float64
}

// bnDemand marks a flow frozen by its own demand.
const bnDemand int32 = -1

// indexedFlow is a registered flow with index-resolved usages. rate and bn
// hold the flow's allocation from the last solve; frozen is scratch for the
// water-filling pass.
type indexedFlow struct {
	id     string
	demand units.Bandwidth
	usages []indexedUsage
	rate   float64
	bn     int32 // bottleneck resource index, or bnDemand
	frozen bool
}

func (f *indexedFlow) unbounded() bool {
	return f.demand <= 0 || math.IsInf(float64(f.demand), 1)
}

// Solver accumulates resources and flows for allocation rounds. It is
// reusable: Reset clears the flows while keeping the registered resources,
// Clear drops both, and RemoveFlowsAt drops flows by index, so callers that
// re-solve a shrinking flow set (the fluid executor) do not rebuild the
// resource table each round. Every Solve water-fills all registered flows,
// so a reused solver gives exactly what a fresh one built with the same
// resources and flows gives. A Solver is not safe for concurrent use.
type Solver struct {
	resList  []Resource // registration order
	resIndex map[ResourceID]int
	sorted   []int32 // resource indices in ascending ID order
	rank     []int32 // rank[resIdx] = position of the resource in sorted order
	flows    []indexedFlow

	// Scratch buffers reused across Solve calls.
	frozenLoad   []float64
	activeWeight []float64
	util         []float64 // final per-resource utilization (Allocation)
	used         []bool    // per resource: some flow uses it
	// resOrder lists the used resources in ID order, so water-filling
	// rounds iterate only them instead of the whole sorted table.
	resOrder []int32
	// parkScratch stages the usage slices of batch-removed flows until
	// RemoveFlowsAt re-parks them past the compacted tail.
	parkScratch [][]indexedUsage
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{resIndex: make(map[ResourceID]int)}
}

// SetResource registers (or replaces) a resource. Capacity must be positive.
func (s *Solver) SetResource(r Resource) error {
	if r.Capacity <= 0 {
		return fmt.Errorf("fabric: resource %q: nonpositive capacity %v", r.ID, r.Capacity)
	}
	if i, ok := s.resIndex[r.ID]; ok {
		s.resList[i] = r
		return nil
	}
	i := len(s.resList)
	s.resList = append(s.resList, r)
	s.resIndex[r.ID] = i
	// Keep the ID-sorted index order incrementally (insertion into a
	// sorted slice; resource counts are small), and refresh the rank table
	// so flow registration can order usages by integer compare.
	pos := sort.Search(len(s.sorted), func(k int) bool {
		return s.resList[s.sorted[k]].ID >= r.ID
	})
	s.sorted = append(s.sorted, 0)
	copy(s.sorted[pos+1:], s.sorted[pos:])
	s.sorted[pos] = int32(i)
	for len(s.rank) < len(s.resList) {
		s.rank = append(s.rank, 0)
	}
	for k, ri := range s.sorted {
		s.rank[ri] = int32(k)
	}
	return nil
}

// spareUsages returns a zero-length usage slice for the next registered
// flow, reusing the capacity parked past len(s.flows) by an earlier Reset
// or removal so steady-state rounds over a stable fabric register flows
// alloc-free.
func (s *Solver) spareUsages() []indexedUsage {
	if len(s.flows) < cap(s.flows) {
		return s.flows[:cap(s.flows)][len(s.flows)].usages[:0]
	}
	return nil
}

// AddFlow registers a flow at the next dense index. Duplicate usages of the
// same resource are merged by summing weights. Every referenced resource
// must already be registered. Flow IDs label the flow in errors and in
// Allocation.FlowID; the solver does not check them for uniqueness.
func (s *Solver) AddFlow(f Flow) error {
	if f.ID == "" {
		return fmt.Errorf("fabric: flow with empty ID")
	}
	usages := s.spareUsages()
	if usages == nil {
		// Nothing parked to reuse: allocate once, not once per append.
		usages = make([]indexedUsage, 0, len(f.Usages))
	}
	for _, u := range f.Usages {
		if u.Weight <= 0 {
			return fmt.Errorf("fabric: flow %q: nonpositive weight %v on %q", f.ID, u.Weight, u.Resource)
		}
		ri, ok := s.resIndex[u.Resource]
		if !ok {
			return fmt.Errorf("fabric: flow %q: unknown resource %q", f.ID, u.Resource)
		}
		merged := false
		for k := range usages {
			if usages[k].res == int32(ri) {
				usages[k].weight += u.Weight
				merged = true
				break
			}
		}
		if merged {
			continue
		}
		// Insert in ascending resource-ID order (via the precomputed rank,
		// so ordering is an integer compare); usage lists are tiny.
		pos := len(usages)
		for pos > 0 && s.rank[usages[pos-1].res] > s.rank[ri] {
			pos--
		}
		usages = append(usages, indexedUsage{})
		copy(usages[pos+1:], usages[pos:])
		usages[pos] = indexedUsage{res: int32(ri), weight: u.Weight}
	}
	s.flows = append(s.flows, indexedFlow{id: f.ID, demand: f.Demand, usages: usages})
	return nil
}

// Reset drops every flow while keeping the registered resources, readying
// the solver for a fresh round over the same fabric. The usage slices of
// the dropped flows stay parked in the backing array for reuse.
func (s *Solver) Reset() {
	statResets.Inc()
	s.flows = s.flows[:0]
}

// Clear drops every resource and flow while keeping every backing array
// for reuse, so one solver can take another machine's resource table.
func (s *Solver) Clear() {
	s.resList = s.resList[:0]
	clear(s.resIndex)
	s.sorted = s.sorted[:0]
	s.rank = s.rank[:0]
	s.Reset()
}

// RemoveFlowsAt unregisters the flows at the given current dense indices,
// preserving the relative order of the rest. idx must be ascending, unique
// and in range. One compaction pass shifts the survivors down, which is
// what the fluid executor's completion step wants.
func (s *Solver) RemoveFlowsAt(idx []int32) {
	if len(idx) == 0 {
		return
	}
	park := s.parkScratch[:0]
	w, di := 0, 0
	for r := range s.flows {
		if di < len(idx) && int(idx[di]) == r {
			di++
			park = append(park, s.flows[r].usages[:0])
			continue
		}
		if w != r {
			s.flows[w] = s.flows[r]
		}
		w++
	}
	// The vacated tail slots still alias shifted-down flows' usages; re-park
	// the removed flows' slices there so spareUsages keeps recycling them
	// instead of corrupting a live flow.
	for k := range park {
		s.flows[w+k].usages = park[k]
	}
	s.parkScratch = park[:0]
	s.flows = s.flows[:w]
}

const eps = 1e-9

// Allocation is the result of Solve: rates, bottlenecks and utilization
// addressed by the solver's dense flow and resource indices (AddFlow and
// SetResource order), with string IDs only at the accessor edge. It views
// the solver's state, so it is valid until the next Solve or any flow-set
// change on the solver.
type Allocation struct {
	s *Solver
}

// Solve computes the weighted max-min fair allocation.
func (s *Solver) Solve() (Allocation, error) {
	if err := s.timedSolve(); err != nil {
		return Allocation{}, err
	}
	return Allocation{s: s}, nil
}

// Rate returns the allocated rate of flow index i.
func (a Allocation) Rate(i int) units.Bandwidth {
	return units.Bandwidth(a.s.flows[i].rate)
}

// Bottleneck returns the resource that froze flow i, or "" if the flow was
// frozen by its own demand.
func (a Allocation) Bottleneck(i int) ResourceID {
	if ri := a.s.flows[i].bn; ri >= 0 {
		return a.s.resList[ri].ID
	}
	return ""
}

// NumResources returns the number of registered resources.
func (a Allocation) NumResources() int { return len(a.s.resList) }

// ResourceID returns the string ID of resource index ri.
func (a Allocation) ResourceID(ri int) ResourceID { return a.s.resList[ri].ID }

// Utilization returns the fraction of resource ri's capacity in use.
func (a Allocation) Utilization(ri int) float64 { return a.s.util[ri] }

// grow resizes the per-resource scratch buffers.
func (s *Solver) grow() {
	nr := len(s.resList)
	if cap(s.used) < nr {
		s.frozenLoad = make([]float64, nr)
		s.activeWeight = make([]float64, nr)
		s.util = make([]float64, nr)
		s.used = make([]bool, nr)
	}
	s.frozenLoad = s.frozenLoad[:nr]
	s.activeWeight = s.activeWeight[:nr]
	s.util = s.util[:nr]
	s.used = s.used[:nr]
}

// solve runs the water-filling pass over every registered flow, visiting
// flows in index order and resources in ID order, then records each
// resource's utilization.
func (s *Solver) solve() error {
	s.grow()
	used := s.used
	for ri := range used {
		used[ri] = false
	}
	for i := range s.flows {
		f := &s.flows[i]
		f.rate, f.bn, f.frozen = 0, bnDemand, false
		for _, u := range f.usages {
			used[u.res] = true
		}
	}
	active := len(s.flows)

	// The used resources, collected once in ID order (the pass's
	// deterministic visit order).
	resOrder := s.resOrder[:0]
	for _, ri := range s.sorted {
		if used[ri] {
			resOrder = append(resOrder, ri)
		}
	}
	s.resOrder = resOrder

	// Per-resource frozen load and active weight, recomputed each round
	// (rounds <= flows, resources bounded; fine for our sizes).
	frozenLoad, activeWeight := s.frozenLoad, s.activeWeight
	for active > 0 {
		for _, ri := range resOrder {
			frozenLoad[ri], activeWeight[ri] = 0, 0
		}
		for i := range s.flows {
			f := &s.flows[i]
			for _, u := range f.usages {
				if f.frozen {
					frozenLoad[u.res] += u.weight * f.rate
				} else {
					activeWeight[u.res] += u.weight
				}
			}
		}

		// All active flows currently sit at the common level x (they rise
		// together; rates of active flows are equal by construction).
		x := 0.0
		for i := range s.flows {
			if !s.flows[i].frozen {
				x = s.flows[i].rate
				break
			}
		}

		// Next stop: the smallest level at which a resource saturates or
		// an active flow reaches demand. Resources are visited in ID order
		// so eps-close ties resolve to the smallest resource ID
		// deterministically.
		nextX := math.Inf(1)
		bindRes := int32(-1)
		for _, ri := range resOrder {
			w := activeWeight[ri]
			if w <= 0 {
				continue
			}
			cap := float64(s.resList[ri].Capacity)
			lvl := (cap - frozenLoad[ri]) / w
			if lvl < x-eps {
				lvl = x // resource already (numerically) saturated
			}
			if lvl < nextX-eps {
				nextX = lvl
				bindRes = ri
			}
		}
		demandBound := false
		for i := range s.flows {
			f := &s.flows[i]
			if f.frozen || f.unbounded() {
				continue
			}
			d := float64(f.demand)
			if d < nextX-eps {
				nextX = d
				demandBound = true
				bindRes = -1
			} else if math.Abs(d-nextX) <= eps {
				demandBound = true
			}
		}
		if math.IsInf(nextX, 1) {
			// No binding resource and no demand: unbounded allocation.
			return fmt.Errorf("fabric: unbounded flow(s) with no constraining resource")
		}

		// Raise all active flows to nextX and freeze the bound ones.
		frozeAny := false
		for i := range s.flows {
			f := &s.flows[i]
			if f.frozen {
				continue
			}
			f.rate = nextX
			// Demand freeze.
			if !f.unbounded() && float64(f.demand) <= nextX+eps {
				f.frozen = true
				f.bn = bnDemand
				active--
				frozeAny = true
				continue
			}
			// Resource freeze: any saturated resource in the usage set.
			for _, u := range f.usages {
				cap := float64(s.resList[u.res].Capacity)
				load := frozenLoad[u.res] + activeWeight[u.res]*nextX
				if load >= cap-1e-6*math.Max(cap, 1) {
					f.frozen = true
					f.bn = u.res
					active--
					frozeAny = true
					break
				}
			}
		}
		if !frozeAny {
			// Defensive: should be impossible, but never loop forever.
			if demandBound || bindRes >= 0 {
				return fmt.Errorf("fabric: solver stalled at level %v", nextX)
			}
			return fmt.Errorf("fabric: solver made no progress")
		}
	}

	// Final utilization, accumulated in flow-index order.
	load := frozenLoad // reuse as the final-load scratch
	for ri := range load {
		load[ri] = 0
	}
	for i := range s.flows {
		f := &s.flows[i]
		for _, u := range f.usages {
			load[u.res] += u.weight * f.rate
		}
	}
	for ri := range s.resList {
		s.util[ri] = load[ri] / float64(s.resList[ri].Capacity)
	}
	return nil
}

// AggregateRate solves flows over resources on a fresh solver and returns
// the sum of their rates. Flows register in the given order; the sum runs
// in ascending flow-ID order ("t10" before "t2"), so one problem always
// sums to the same bits. Flow IDs must be unique.
func AggregateRate(resources []Resource, flows []Flow) (units.Bandwidth, error) {
	ord := make([]int, len(flows))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(x, y int) bool { return flows[ord[x]].ID < flows[ord[y]].ID })
	for k := 1; k < len(ord); k++ {
		if id := flows[ord[k]].ID; id == flows[ord[k-1]].ID {
			return 0, fmt.Errorf("fabric: duplicate flow %q", id)
		}
	}
	s := NewSolver()
	for _, r := range resources {
		if err := s.SetResource(r); err != nil {
			return 0, err
		}
	}
	for _, f := range flows {
		if err := s.AddFlow(f); err != nil {
			return 0, err
		}
	}
	a, err := s.Solve()
	if err != nil {
		return 0, err
	}
	var sum units.Bandwidth
	for _, i := range ord {
		sum += a.Rate(i)
	}
	return sum, nil
}
