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
// The solver is incremental: it keeps the converged allocation between
// solves and, after AddFlow/RemoveFlowAt, re-levels only the connected
// components of the flow/resource graph that actually changed (see solve).
// Components whose flow and resource sets are untouched keep their stored
// rates, which is bit-identical to re-solving them — within a component the
// water-filling arithmetic depends only on that component's flows and
// capacities.
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

// unbounded reports whether the flow has no demand cap.
func (f Flow) unbounded() bool {
	return f.Demand <= 0 || math.IsInf(float64(f.Demand), 1)
}

// indexedUsage is a Usage resolved to a resource index, so the solve loops
// run on slices instead of maps.
type indexedUsage struct {
	res    int32
	weight float64
}

// bnUnsolved marks a flow added since the last converged solve; bnDemand
// marks a flow frozen by its own demand.
const (
	bnUnsolved int32 = -2
	bnDemand   int32 = -1
)

// indexedFlow is a registered flow with index-resolved usages. rate and bn
// carry the flow's converged allocation between solves; frozen is scratch
// for the water-filling pass.
type indexedFlow struct {
	id     string
	demand units.Bandwidth
	usages []indexedUsage
	rate   float64
	bn     int32 // bottleneck resource index, bnDemand or bnUnsolved
	frozen bool
}

func (f *indexedFlow) unbounded() bool {
	return f.demand <= 0 || math.IsInf(float64(f.demand), 1)
}

// Solver accumulates resources and flows for allocation rounds. It is
// reusable: Reset clears the flows while keeping the registered resources,
// and RemoveFlowAt/RemoveFlowsAt drop flows by index, so callers that
// re-solve a shrinking flow set (the fluid executor) do not rebuild the
// resource table each round. Between solves the Solver keeps the converged
// allocation plus a dirty set of resources whose usage changed, so a solve
// after a small add/remove delta re-levels only the affected connected
// components. A Solver is not safe for concurrent use.
type Solver struct {
	resList  []Resource // registration order
	resIndex map[ResourceID]int
	sorted   []int32 // resource indices in ascending ID order
	rank     []int32 // rank[resIdx] = position of the resource in sorted order
	flows    []indexedFlow

	// solved reports that every flow with bn != bnUnsolved carries its
	// converged rate and bottleneck from the last successful solve.
	solved bool
	// pendingAdds counts registered flows not yet covered by a solve
	// (bn == bnUnsolved).
	pendingAdds int
	// dirtyRes lists resources whose usage set or capacity changed since
	// the last solve; dirtyMark dedupes it.
	dirtyRes  []int32
	dirtyMark []bool

	// Scratch buffers reused across Solve calls.
	frozenLoad   []float64
	activeWeight []float64
	util         []float64 // final per-resource utilization (Allocation)

	// Component-labeling scratch (see labelComponents).
	resStart  []int32 // per-resource offsets into resFlows (len nr+1)
	resFlows  []int32 // flow indices grouped by resource
	compFlow  []int32 // per-flow component id
	compRes   []int32 // per-resource component id (-1 = unused)
	compDirty []bool  // component contains a dirty resource or new flow
	queue     []int32 // BFS worklist
	compStart []int32 // per-component offsets into compFlows (len comps+1)
	compFlows []int32 // flow indices grouped by component, ascending

	// labelsValid reports that compFlow/compRes still describe the current
	// flow set: removals splice compFlow alongside flows (a stale coarse
	// grouping after a split is still a valid solve unit), while any add or
	// new resource forces a relabel. labeledComps/labeledNR pin the label
	// generation. With valid labels a removal-only delta re-solves without
	// the BFS pass — the fluid executor's steady state.
	labelsValid  bool
	labeledComps int
	labeledNR    int
	// compResList is solveComponent's per-call scratch: the component's
	// resources in ID order, so water-filling rounds iterate only them
	// instead of filtering the whole sorted table every round.
	compResList []int32
	// parkScratch stages the usage slices of batch-removed flows until
	// RemoveFlows re-parks them past the compacted tail.
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
		s.markDirtyRes(int32(i)) // capacity change re-levels its component
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

// Resource returns a registered resource.
func (s *Solver) Resource(id ResourceID) (Resource, bool) {
	i, ok := s.resIndex[id]
	if !ok {
		return Resource{}, false
	}
	return s.resList[i], true
}

// markDirtyRes queues a resource for re-leveling at the next solve. Without
// a converged allocation everything re-levels anyway, so the mark is only
// kept while solved.
func (s *Solver) markDirtyRes(ri int32) {
	if !s.solved {
		return
	}
	for len(s.dirtyMark) < len(s.resList) {
		s.dirtyMark = append(s.dirtyMark, false)
	}
	if !s.dirtyMark[ri] {
		s.dirtyMark[ri] = true
		s.dirtyRes = append(s.dirtyRes, ri)
	}
}

// clearDirty unmarks every queued resource.
func (s *Solver) clearDirty() {
	for _, ri := range s.dirtyRes {
		s.dirtyMark[ri] = false
	}
	s.dirtyRes = s.dirtyRes[:0]
}

// Invalidate discards the converged allocation, forcing the next solve to
// re-level every flow. Callers that change solver inputs behind its back
// (or want to compare against a from-scratch pass) use it; normal
// AddFlow/RemoveFlowAt/SetResource deltas are tracked automatically.
func (s *Solver) Invalidate() {
	if !s.solved {
		return
	}
	s.clearDirty()
	s.solved = false
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
	s.flows = append(s.flows, indexedFlow{id: f.ID, demand: f.Demand, usages: usages, bn: bnUnsolved})
	s.pendingAdds++
	return nil
}

// Reset drops every flow while keeping the registered resources, readying
// the solver for a fresh round over the same fabric. The usage slices of
// the dropped flows stay parked in the backing array for reuse.
func (s *Solver) Reset() {
	statResets.Add(1)
	s.flows = s.flows[:0]
	s.solved = false
	s.pendingAdds = 0
	s.labelsValid = false
	s.clearDirty()
}

// RemoveFlowAt unregisters the flow at dense index i (its AddFlow order
// among the flows still registered), preserving the relative order — and
// therefore the dense indices — of the flows before it; flows after it
// shift down by one.
func (s *Solver) RemoveFlowAt(i int) {
	f := &s.flows[i]
	// The flows sharing this flow's resources must re-level (transitively:
	// their whole components, which labeling expands the marks to).
	for _, u := range f.usages {
		s.markDirtyRes(u.res)
	}
	if f.bn == bnUnsolved {
		s.pendingAdds--
	}
	removed := f.usages[:0]
	copy(s.flows[i:], s.flows[i+1:])
	// Keep the component labels parallel to the flow slice. Flows past the
	// labeled region (added since the last labeling) carry garbage labels,
	// which is fine: pendingAdds > 0 blocks label reuse until they are
	// either labeled or removed again.
	if s.labelsValid && i < len(s.compFlow) {
		copy(s.compFlow[i:len(s.compFlow)-1], s.compFlow[i+1:])
	}
	last := len(s.flows) - 1
	// The vacated tail slot still aliases the shifted-down last flow's
	// usages; re-park the removed flow's slice there so spareUsages keeps
	// recycling it instead of corrupting a live flow.
	s.flows[last].usages = removed
	s.flows = s.flows[:last]
}

// RemoveFlowsAt unregisters the flows at the given current dense indices,
// preserving the relative order of the rest. idx must be ascending, unique
// and in range. One compaction pass replaces k RemoveFlowAt splices — k tail
// memmoves of pointer-bearing flow records collapse into a single sweep,
// which is what the fluid executor's completion step wants.
func (s *Solver) RemoveFlowsAt(idx []int32) {
	if len(idx) == 0 {
		return
	}
	n := len(s.flows)
	park := s.parkScratch[:0]
	labeled := 0
	if s.labelsValid {
		labeled = len(s.compFlow)
	}
	w, di := 0, 0
	for r := 0; r < n; r++ {
		f := &s.flows[r]
		if di >= len(idx) || int(idx[di]) != r {
			if w != r {
				s.flows[w] = *f
				if r < labeled {
					s.compFlow[w] = s.compFlow[r]
				}
			}
			w++
			continue
		}
		di++
		for _, u := range f.usages {
			s.markDirtyRes(u.res)
		}
		if f.bn == bnUnsolved {
			s.pendingAdds--
		}
		park = append(park, f.usages[:0])
	}
	// Re-park the removed flows' usage capacity in the vacated tail slots so
	// spareUsages keeps recycling it.
	for k := range park {
		s.flows[w+k].usages = park[k]
	}
	s.parkScratch = park[:0]
	s.flows = s.flows[:w]
}

// NumFlows returns the number of registered flows.
func (s *Solver) NumFlows() int { return len(s.flows) }

const eps = 1e-9

// Allocation is the result of Solve: rates, bottlenecks and utilization
// addressed by the solver's dense flow and resource indices (AddFlow and
// SetResource order), with string IDs only at the accessor edge. It views
// the solver's state, so it is valid until the next Solve or any flow-set
// change on the solver.
type Allocation struct {
	s *Solver
	n int
}

// Solve computes the weighted max-min fair allocation.
func (s *Solver) Solve() (Allocation, error) {
	if err := s.timedSolve(); err != nil {
		return Allocation{}, err
	}
	return Allocation{s: s, n: len(s.flows)}, nil
}

// NumFlows returns the number of allocated flows.
func (a Allocation) NumFlows() int { return a.n }

// FlowID returns the string ID of flow index i.
func (a Allocation) FlowID(i int) string { return a.s.flows[i].id }

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
	if cap(s.resStart) < nr+1 {
		s.frozenLoad = make([]float64, nr)
		s.activeWeight = make([]float64, nr)
		s.util = make([]float64, nr)
		s.compRes = make([]int32, nr)
		s.resStart = make([]int32, nr+1)
	}
	s.frozenLoad = s.frozenLoad[:nr]
	s.activeWeight = s.activeWeight[:nr]
	s.util = s.util[:nr]
	s.compRes = s.compRes[:nr]
	s.resStart = s.resStart[:nr+1]

	n := len(s.flows)
	if cap(s.compFlow) < n {
		s.compFlow = make([]int32, n)
		s.queue = make([]int32, n)
		s.compFlows = make([]int32, n)
	}
	s.compFlow = s.compFlow[:n]
	s.compFlows = s.compFlows[:n]
}

// labelComponents groups the flow/resource bipartite graph into connected
// components: compFlow/compRes label every flow and used resource, the
// flows of component c are compFlows[compStart[c]:compStart[c+1]] in
// ascending flow-index order, and compDirty[c] reports whether the
// component contains a dirty resource or a flow added since the last solve.
// tracked reports whether the dirty set was maintained against a converged
// allocation; when false every component is dirty (full solve). Runs
// entirely on pre-grown scratch.
func (s *Solver) labelComponents(tracked bool) int {
	n := len(s.flows)
	nr := len(s.resList)

	// Per-resource flow lists by counting sort: resFlows holds the indices
	// of the flows using each resource, grouped by resource, in ascending
	// flow order.
	cnt := s.resStart
	for i := range cnt {
		cnt[i] = 0
	}
	totalUsages := 0
	for i := range s.flows {
		totalUsages += len(s.flows[i].usages)
		for _, u := range s.flows[i].usages {
			cnt[u.res+1]++
		}
	}
	for i := 0; i < nr; i++ {
		cnt[i+1] += cnt[i]
	}
	if cap(s.resFlows) < totalUsages {
		s.resFlows = make([]int32, totalUsages)
	}
	s.resFlows = s.resFlows[:totalUsages]
	// cnt now holds start offsets; advance them while filling, then they
	// have become the end offsets (resStart[ri] = end of ri-1 = start of ri
	// shifted by one): restore by noting start(ri) = cnt[ri] - count(ri) is
	// awkward, so fill via a moving cursor and rebuild the starts after.
	for i := range s.flows {
		for _, u := range s.flows[i].usages {
			s.resFlows[cnt[u.res]] = int32(i)
			cnt[u.res]++
		}
	}
	// cnt[ri] is now the END of resource ri's span; the start is the
	// previous resource's end (0 for the first).

	for i := range s.compFlow {
		s.compFlow[i] = -1
	}
	for i := 0; i < nr; i++ {
		s.compRes[i] = -1
	}
	comps := 0
	for i := 0; i < n; i++ {
		if s.compFlow[i] >= 0 {
			continue
		}
		c := int32(comps)
		comps++
		for len(s.compDirty) < comps {
			s.compDirty = append(s.compDirty, false)
		}
		dirty := !tracked
		q := s.queue[:0]
		q = append(q, int32(i))
		s.compFlow[i] = c
		for len(q) > 0 {
			fi := q[len(q)-1]
			q = q[:len(q)-1]
			f := &s.flows[fi]
			if f.bn == bnUnsolved {
				dirty = true
			}
			for _, u := range f.usages {
				if s.compRes[u.res] >= 0 {
					continue
				}
				s.compRes[u.res] = c
				if len(s.dirtyMark) > int(u.res) && s.dirtyMark[u.res] {
					dirty = true
				}
				start := int32(0)
				if u.res > 0 {
					start = cnt[u.res-1]
				}
				for k := start; k < cnt[u.res]; k++ {
					g := s.resFlows[k]
					if s.compFlow[g] < 0 {
						s.compFlow[g] = c
						q = append(q, g)
					}
				}
			}
		}
		s.compDirty[c] = dirty
	}

	// Group flow indices by component (counting sort again, so members are
	// in ascending flow order — the order the water-filling accumulations
	// must run in to stay bit-identical to a global pass).
	if cap(s.compStart) < comps+1 {
		s.compStart = make([]int32, comps+1)
	}
	s.compStart = s.compStart[:comps+1]
	for i := range s.compStart {
		s.compStart[i] = 0
	}
	for i := 0; i < n; i++ {
		s.compStart[s.compFlow[i]+1]++
	}
	for c := 0; c < comps; c++ {
		s.compStart[c+1] += s.compStart[c]
	}
	cur := s.queue[:comps]
	for c := 0; c < comps; c++ {
		cur[c] = s.compStart[c]
	}
	for i := 0; i < n; i++ {
		c := s.compFlow[i]
		s.compFlows[cur[c]] = int32(i)
		cur[c]++
	}
	s.labelsValid = true
	s.labeledComps = comps
	s.labeledNR = nr
	return comps
}

// regroupComponents rebuilds compStart/compFlows from still-valid labels and
// recomputes compDirty from the dirty resources alone — the removal-only
// steady state, where a BFS over every usage would rediscover what the labels
// already say. Requires labelsValid, no pending adds, and an unchanged
// resource count.
func (s *Solver) regroupComponents() int {
	n := len(s.flows)
	comps := s.labeledComps
	for c := 0; c < comps; c++ {
		s.compDirty[c] = false
	}
	for _, ri := range s.dirtyRes {
		if c := s.compRes[ri]; c >= 0 {
			s.compDirty[c] = true
		}
	}
	s.compStart = s.compStart[:comps+1]
	for i := range s.compStart {
		s.compStart[i] = 0
	}
	for i := 0; i < n; i++ {
		s.compStart[s.compFlow[i]+1]++
	}
	for c := 0; c < comps; c++ {
		s.compStart[c+1] += s.compStart[c]
	}
	cur := s.queue[:comps]
	for c := 0; c < comps; c++ {
		cur[c] = s.compStart[c]
	}
	for i := 0; i < n; i++ {
		c := s.compFlow[i]
		s.compFlows[cur[c]] = int32(i)
		cur[c]++
	}
	return comps
}

// solve brings the stored allocation up to date. With a converged prior
// allocation it re-levels only the connected components containing a dirty
// resource or a new flow; clean components keep their stored rates and
// bottlenecks, which a full pass would reproduce bit for bit. Without prior
// state (first solve, Reset, Invalidate, or after an error) every
// component re-levels — the full solve.
func (s *Solver) solve() error {
	n := len(s.flows)
	s.grow()
	if s.solved && s.pendingAdds == 0 && len(s.dirtyRes) == 0 {
		statIncremental.Add(1) // nothing changed; the allocation stands
		return nil
	}
	wasSolved := s.solved
	s.solved = false // invalid until this pass completes
	releveled := 0
	if !wasSolved {
		// No converged state to preserve: everything re-levels, so skip the
		// labeling BFS and water-fill the whole graph as one pseudo-component.
		// Iteration orders (flows ascending, resources in ID order) are those
		// of the labeled pass, so the result is bit-identical.
		s.labelsValid = false
		nr := len(s.resList)
		for i := 0; i < nr; i++ {
			s.compRes[i] = -1
		}
		for i := range s.flows {
			s.compFlows[i] = int32(i)
			for _, u := range s.flows[i].usages {
				s.compRes[u.res] = 0
			}
		}
		if err := s.solveComponent(0, s.compFlows[:n]); err != nil {
			return err
		}
		releveled = n
	} else {
		var comps int
		if s.labelsValid && s.pendingAdds == 0 && s.labeledNR == len(s.resList) {
			comps = s.regroupComponents()
		} else {
			comps = s.labelComponents(true)
		}
		for c := 0; c < comps; c++ {
			if !s.compDirty[c] {
				continue
			}
			members := s.compFlows[s.compStart[c]:s.compStart[c+1]]
			if err := s.solveComponent(int32(c), members); err != nil {
				return err
			}
			releveled += len(members)
		}
	}

	// Final utilization, recomputed globally in flow-index order — the same
	// accumulation a full pass runs, whichever components re-leveled.
	load := s.frozenLoad // reuse as the final-load scratch
	for i := range load {
		load[i] = 0
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

	s.solved = true
	s.pendingAdds = 0
	s.clearDirty()
	if wasSolved && releveled < n {
		statIncremental.Add(1)
	} else {
		statFull.Add(1)
	}
	return nil
}

// solveComponent runs the water-filling pass over one connected component.
// members lists the component's flow indices in ascending order; c is its
// label in compRes. The accumulation and visit orders — flows ascending,
// resources in ID order — match the global pass exactly, so the computed
// rates are bit-identical to solving the whole graph at once.
func (s *Solver) solveComponent(c int32, members []int32) error {
	for _, fi := range members {
		f := &s.flows[fi]
		f.rate, f.bn, f.frozen = 0, bnDemand, false
	}
	active := len(members)

	// The component's resources, collected once in ID order (the pass's
	// deterministic visit order) so each round iterates them directly instead
	// of filtering the full sorted table.
	resOrder := s.compResList[:0]
	for _, ri := range s.sorted {
		if s.compRes[ri] == c {
			resOrder = append(resOrder, ri)
		}
	}
	s.compResList = resOrder

	// Per-resource frozen load and active weight, recomputed each round
	// (rounds <= flows, resources bounded; fine for our sizes).
	for active > 0 {
		// Zero the scratch through resOrder, not member usages: under label
		// reuse the component may list resources whose last user was removed,
		// and those must read as unloaded, not as stale garbage.
		frozenLoad, activeWeight := s.frozenLoad, s.activeWeight
		for _, ri := range resOrder {
			frozenLoad[ri], activeWeight[ri] = 0, 0
		}
		for _, fi := range members {
			f := &s.flows[fi]
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
		for _, fi := range members {
			if !s.flows[fi].frozen {
				x = s.flows[fi].rate
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
		for _, fi := range members {
			f := &s.flows[fi]
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
		for _, fi := range members {
			f := &s.flows[fi]
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
