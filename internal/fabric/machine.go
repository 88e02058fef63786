package fabric

import "numaio/internal/topology"

// MachineResources returns the standing resources of a machine: one per
// directed link ("link:<i>") and one per node memory controller
// ("mem:<n>"). Core budgets and device engines are scenario-dependent and
// are registered by callers.
func MachineResources(m *topology.Machine) []Resource {
	var out []Resource
	for i, l := range m.Links() {
		out = append(out, Resource{ID: LinkResource(i), Capacity: l.Capacity})
	}
	for _, n := range m.Nodes {
		out = append(out, Resource{ID: MemResource(n.ID), Capacity: n.MemBandwidth})
	}
	return out
}

// PathUsages converts a route (link indices) into link usages with the
// given weight.
func PathUsages(route []int, weight float64) []Usage {
	out := make([]Usage, 0, len(route))
	for _, li := range route {
		out = append(out, Usage{Resource: LinkResource(li), Weight: weight})
	}
	return out
}

// CopyFlowUsages returns the resource usages of a bulk memory copy from
// src's memory to dst's memory performed by a DMA-style engine: the
// directed links of the src→dst route, plus one controller read at src and
// one controller write at dst. When src == dst the controller is charged
// twice, which halves the achievable local copy rate — the behaviour the
// paper relies on for the target node's "local" class.
func CopyFlowUsages(m *topology.Machine, src, dst topology.NodeID) ([]Usage, error) {
	route, err := m.RouteNodes(src, dst)
	if err != nil {
		return nil, err
	}
	return CopyUsages(route, src, dst), nil
}

// CopyUsages is CopyFlowUsages over a src→dst route the caller already
// derived.
func CopyUsages(route []int, src, dst topology.NodeID) []Usage {
	usages := make([]Usage, 0, len(route)+2)
	for _, li := range route {
		usages = append(usages, Usage{Resource: LinkResource(li), Weight: 1})
	}
	return append(usages,
		Usage{Resource: MemResource(src), Weight: 1},
		Usage{Resource: MemResource(dst), Weight: 1},
	)
}

// FillFlowUsages returns the usages of a write-only PIO stream (memset):
// the cores on node c stream stores toward memory on node mem. Only the
// outbound direction carries data and the controller is charged once, which
// is why memset runs faster than copy on real hosts.
func FillFlowUsages(m *topology.Machine, c, mem topology.NodeID, p PIOUsageParams) ([]Usage, error) {
	if c == mem {
		return []Usage{{Resource: MemResource(mem), Weight: 1}}, nil
	}
	outbound, err := m.RouteNodes(c, mem)
	if err != nil {
		return nil, err
	}
	var usages []Usage
	for _, li := range outbound {
		usages = append(usages, Usage{Resource: LinkResource(li), Weight: 1 + p.RequestOverhead})
	}
	usages = append(usages, Usage{Resource: MemResource(mem), Weight: 1})
	return usages, nil
}

// PIOUsageParams tunes how a programmed-I/O (CPU-driven) access pattern
// loads the fabric. STREAM-style kernels issue read requests toward the
// memory node and write data back; both directions carry data plus command
// overhead, and read responses can be penalized per link
// (Link.PIOResponsePenalty), modelling the cache-coherent buffer
// asymmetries of Sec. IV-A.
type PIOUsageParams struct {
	RequestOverhead  float64 // extra load on core→memory links (commands, writes)
	ResponseOverhead float64 // extra load on memory→core links (probes)
}

// DefaultPIOParams are the calibrated defaults.
func DefaultPIOParams() PIOUsageParams {
	return PIOUsageParams{RequestOverhead: 0.15, ResponseOverhead: 0.05}
}

// PIOFlowUsages returns the usages of a PIO stream running on the cores of
// node c against memory of node mem. Both the outbound (write data +
// requests) and inbound (read data + responses) directions are loaded; the
// memory controller of mem is charged twice (the kernel both reads and
// writes its arrays there).
//
// Read-response capacity penalties are expressed by inflating the flow's
// weight on penalized links (a penalty p < 1 becomes weight 1/p).
func PIOFlowUsages(m *topology.Machine, c, mem topology.NodeID, p PIOUsageParams) ([]Usage, error) {
	if c == mem {
		return []Usage{{Resource: MemResource(mem), Weight: 2}}, nil
	}
	outbound, err := m.RouteNodes(c, mem)
	if err != nil {
		return nil, err
	}
	inbound, err := m.RouteNodes(mem, c)
	if err != nil {
		return nil, err
	}
	var usages []Usage
	for _, li := range outbound {
		usages = append(usages, Usage{Resource: LinkResource(li), Weight: 1 + p.RequestOverhead})
	}
	for _, li := range inbound {
		l := m.Link(li)
		w := (1 + p.ResponseOverhead) / l.PIOResponseFactor()
		usages = append(usages, Usage{Resource: LinkResource(li), Weight: w})
	}
	usages = append(usages, Usage{Resource: MemResource(mem), Weight: 2})
	return usages, nil
}
