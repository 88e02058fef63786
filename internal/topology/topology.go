// Package topology models NUMA machine topologies: NUMA nodes with cores and
// memory controllers, directed interconnect links (HyperTransport, PCIe),
// I/O hubs and PCIe devices, plus routing over the resulting directed graph.
//
// A Machine is a static description; the bandwidth behaviour that emerges
// from it is computed by internal/fabric and internal/simhost. Directed links
// carry independent capacities, which is how the request/response-buffer and
// link-width asymmetries reported by the paper (Sec. IV-A) are expressed.
package topology

import (
	"fmt"
	"sort"
	"sync/atomic"

	"numaio/internal/units"
)

// NodeID identifies a NUMA node within a machine.
type NodeID int

// VertexKind distinguishes the kinds of routing-graph vertices.
type VertexKind int

// Vertex kinds.
const (
	VertexNode VertexKind = iota // a NUMA node (CPU die + memory controller)
	VertexIOHub
	VertexDevice
)

func (k VertexKind) String() string {
	switch k {
	case VertexNode:
		return "node"
	case VertexIOHub:
		return "iohub"
	case VertexDevice:
		return "device"
	default:
		return fmt.Sprintf("VertexKind(%d)", int(k))
	}
}

// Vertex is a point in the routing graph.
type Vertex struct {
	ID   string
	Kind VertexKind
	// Node is the NUMA node this vertex belongs to (for VertexNode) or is
	// attached to (for hubs and devices).
	Node NodeID
}

// LinkKind distinguishes interconnect technologies.
type LinkKind int

// Link kinds.
const (
	LinkHT LinkKind = iota // HyperTransport (node-to-node or node-to-hub)
	LinkPCIe
	LinkInternal // on-package or on-chip connection
)

func (k LinkKind) String() string {
	switch k {
	case LinkHT:
		return "HT"
	case LinkPCIe:
		return "PCIe"
	case LinkInternal:
		return "internal"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Link is a directed interconnect edge. Capacities are per direction; the
// reverse direction is a separate Link and may be configured differently
// (the paper ascribes its measured asymmetries to request/response buffer
// counts and per-direction link-width configuration).
type Link struct {
	From, To  string
	Kind      LinkKind
	WidthBits int // physical link width (8 or 16 for HT)
	Capacity  units.Bandwidth
	Latency   units.Duration
	// PIOResponsePenalty scales the usable capacity of this link when it
	// carries programmed-I/O read-response (cache-coherent data return)
	// traffic. DMA traffic is not affected. 0 means 1 (no penalty).
	PIOResponsePenalty float64
}

// PIOResponseFactor returns the effective PIO response multiplier.
func (l Link) PIOResponseFactor() float64 {
	if l.PIOResponsePenalty <= 0 {
		return 1
	}
	return l.PIOResponsePenalty
}

// Node describes one NUMA node: a CPU die with its cores and directly
// attached memory.
type Node struct {
	ID      NodeID
	Package int // physical CPU package (socket) index
	Die     int // die index within the package
	Cores   int
	Memory  units.Size
	LLC     units.Size // last-level cache size of the die
	// MemBandwidth is the node's memory-controller capacity. A copy that
	// both reads and writes the same node's memory consumes the controller
	// twice.
	MemBandwidth units.Bandwidth
	// MemLatency is the idle local-access latency (used for the NUMA
	// factor, Table I).
	MemLatency units.Duration
	// CoreIssueBandwidth is the aggregate data rate the node's cores can
	// drive with programmed I/O when all cores participate.
	CoreIssueBandwidth units.Bandwidth
	// CoreMultiplier derates the node's effective core throughput (for
	// example, the node handling device interrupts loses some capacity).
	// 0 means 1.
	CoreMultiplier float64
}

// EffectiveCoreMultiplier returns the node's core derating factor.
func (n Node) EffectiveCoreMultiplier() float64 {
	if n.CoreMultiplier <= 0 {
		return 1
	}
	return n.CoreMultiplier
}

// DeviceKind distinguishes PCIe device models.
type DeviceKind int

// Device kinds.
const (
	DeviceNIC DeviceKind = iota
	DeviceSSD
)

func (k DeviceKind) String() string {
	switch k {
	case DeviceNIC:
		return "nic"
	case DeviceSSD:
		return "ssd"
	default:
		return fmt.Sprintf("DeviceKind(%d)", int(k))
	}
}

// Device describes a PCIe device and its attachment point.
type Device struct {
	ID   string
	Kind DeviceKind
	Node NodeID // NUMA node whose I/O hub the device hangs off
	Hub  string // vertex ID of the I/O hub
}

// Machine is a complete static topology.
type Machine struct {
	Name  string
	Nodes []Node

	// OSMemoryFraction is the fraction of an application's nominally-local
	// memory references that actually land on node 0 (shared libraries, OS
	// buffers). Node 0 itself is unaffected. Sec. IV-A of the paper.
	OSMemoryFraction float64

	vertices map[string]*Vertex
	vorder   []string // insertion order, for deterministic iteration
	links    []Link
	adj      map[string][]int // vertex -> outgoing link indices
	devices  []Device

	routes map[routeKey][]int // optional explicit routing table

	// proven remembers a passed route check: the node IDs whose pairwise
	// routes Validate proved for this machine state. Every edit that can
	// change a route clears it (see edited), and Clone copies it. It is
	// atomic because machines shared read-only across goroutines are
	// validated concurrently.
	proven atomic.Pointer[routeProof]
}

type routeKey struct{ from, to string }

// routeProof is one passed route check. It lists the node IDs it covered,
// in Nodes order, because callers may edit the exported Nodes slice
// without going through a method.
type routeProof struct{ nodes []NodeID }

// edited drops the machine's route proof; every edit of vertices, links,
// capacities or pinned routes calls it.
func (m *Machine) edited() { m.proven.Store(nil) }

// NodeVertexID returns the routing-graph vertex ID for a NUMA node.
func NodeVertexID(n NodeID) string { return fmt.Sprintf("node%d", int(n)) }

// New creates an empty machine with the given name and NUMA nodes. A vertex
// is created for every node.
func New(name string, nodes []Node) *Machine {
	m := &Machine{
		Name:     name,
		Nodes:    append([]Node(nil), nodes...),
		vertices: make(map[string]*Vertex),
		adj:      make(map[string][]int),
		routes:   make(map[routeKey][]int),
	}
	for _, n := range m.Nodes {
		m.addVertex(Vertex{ID: NodeVertexID(n.ID), Kind: VertexNode, Node: n.ID})
	}
	return m
}

func (m *Machine) addVertex(v Vertex) {
	if _, ok := m.vertices[v.ID]; ok {
		return
	}
	vv := v
	m.vertices[v.ID] = &vv
	m.vorder = append(m.vorder, v.ID)
	m.edited()
}

// AddIOHub adds an I/O hub vertex attached to the given node and links it to
// the node in both directions with the supplied per-direction capacity.
func (m *Machine) AddIOHub(id string, node NodeID, cap units.Bandwidth, lat units.Duration) {
	m.addVertex(Vertex{ID: id, Kind: VertexIOHub, Node: node})
	m.AddDuplexLink(NodeVertexID(node), id, LinkHT, 16, cap, lat)
}

// AddSwitch adds an intermediate fan-out vertex (a PCIe switch or a
// multi-port card's shared bus) under an existing parent vertex.
func (m *Machine) AddSwitch(id, parent string, cap units.Bandwidth, lat units.Duration) {
	pv, ok := m.vertices[parent]
	if !ok {
		panic(fmt.Sprintf("topology: AddSwitch %q: unknown parent %q", id, parent))
	}
	m.addVertex(Vertex{ID: id, Kind: VertexIOHub, Node: pv.Node})
	m.AddDuplexLink(parent, id, LinkPCIe, 8, cap, lat)
}

// AddDevice adds a PCIe device vertex attached to hub and links it with the
// supplied per-direction PCIe capacity.
func (m *Machine) AddDevice(id string, kind DeviceKind, hub string, cap units.Bandwidth, lat units.Duration) {
	hv, ok := m.vertices[hub]
	if !ok {
		panic(fmt.Sprintf("topology: AddDevice %q: unknown hub %q", id, hub))
	}
	m.addVertex(Vertex{ID: id, Kind: VertexDevice, Node: hv.Node})
	m.AddDuplexLink(hub, id, LinkPCIe, 8, cap, lat)
	m.devices = append(m.devices, Device{ID: id, Kind: kind, Node: hv.Node, Hub: hub})
}

// AddLink adds a single directed link.
func (m *Machine) AddLink(l Link) {
	if _, ok := m.vertices[l.From]; !ok {
		panic(fmt.Sprintf("topology: AddLink: unknown vertex %q", l.From))
	}
	if _, ok := m.vertices[l.To]; !ok {
		panic(fmt.Sprintf("topology: AddLink: unknown vertex %q", l.To))
	}
	m.links = append(m.links, l)
	m.adj[l.From] = append(m.adj[l.From], len(m.links)-1)
	m.edited()
}

// AddDuplexLink adds a symmetric pair of directed links.
func (m *Machine) AddDuplexLink(a, b string, kind LinkKind, width int, cap units.Bandwidth, lat units.Duration) {
	m.AddLink(Link{From: a, To: b, Kind: kind, WidthBits: width, Capacity: cap, Latency: lat})
	m.AddLink(Link{From: b, To: a, Kind: kind, WidthBits: width, Capacity: cap, Latency: lat})
}

// AddAsymLink adds a pair of directed links with independent capacities.
func (m *Machine) AddAsymLink(a, b string, kind LinkKind, width int, capAB, capBA units.Bandwidth, lat units.Duration) {
	m.AddLink(Link{From: a, To: b, Kind: kind, WidthBits: width, Capacity: capAB, Latency: lat})
	m.AddLink(Link{From: b, To: a, Kind: kind, WidthBits: width, Capacity: capBA, Latency: lat})
}

// SetRoute pins an explicit route (a list of link indices, validated to form
// a connected path from from to to). Most machines rely on computed routing;
// explicit routes model firmware routing tables that deviate from shortest
// paths.
func (m *Machine) SetRoute(from, to string, linkIdx []int) error {
	if err := m.validatePath(from, to, linkIdx); err != nil {
		return err
	}
	m.routes[routeKey{from, to}] = append([]int(nil), linkIdx...)
	m.edited()
	return nil
}

func (m *Machine) validatePath(from, to string, path []int) error {
	cur := from
	for _, li := range path {
		if li < 0 || li >= len(m.links) {
			return fmt.Errorf("topology: route %s->%s: link index %d out of range", from, to, li)
		}
		l := m.links[li]
		if l.From != cur {
			return fmt.Errorf("topology: route %s->%s: link %d starts at %s, expected %s", from, to, li, l.From, cur)
		}
		cur = l.To
	}
	if cur != to {
		return fmt.Errorf("topology: route %s->%s: path ends at %s", from, to, cur)
	}
	return nil
}

// Vertex returns the vertex with the given ID.
func (m *Machine) Vertex(id string) (Vertex, bool) {
	v, ok := m.vertices[id]
	if !ok {
		return Vertex{}, false
	}
	return *v, true
}

// Links returns a copy of all directed links.
func (m *Machine) Links() []Link { return append([]Link(nil), m.links...) }

// Link returns the directed link with the given index.
func (m *Machine) Link(i int) Link { return m.links[i] }

// NumLinks returns the number of directed links.
func (m *Machine) NumLinks() int { return len(m.links) }

// Devices returns the machine's PCIe devices.
func (m *Machine) Devices() []Device { return append([]Device(nil), m.devices...) }

// DeviceByID returns the named device.
func (m *Machine) DeviceByID(id string) (Device, bool) {
	for _, d := range m.devices {
		if d.ID == id {
			return d, true
		}
	}
	return Device{}, false
}

// Node returns the node with the given ID.
func (m *Machine) Node(id NodeID) (Node, bool) {
	for i := range m.Nodes {
		if m.Nodes[i].ID == id {
			return m.Nodes[i], true
		}
	}
	return Node{}, false
}

// MustNode is Node but panics on unknown IDs; for internal wiring where the
// ID provably exists.
func (m *Machine) MustNode(id NodeID) Node {
	n, ok := m.Node(id)
	if !ok {
		panic(fmt.Sprintf("topology: unknown node %d in machine %q", int(id), m.Name))
	}
	return n
}

// NumNodes returns the number of NUMA nodes.
func (m *Machine) NumNodes() int { return len(m.Nodes) }

// NodeIDs returns all node IDs in ascending order.
func (m *Machine) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		ids = append(ids, n.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// PackageOf returns the package index of a node.
func (m *Machine) PackageOf(id NodeID) int { return m.MustNode(id).Package }

// Neighbors reports whether a and b are distinct dies in the same package.
func (m *Machine) Neighbors(a, b NodeID) bool {
	if a == b {
		return false
	}
	return m.PackageOf(a) == m.PackageOf(b)
}

// Relationship classifies b as seen from a, following the paper's
// terminology (Sec. II-A).
type Relationship int

// Relationship values.
const (
	Local Relationship = iota
	Neighbor
	Remote
)

func (r Relationship) String() string {
	switch r {
	case Local:
		return "local"
	case Neighbor:
		return "neighbor"
	case Remote:
		return "remote"
	default:
		return fmt.Sprintf("Relationship(%d)", int(r))
	}
}

// Relation classifies node b relative to node a.
func (m *Machine) Relation(a, b NodeID) Relationship {
	switch {
	case a == b:
		return Local
	case m.Neighbors(a, b):
		return Neighbor
	default:
		return Remote
	}
}

// Validate checks structural consistency: unique node IDs, positive
// capacities, link endpoints exist, and mutual reachability of all node
// vertices. The pairwise route check behind reachability runs once per
// machine state: a pass is remembered until the next edit, and Clone
// copies it, so validating a copy of a validated machine costs only the
// field checks.
func (m *Machine) Validate() error { return m.validate(true) }

// validate is Validate. With memo false it runs the route check even when
// an earlier call proved this state, and records nothing.
func (m *Machine) validate(memo bool) error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("topology: machine %q has no nodes", m.Name)
	}
	seen := make(map[NodeID]bool)
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if seen[n.ID] {
			return fmt.Errorf("topology: machine %q: duplicate node %d", m.Name, int(n.ID))
		}
		seen[n.ID] = true
		if n.Cores <= 0 {
			return fmt.Errorf("topology: node %d: nonpositive core count", int(n.ID))
		}
		if n.MemBandwidth <= 0 {
			return fmt.Errorf("topology: node %d: nonpositive memory bandwidth", int(n.ID))
		}
		if n.Memory <= 0 {
			return fmt.Errorf("topology: node %d: nonpositive memory size", int(n.ID))
		}
	}
	for i, l := range m.links {
		if l.Capacity <= 0 {
			return fmt.Errorf("topology: link %d (%s->%s): nonpositive capacity", i, l.From, l.To)
		}
		if l.Latency < 0 {
			return fmt.Errorf("topology: link %d (%s->%s): negative latency", i, l.From, l.To)
		}
	}
	if !memo || !m.routesProven() {
		for i := range m.Nodes {
			for j := range m.Nodes {
				a, b := m.Nodes[i].ID, m.Nodes[j].ID
				if a == b {
					continue
				}
				if _, err := m.Route(NodeVertexID(a), NodeVertexID(b)); err != nil {
					return fmt.Errorf("topology: machine %q: %v", m.Name, err)
				}
			}
		}
		if memo {
			p := &routeProof{nodes: make([]NodeID, len(m.Nodes))}
			for i := range m.Nodes {
				p.nodes[i] = m.Nodes[i].ID
			}
			m.proven.Store(p)
		}
	}
	if m.OSMemoryFraction < 0 || m.OSMemoryFraction >= 1 {
		return fmt.Errorf("topology: machine %q: OSMemoryFraction %v out of [0,1)", m.Name, m.OSMemoryFraction)
	}
	return nil
}

// routesProven reports whether an earlier route check passed on this
// machine state, over the node IDs Nodes holds now.
func (m *Machine) routesProven() bool {
	p := m.proven.Load()
	if p == nil || len(p.nodes) != len(m.Nodes) {
		return false
	}
	for i := range m.Nodes {
		if p.nodes[i] != m.Nodes[i].ID {
			return false
		}
	}
	return true
}
