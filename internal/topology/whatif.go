package topology

import (
	"fmt"

	"numaio/internal/units"
)

// This file supports what-if analysis and failure injection: clone a
// machine, degrade or repair links, and re-derive models on the mutant —
// the workflow behind re-characterizing after hardware changes, which the
// paper's methodology makes cheap (no I/O benchmarks needed).

// Clone returns a deep copy of the machine; mutations on the copy leave the
// original untouched.
func (m *Machine) Clone() *Machine {
	out := &Machine{
		Name:             m.Name,
		Nodes:            append([]Node(nil), m.Nodes...),
		OSMemoryFraction: m.OSMemoryFraction,
		vertices:         make(map[string]*Vertex, len(m.vertices)),
		vorder:           append([]string(nil), m.vorder...),
		links:            append([]Link(nil), m.links...),
		adj:              make(map[string][]int, len(m.adj)),
		devices:          append([]Device(nil), m.devices...),
		routes:           make(map[routeKey][]int, len(m.routes)),
	}
	for id, v := range m.vertices {
		vv := *v
		out.vertices[id] = &vv
	}
	for id, idxs := range m.adj {
		out.adj[id] = append([]int(nil), idxs...)
	}
	for k, r := range m.routes {
		out.routes[k] = append([]int(nil), r...)
	}
	out.proven.Store(m.proven.Load())
	return out
}

// SetLinkCapacity overrides one directed link's capacity (failure
// injection / upgrade modelling). The capacity must stay positive.
func (m *Machine) SetLinkCapacity(idx int, cap units.Bandwidth) error {
	if idx < 0 || idx >= len(m.links) {
		return fmt.Errorf("topology: SetLinkCapacity: link %d out of range", idx)
	}
	if cap <= 0 {
		return fmt.Errorf("topology: SetLinkCapacity: nonpositive capacity %v", cap)
	}
	m.links[idx].Capacity = cap
	m.edited()
	return nil
}

// ScaleLink multiplies one directed link's capacity by factor (> 0).
func (m *Machine) ScaleLink(idx int, factor float64) error {
	if idx < 0 || idx >= len(m.links) {
		return fmt.Errorf("topology: ScaleLink: link %d out of range", idx)
	}
	if factor <= 0 {
		return fmt.Errorf("topology: ScaleLink: nonpositive factor %v", factor)
	}
	m.links[idx].Capacity = units.Bandwidth(float64(m.links[idx].Capacity) * factor)
	m.edited()
	return nil
}

// DegradeLinkBetween scales both directions between two vertices; it is the
// common failure-injection entry point ("this cable renegotiated to half
// width").
func (m *Machine) DegradeLinkBetween(a, b string, factor float64) error {
	ab := m.FindLink(a, b)
	ba := m.FindLink(b, a)
	if ab < 0 || ba < 0 {
		return fmt.Errorf("topology: no duplex link between %s and %s", a, b)
	}
	if err := m.ScaleLink(ab, factor); err != nil {
		return err
	}
	return m.ScaleLink(ba, factor)
}
