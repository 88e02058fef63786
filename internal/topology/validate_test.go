package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"numaio/internal/units"
)

// profileNames lists every distinct canned profile.
var profileNames = []string{
	"dl585g7", "dl585g7-dualport", "magny-a", "magny-b", "magny-c", "magny-d",
	"intel-4s4n", "amd-4s8n", "amd-8s8n", "hp-blade32",
}

func mustProfile(t *testing.T, name string) *Machine {
	t.Helper()
	m, err := ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// machineEdit is one step of a random edit sequence. It edits m (or a
// clone of it, which it returns) and names what it did.
type machineEdit func(rng *rand.Rand, m *Machine) (*Machine, string)

// randomLink picks a directed link of m.
func randomLink(rng *rand.Rand, m *Machine) (int, Link) {
	li := rng.Intn(m.NumLinks())
	return li, m.Link(li)
}

// randomVertex picks a vertex of m.
func randomVertex(rng *rand.Rand, m *Machine) string {
	return m.vorder[rng.Intn(len(m.vorder))]
}

// machineEdits are the edits the route-proof memo must survive: every
// method that changes a machine after construction, Clone, and direct
// edits of the exported fields. Some of them make a valid machine invalid
// (an island node, a node without a vertex, a duplicate ID, a zero
// capacity, an OS memory fraction of 1) and others repair it.
var machineEdits = []machineEdit{
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		return m.Clone(), "Clone"
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		li, _ := randomLink(rng, m)
		c := units.Bandwidth(1+rng.Float64()*50) * units.Gbps
		return m, fmt.Sprintf("SetLinkCapacity(%d, %v) = %v", li, c, m.SetLinkCapacity(li, c))
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		li, _ := randomLink(rng, m)
		f := 0.1 + 2*rng.Float64()
		return m, fmt.Sprintf("ScaleLink(%d, %v) = %v", li, f, m.ScaleLink(li, f))
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		_, l := randomLink(rng, m)
		f := 0.1 + 2*rng.Float64()
		return m, fmt.Sprintf("DegradeLinkBetween(%s, %s, %v) = %v", l.From, l.To, f, m.DegradeLinkBetween(l.From, l.To, f))
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		// Pin a two-hop walk, which may not be the computed route.
		_, l := randomLink(rng, m)
		next := m.adj[l.To]
		if len(next) == 0 {
			return m, "RouteVia skipped"
		}
		to := m.links[next[rng.Intn(len(next))]].To
		return m, fmt.Sprintf("RouteVia(%s, %s, %s) = %v", l.From, l.To, to, m.RouteVia(l.From, l.To, to))
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		// Pin the route a pair already takes.
		a, b := m.Nodes[rng.Intn(len(m.Nodes))].ID, m.Nodes[rng.Intn(len(m.Nodes))].ID
		r, err := m.RouteNodes(a, b)
		if err != nil {
			return m, fmt.Sprintf("SetRoute skipped: %v", err)
		}
		return m, fmt.Sprintf("SetRoute(%d, %d, %v) = %v", a, b, r, m.SetRoute(NodeVertexID(a), NodeVertexID(b), r))
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		l := Link{From: randomVertex(rng, m), To: randomVertex(rng, m), Kind: LinkHT, WidthBits: 16,
			Capacity: units.Bandwidth(1+rng.Float64()*50) * units.Gbps}
		if rng.Intn(8) == 0 {
			l.Capacity = 0
		}
		m.AddLink(l)
		return m, fmt.Sprintf("AddLink(%s->%s, %v)", l.From, l.To, l.Capacity)
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		id := fmt.Sprintf("dev%d", len(m.vorder))
		hub := randomVertex(rng, m)
		m.AddDevice(id, DeviceSSD, hub, 32*units.Gbps, units.Duration(1e-7))
		return m, fmt.Sprintf("AddDevice(%s, %s)", id, hub)
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		// A node with no vertex, or an island once given one below.
		id := NodeID(40 + rng.Intn(8))
		m.Nodes = append(m.Nodes, Node{ID: id, Cores: 4, Memory: units.GiB, MemBandwidth: 10 * units.Gbps})
		return m, fmt.Sprintf("Nodes += node %d", id)
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		// Give a node its vertex: an I/O hub may carry any vertex ID, and
		// this one is linked to a node that has its own.
		id := NodeVertexID(NodeID(40 + rng.Intn(8)))
		at := m.Nodes[rng.Intn(len(m.Nodes))].ID
		if _, ok := m.vertices[id]; ok {
			return m, "AddIOHub skipped"
		}
		if _, ok := m.vertices[NodeVertexID(at)]; !ok {
			return m, "AddIOHub skipped"
		}
		m.AddIOHub(id, at, 20*units.Gbps, units.Duration(1e-7))
		return m, fmt.Sprintf("AddIOHub(%s, %d)", id, at)
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		if len(m.Nodes) < 2 {
			return m, "Nodes drop skipped"
		}
		i := rng.Intn(len(m.Nodes))
		id := m.Nodes[i].ID
		m.Nodes = append(m.Nodes[:i:i], m.Nodes[i+1:]...)
		return m, fmt.Sprintf("Nodes -= node %d", id)
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		i, j := rng.Intn(len(m.Nodes)), rng.Intn(len(m.Nodes))
		m.Nodes[i], m.Nodes[j] = m.Nodes[j], m.Nodes[i]
		return m, fmt.Sprintf("Nodes swap %d, %d", i, j)
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		i, id := rng.Intn(len(m.Nodes)), NodeID(rng.Intn(48))
		old := m.Nodes[i].ID
		m.Nodes[i].ID = id
		return m, fmt.Sprintf("Nodes[%d].ID %d -> %d", i, old, id)
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		i, cores := rng.Intn(len(m.Nodes)), rng.Intn(3)
		m.Nodes[i].Cores = cores
		return m, fmt.Sprintf("Nodes[%d].Cores = %d", i, cores)
	},
	func(rng *rand.Rand, m *Machine) (*Machine, string) {
		f := []float64{0, 0.05, 1}[rng.Intn(3)]
		m.OSMemoryFraction = f
		return m, fmt.Sprintf("OSMemoryFraction = %v", f)
	},
}

// checkValidate compares m's memoized Validate, twice (the second call
// may answer from the first's proof), with an un-memoized check.
func checkValidate(t *testing.T, m *Machine, history []string) bool {
	t.Helper()
	want := fmt.Sprint(m.validate(false))
	for i := 0; i < 2; i++ {
		if got := fmt.Sprint(m.Validate()); got != want {
			t.Errorf("%s: Validate call %d = %s, un-memoized check = %s after:\n  %s",
				m.Name, i+1, got, want, strings.Join(history, "\n  "))
			return false
		}
	}
	return true
}

// TestValidateMemoMatchesFresh runs random edit sequences over every
// profile, starting valid, starting with a node that has no path and
// starting with an out-of-range OS memory fraction. After every step each
// machine of the sequence, the edited one, its clones and the machines
// they were cloned from, must validate exactly as an un-memoized check
// does.
func TestValidateMemoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	starts := []func(*Machine){
		func(*Machine) {},
		func(m *Machine) {
			m.addVertex(Vertex{ID: NodeVertexID(40), Kind: VertexNode, Node: 40})
			m.Nodes = append(m.Nodes, Node{ID: 40, Cores: 4, Memory: units.GiB, MemBandwidth: 10 * units.Gbps})
		},
		func(m *Machine) { m.OSMemoryFraction = 1 },
	}
	for _, name := range profileNames {
		for si, start := range starts {
			m := mustProfile(t, name)
			start(m)
			// Each route check costs about nodes² routes; keep the
			// 32-node profile's sequences short.
			steps := 40
			if len(m.Nodes) > 8 {
				steps = 10
			}
			history := []string{fmt.Sprintf("%s, start %d", name, si)}
			pool := []*Machine{m}
			if !checkValidate(t, m, history) {
				continue
			}
		sequence:
			for step := 0; step < steps; step++ {
				i := rng.Intn(len(pool))
				edited, what := machineEdits[rng.Intn(len(machineEdits))](rng, pool[i])
				history = append(history, fmt.Sprintf("machine %d: %s", i, what))
				if edited != pool[i] {
					if len(pool) < 3 {
						pool = append(pool, edited)
					} else {
						pool[i] = edited
					}
				}
				for _, pm := range pool {
					if !checkValidate(t, pm, history) {
						break sequence
					}
				}
			}
		}
	}
}

// TestValidateProofLifecycle: a passed check is remembered and answers
// the next call, Clone shares it, and every edit method drops it from the
// machine it edits and from no other.
func TestValidateProofLifecycle(t *testing.T) {
	edits := []struct {
		name string
		edit func(m *Machine) error
	}{
		{"addVertex", func(m *Machine) error {
			m.addVertex(Vertex{ID: "iohub0", Kind: VertexIOHub, Node: 0})
			return nil
		}},
		{"AddLink", func(m *Machine) error {
			m.AddLink(Link{From: "node0", To: "node7", Capacity: units.Gbps})
			return nil
		}},
		{"AddDuplexLink", func(m *Machine) error {
			m.AddDuplexLink("node1", "node6", LinkHT, 16, units.Gbps, 0)
			return nil
		}},
		{"AddAsymLink", func(m *Machine) error {
			m.AddAsymLink("node1", "node6", LinkHT, 16, units.Gbps, 2*units.Gbps, 0)
			return nil
		}},
		{"AddIOHub", func(m *Machine) error {
			m.AddIOHub("iohub0", 0, units.Gbps, 0)
			return nil
		}},
		{"AddSwitch", func(m *Machine) error {
			m.AddSwitch("switch7", IOHub7, units.Gbps, 0)
			return nil
		}},
		{"AddDevice", func(m *Machine) error {
			m.AddDevice("ssd9", DeviceSSD, IOHub7, units.Gbps, 0)
			return nil
		}},
		{"SetRoute", func(m *Machine) error {
			return m.SetRoute("node0", "node1", []int{m.FindLink("node0", "node1")})
		}},
		{"RouteVia", func(m *Machine) error { return m.RouteVia("node0", "node1") }},
		{"SetLinkCapacity", func(m *Machine) error { return m.SetLinkCapacity(0, units.Gbps) }},
		{"ScaleLink", func(m *Machine) error { return m.ScaleLink(0, 0.5) }},
		{"DegradeLinkBetween", func(m *Machine) error { return m.DegradeLinkBetween("node6", "node7", 0.5) }},
	}
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			m := DL585G7()
			if m.proven.Load() != nil {
				t.Fatal("a machine that was never validated has a route proof")
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			proof := m.proven.Load()
			if proof == nil {
				t.Fatal("a passed check left no route proof")
			}
			if err := m.Validate(); err != nil || m.proven.Load() != proof {
				t.Fatalf("a second Validate (%v) ran the route check again", err)
			}
			c := m.Clone()
			if c.proven.Load() != proof {
				t.Fatal("Clone did not copy the route proof")
			}
			if err := tc.edit(c); err != nil {
				t.Fatal(err)
			}
			if c.proven.Load() != nil {
				t.Errorf("%s kept the route proof", tc.name)
			}
			if m.proven.Load() != proof {
				t.Errorf("%s on a clone dropped the original's route proof", tc.name)
			}
		})
	}
}

// TestValidateCloneConcurrent: goroutines validate and clone one shared
// machine at once, as the daemon's requests do with a shared profile, and
// validate and edit their own clones. Run it under -race.
func TestValidateCloneConcurrent(t *testing.T) {
	shared := DL585G7()
	want, err := Fingerprint(shared)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := shared.Validate(); err != nil {
					t.Error(err)
					return
				}
				c := shared.Clone()
				if err := c.Validate(); err != nil {
					t.Error(err)
					return
				}
				if err := c.ScaleLink((g+i)%c.NumLinks(), 0.5); err != nil {
					t.Error(err)
					return
				}
				if err := c.Validate(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, err := Fingerprint(shared); err != nil || got != want {
		t.Errorf("shared machine fingerprints to %s (%v), want %s", got, err, want)
	}
	if shared.proven.Load() == nil {
		t.Error("shared machine has no route proof after passing checks")
	}
}

// TestValidateProvenAllocs: validating a copy of a validated machine runs
// only the field checks.
func TestValidateProvenAllocs(t *testing.T) {
	m := DL585G7()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	fresh := testing.AllocsPerRun(20, func() { _ = c.validate(false) })
	proven := testing.AllocsPerRun(20, func() { _ = c.Validate() })
	if proven > 2 || proven*10 > fresh {
		t.Errorf("proven Validate: %.0f allocs, full check %.0f", proven, fresh)
	}
}
