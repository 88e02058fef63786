package topology

import (
	"math"
	"testing"

	"numaio/internal/units"
)

func TestNewMachineCreatesNodeVertices(t *testing.T) {
	m := New("test", magnyNodes())
	for i := 0; i < 8; i++ {
		v, ok := m.Vertex(NodeVertexID(NodeID(i)))
		if !ok {
			t.Fatalf("vertex for node %d missing", i)
		}
		if v.Kind != VertexNode || v.Node != NodeID(i) {
			t.Errorf("vertex %d = %+v", i, v)
		}
	}
	if got := m.NumNodes(); got != 8 {
		t.Errorf("NumNodes = %d, want 8", got)
	}
}

func TestAddLinkUnknownVertexPanics(t *testing.T) {
	m := New("test", magnyNodes())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown vertex")
		}
	}()
	m.AddLink(Link{From: "node0", To: "nowhere", Capacity: units.Gbps})
}

func TestRelations(t *testing.T) {
	m := MagnyCours4P(VariantA)
	cases := []struct {
		a, b NodeID
		want Relationship
	}{
		{7, 7, Local},
		{7, 6, Neighbor},
		{6, 7, Neighbor},
		{7, 0, Remote},
		{0, 3, Remote},
		{2, 3, Neighbor},
	}
	for _, c := range cases {
		if got := m.Relation(c.a, c.b); got != c.want {
			t.Errorf("Relation(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Fig. 1(a) example from Sec. II-A: node 7 is one hop from {0,2,4} and two
// hops from {1,3,5}.
func TestVariantAHopDistances(t *testing.T) {
	m := MagnyCours4P(VariantA)
	wantOne := []NodeID{0, 2, 4, 6}
	wantTwo := []NodeID{1, 3, 5}
	for _, n := range wantOne {
		if h, err := m.HopDistance(7, n); err != nil || h != 1 {
			t.Errorf("HopDistance(7,%d) = %d, %v; want 1", n, h, err)
		}
	}
	for _, n := range wantTwo {
		if h, err := m.HopDistance(7, n); err != nil || h != 2 {
			t.Errorf("HopDistance(7,%d) = %d, %v; want 2", n, h, err)
		}
	}
	if h, _ := m.HopDistance(7, 7); h != 0 {
		t.Errorf("HopDistance(7,7) = %d, want 0", h)
	}
}

func TestAllProfilesValidate(t *testing.T) {
	machines := []*Machine{
		MagnyCours4P(VariantA), MagnyCours4P(VariantB),
		MagnyCours4P(VariantC), MagnyCours4P(VariantD),
		DL585G7(), Intel4S4N(), AMD4S8N(), AMD8S8N(), HPBlade32(),
	}
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	if err := New("empty", nil).Validate(); err == nil {
		t.Error("empty machine should fail validation")
	}

	dup := New("dup", []Node{
		{ID: 0, Cores: 1, Memory: units.GiB, MemBandwidth: units.Gbps},
		{ID: 0, Cores: 1, Memory: units.GiB, MemBandwidth: units.Gbps},
	})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate node IDs should fail validation")
	}

	island := New("island", []Node{
		{ID: 0, Cores: 1, Memory: units.GiB, MemBandwidth: units.Gbps},
		{ID: 1, Cores: 1, Memory: units.GiB, MemBandwidth: units.Gbps},
	})
	if err := island.Validate(); err == nil {
		t.Error("disconnected nodes should fail validation")
	}

	badCap := New("badcap", []Node{
		{ID: 0, Cores: 1, Memory: units.GiB, MemBandwidth: units.Gbps},
	})
	badCap.AddLink(Link{From: "node0", To: "node0", Capacity: 0})
	if err := badCap.Validate(); err == nil {
		t.Error("zero-capacity link should fail validation")
	}
}

func TestRouteSelfIsEmpty(t *testing.T) {
	m := DL585G7()
	r, err := m.Route("node3", "node3")
	if err != nil || len(r) != 0 {
		t.Errorf("Route(self) = %v, %v; want empty", r, err)
	}
	if c := m.PathCapacity(r); !math.IsInf(float64(c), 1) {
		t.Errorf("empty path capacity = %v, want +Inf", c)
	}
	if l := m.PathLatency(r); l != 0 {
		t.Errorf("empty path latency = %v, want 0", l)
	}
}

func TestRouteUnknownVertex(t *testing.T) {
	m := DL585G7()
	if _, err := m.Route("node0", "nowhere"); err == nil {
		t.Error("expected error for unknown destination")
	}
	if _, err := m.Route("nowhere", "node0"); err == nil {
		t.Error("expected error for unknown source")
	}
}

// Routes must be connected paths whose length equals the BFS hop distance
// (except where firmware routes are pinned, which are also hop-minimal in
// the DL585G7 profile).
func TestRoutesAreConnectedShortestPaths(t *testing.T) {
	for _, m := range []*Machine{MagnyCours4P(VariantA), MagnyCours4P(VariantC), DL585G7(), AMD8S8N(), HPBlade32()} {
		for _, a := range m.NodeIDs() {
			dist := m.bfsDistances(NodeVertexID(a))
			for _, b := range m.NodeIDs() {
				route, err := m.RouteNodes(a, b)
				if err != nil {
					t.Fatalf("%s: route %d->%d: %v", m.Name, a, b, err)
				}
				if err := m.validatePath(NodeVertexID(a), NodeVertexID(b), route); err != nil {
					t.Errorf("%s: %v", m.Name, err)
				}
				if want := dist[NodeVertexID(b)]; len(route) != want {
					t.Errorf("%s: route %d->%d has %d hops, BFS distance %d",
						m.Name, a, b, len(route), want)
				}
			}
		}
	}
}

// Among equal-hop paths the router must prefer the widest bottleneck.
func TestRoutePrefersWidestShortest(t *testing.T) {
	nodes := []Node{
		{ID: 0, Cores: 1, Memory: units.GiB, MemBandwidth: units.Gbps},
		{ID: 1, Cores: 1, Memory: units.GiB, MemBandwidth: units.Gbps},
		{ID: 2, Cores: 1, Memory: units.GiB, MemBandwidth: units.Gbps},
		{ID: 3, Cores: 1, Memory: units.GiB, MemBandwidth: units.Gbps},
	}
	m := New("diamond", nodes)
	// Two 2-hop paths 0->3: via 1 (narrow) and via 2 (wide).
	m.AddDuplexLink("node0", "node1", LinkHT, 8, 10*units.Gbps, 0)
	m.AddDuplexLink("node1", "node3", LinkHT, 8, 10*units.Gbps, 0)
	m.AddDuplexLink("node0", "node2", LinkHT, 16, 40*units.Gbps, 0)
	m.AddDuplexLink("node2", "node3", LinkHT, 16, 40*units.Gbps, 0)
	route, err := m.RouteNodes(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PathCapacity(route); got != 40*units.Gbps {
		t.Errorf("bottleneck = %v, want 40Gb/s (router must pick wide path)", got)
	}
}

func TestSetRouteValidation(t *testing.T) {
	m := DL585G7()
	// Broken path: single link that does not reach the destination.
	li := m.FindLink("node0", "node1")
	if li < 0 {
		t.Fatal("missing link node0->node1")
	}
	if err := m.SetRoute("node0", "node7", []int{li}); err == nil {
		t.Error("expected error for path ending at wrong vertex")
	}
	if err := m.SetRoute("node0", "node1", []int{9999}); err == nil {
		t.Error("expected error for out-of-range link index")
	}
	if err := m.SetRoute("node0", "node1", []int{li}); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
}

func TestRouteViaPinning(t *testing.T) {
	m := DL585G7()
	// The profile pins 3->7 via node 2, landing on the starved 2->7 link.
	route, err := m.RouteNodes(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 2 {
		t.Fatalf("route 3->7 has %d hops, want 2", len(route))
	}
	if mid := m.Link(route[0]).To; mid != "node2" {
		t.Errorf("route 3->7 passes %s, want node2", mid)
	}
	if got := m.PathCapacity(route); got != 26.5*units.Gbps {
		t.Errorf("route 3->7 bottleneck = %v, want 26.5Gb/s", got)
	}
	if err := m.RouteVia("node0"); err == nil {
		t.Error("RouteVia with one vertex should error")
	}
	if err := m.RouteVia("node0", "node7", "node6"); err != nil {
		t.Errorf("RouteVia along existing links failed: %v", err)
	}
	if err := m.RouteVia("node0", "node4"); err == nil {
		t.Error("RouteVia over missing link should error")
	}
}

func TestSLIT(t *testing.T) {
	m := MagnyCours4P(VariantA)
	slit, err := m.SLIT()
	if err != nil {
		t.Fatal(err)
	}
	if len(slit) != 8 {
		t.Fatalf("SLIT has %d rows", len(slit))
	}
	for i := range slit {
		if slit[i][i] != 10 {
			t.Errorf("SLIT[%d][%d] = %d, want 10", i, i, slit[i][i])
		}
	}
	if slit[7][6] != 20 {
		t.Errorf("SLIT[7][6] = %d, want 20 (neighbor, 1 hop)", slit[7][6])
	}
	if slit[7][1] != 30 {
		t.Errorf("SLIT[7][1] = %d, want 30 (2 hops)", slit[7][1])
	}
}

// Table I of the paper: NUMA factors of the four server configurations.
// The calibrated profiles must land within 10% of the published values.
func TestTableINUMAFactors(t *testing.T) {
	for _, row := range TableIMachines() {
		got, err := row.Machine.NUMAFactor()
		if err != nil {
			t.Errorf("%s: %v", row.Machine.Name, err)
			continue
		}
		if rel := math.Abs(got-row.Paper) / row.Paper; rel > 0.10 {
			t.Errorf("%s: NUMA factor %.2f, paper %.2f (off by %.0f%%)",
				row.Machine.Name, got, row.Paper, rel*100)
		}
	}
}

func TestAccessLatencyLocalVsRemote(t *testing.T) {
	m := AMD4S8N()
	local, err := m.AccessLatency(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	neighbor, err := m.AccessLatency(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	remote2, err := m.AccessLatency(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(local < neighbor && neighbor < remote2) {
		t.Errorf("latency ordering violated: local %v, neighbor %v, 2-hop %v",
			local, neighbor, remote2)
	}
}

// DL585G7 calibration: the path capacities into and out of node 7 must
// reproduce the class structure of Tables IV and V.
func TestDL585G7PathCapacityClasses(t *testing.T) {
	m := DL585G7()
	into := func(n NodeID) float64 {
		r, err := m.RouteNodes(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		return m.PathCapacity(r).Gbps()
	}
	outof := func(n NodeID) float64 {
		r, err := m.RouteNodes(7, n)
		if err != nil {
			t.Fatal(err)
		}
		return m.PathCapacity(r).Gbps()
	}

	// Write model (data toward node 7): {6} > {0,1,4,5} > {2,3}.
	for _, mid := range []NodeID{0, 1, 4, 5} {
		if !(into(6) > into(mid)) {
			t.Errorf("into(6)=%v should exceed into(%d)=%v", into(6), mid, into(mid))
		}
		for _, low := range []NodeID{2, 3} {
			if !(into(mid) > into(low)+10) {
				t.Errorf("into(%d)=%v should exceed into(%d)=%v by a wide gap",
					mid, into(mid), low, into(low))
			}
		}
	}

	// Read model (data away from node 7): {6} ~ {2,3} > {0,1,5} > {4}.
	for _, high := range []NodeID{6, 2, 3} {
		for _, mid := range []NodeID{0, 1, 5} {
			if !(outof(high) > outof(mid)) {
				t.Errorf("outof(%d)=%v should exceed outof(%d)=%v",
					high, outof(high), mid, outof(mid))
			}
		}
	}
	for _, mid := range []NodeID{0, 1, 5} {
		if !(outof(mid) > outof(4)+10) {
			t.Errorf("outof(%d)=%v should exceed outof(4)=%v by a wide gap",
				mid, outof(mid), outof(4))
		}
	}
}

func TestDevices(t *testing.T) {
	m := DL585G7()
	devs := m.Devices()
	if len(devs) != 3 {
		t.Fatalf("got %d devices, want 3", len(devs))
	}
	nic, ok := m.DeviceByID(NIC0)
	if !ok {
		t.Fatal("nic0 missing")
	}
	if nic.Kind != DeviceNIC || nic.Node != 7 || nic.Hub != IOHub7 {
		t.Errorf("nic0 = %+v", nic)
	}
	if _, ok := m.DeviceByID("nope"); ok {
		t.Error("DeviceByID should fail for unknown device")
	}

	dp, err := m.DeviceRoutes(NIC0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Device -> memory of node 3 must leave through the hub and node 7.
	if m.Link(dp.ToMemory[0]).From != NIC0 {
		t.Errorf("device path does not start at device")
	}
	if last := m.Link(dp.FromMemory[len(dp.FromMemory)-1]).To; last != NIC0 {
		t.Errorf("from-memory path ends at %s, want %s", last, NIC0)
	}
	if _, err := m.DeviceRoutes("nope", 3); err == nil {
		t.Error("DeviceRoutes should fail for unknown device")
	}
}

// DMA routes between the NIC and node memories must inherit the directed
// node-7 asymmetries: reading host memory on nodes 2,3 (device write path
// toward the device) is starved; writing host memory on node 4 is starved.
func TestDeviceRoutesInheritAsymmetry(t *testing.T) {
	m := DL585G7()
	for _, n := range []NodeID{2, 3} {
		dp, err := m.DeviceRoutes(NIC0, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.PathCapacity(dp.FromMemory).Gbps(); got > 27 {
			t.Errorf("NIC read from node %d memory: path %v Gb/s, want starved (<27)", n, got)
		}
	}
	dp, err := m.DeviceRoutes(NIC0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PathCapacity(dp.ToMemory).Gbps(); got > 29 {
		t.Errorf("NIC write to node 4 memory: path %v Gb/s, want starved (<29)", got)
	}
}

func TestKindStrings(t *testing.T) {
	if VertexNode.String() != "node" || VertexIOHub.String() != "iohub" || VertexDevice.String() != "device" {
		t.Error("vertex kind strings")
	}
	if LinkHT.String() != "HT" || LinkPCIe.String() != "PCIe" || LinkInternal.String() != "internal" {
		t.Error("link kind strings")
	}
	if DeviceNIC.String() != "nic" || DeviceSSD.String() != "ssd" {
		t.Error("device kind strings")
	}
	if Local.String() != "local" || Neighbor.String() != "neighbor" || Remote.String() != "remote" {
		t.Error("relationship strings")
	}
	if VertexKind(99).String() == "" || LinkKind(99).String() == "" ||
		DeviceKind(99).String() == "" || Relationship(99).String() == "" ||
		MagnyVariant(99).String() == "" {
		t.Error("fallback strings must be nonempty")
	}
}

func TestMustNodePanics(t *testing.T) {
	m := DL585G7()
	defer func() {
		if recover() == nil {
			t.Error("MustNode should panic for unknown node")
		}
	}()
	m.MustNode(42)
}

func TestNodeAccessors(t *testing.T) {
	m := DL585G7()
	n, ok := m.Node(7)
	if !ok || n.ID != 7 || n.Package != 3 || n.Cores != 4 {
		t.Errorf("Node(7) = %+v, %v", n, ok)
	}
	if _, ok := m.Node(99); ok {
		t.Error("Node(99) should not exist")
	}
	ids := m.NodeIDs()
	for i, id := range ids {
		if int(id) != i {
			t.Errorf("NodeIDs[%d] = %d", i, id)
		}
	}
	if m.NumLinks() == 0 || len(m.Links()) != m.NumLinks() {
		t.Error("link accessors inconsistent")
	}
	if len(m.vorder) < 8+4 {
		t.Errorf("expected at least 12 vertices, got %d", len(m.vorder))
	}
}

func TestEffectiveCoreMultiplier(t *testing.T) {
	if (Node{}).EffectiveCoreMultiplier() != 1 {
		t.Error("zero CoreMultiplier should default to 1")
	}
	if (Node{CoreMultiplier: 0.5}).EffectiveCoreMultiplier() != 0.5 {
		t.Error("explicit CoreMultiplier ignored")
	}
}

func TestLinkPIOResponseFactor(t *testing.T) {
	if (Link{}).PIOResponseFactor() != 1 {
		t.Error("default PIO response factor should be 1")
	}
	if (Link{PIOResponsePenalty: 0.78}).PIOResponseFactor() != 0.78 {
		t.Error("explicit PIO response factor ignored")
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"", "dl585g7", "dl585g7-dualport", "testbed",
		"magny-a", "magny-b", "magny-c", "magny-d", "intel-4s4n", "amd-4s8n",
		"amd-8s8n", "hp-blade32"} {
		m, err := ProfileByName(name)
		if err != nil || m == nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
			continue
		}
		if err := m.Validate(); err != nil {
			t.Errorf("ProfileByName(%q): invalid machine: %v", name, err)
		}
	}
	if _, err := ProfileByName("warp"); err == nil {
		t.Error("unknown profile should fail")
	}
}
