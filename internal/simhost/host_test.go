package simhost

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"numaio/internal/fabric"
	"numaio/internal/topology"
	"numaio/internal/units"
)

func newTestHost(t *testing.T) *Host {
	t.Helper()
	h, err := NewHost(topology.DL585G7())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHostValidates(t *testing.T) {
	if _, err := NewHost(topology.New("empty", nil)); err == nil {
		t.Error("invalid machine should be rejected")
	}
}

// Sec. IV-A: on an idle system every node has ~4 GB free except node 0 with
// ~1.5 GB (the OS reservation).
func TestOSReservationOnNode0(t *testing.T) {
	h := newTestHost(t)
	if got := h.FreeMem(0); got != 4*units.GiB-DefaultOSReservation {
		t.Errorf("node 0 free = %v, want 1.5GiB", got)
	}
	for n := topology.NodeID(1); n < 8; n++ {
		if got := h.FreeMem(n); got != 4*units.GiB {
			t.Errorf("node %d free = %v, want 4GiB", n, got)
		}
	}
	// A lowest node smaller than the reservation is left with none free.
	small, err := NewHost(topology.New("small-node0", []topology.Node{
		{ID: 0, Cores: 2, Memory: units.GiB, MemBandwidth: 10 * units.Gbps},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := small.FreeMem(0); got != 0 {
		t.Errorf("node 0 of 1GiB free = %v, want 0", got)
	}
}

func TestAllocBindStrict(t *testing.T) {
	h := newTestHost(t)
	b, err := h.Alloc(AllocRequest{Size: units.GiB, Policy: PolicyBind, Target: 3, TaskNode: 7})
	if err != nil {
		t.Fatal(err)
	}
	if b.HomeNode() != 3 || !slices.Equal(b.Pages, []Share{{3, units.GiB}}) {
		t.Errorf("buffer = %+v", b)
	}
	if got := h.FreeMem(3); got != 3*units.GiB {
		t.Errorf("node 3 free = %v", got)
	}
	// Bind must fail when the node is full.
	if _, err := h.Alloc(AllocRequest{Size: 10 * units.GiB, Policy: PolicyBind, Target: 3, TaskNode: 7}); err == nil {
		t.Error("oversized bind should fail")
	}
	st := h.Stats(3)
	if st.NumaHit != 1 || st.OtherNode != 1 {
		t.Errorf("stats(3) = %+v", st)
	}
}

func TestAllocPreferredFallback(t *testing.T) {
	h := newTestHost(t)
	// Fill node 2 completely.
	if _, err := h.Alloc(AllocRequest{Size: 4 * units.GiB, Policy: PolicyBind, Target: 2, TaskNode: 2}); err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(AllocRequest{Size: units.GiB, Policy: PolicyLocalPreferred, TaskNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.HomeNode() == 2 {
		t.Error("fallback should pick another node")
	}
	if st := h.Stats(2); st.NumaForeign != 1 {
		t.Errorf("stats(2).NumaForeign = %d, want 1", st.NumaForeign)
	}
	if st := h.Stats(b.HomeNode()); st.NumaMiss != 1 {
		t.Errorf("stats(%d).NumaMiss = %d, want 1", b.HomeNode(), st.NumaMiss)
	}
}

func TestAllocLocalPreferred(t *testing.T) {
	h := newTestHost(t)
	b, err := h.Alloc(AllocRequest{Size: units.GiB, Policy: PolicyLocalPreferred, TaskNode: 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.HomeNode() != 5 {
		t.Errorf("local-preferred landed on %d", b.HomeNode())
	}
	if st := h.Stats(5); st.LocalNode != 1 || st.NumaHit != 1 {
		t.Errorf("stats(5) = %+v", st)
	}
}

func TestAllocInterleaveEvenSplit(t *testing.T) {
	h := newTestHost(t)
	b, err := h.Alloc(AllocRequest{Size: 8 * units.GiB, Policy: PolicyInterleave, TaskNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Pages) != 8 {
		t.Fatalf("interleave spread over %d nodes, want 8", len(b.Pages))
	}
	for i, sh := range b.Pages {
		if sh != (Share{topology.NodeID(i), units.GiB}) {
			t.Errorf("share %d = %+v, want 1GiB on node %d", i, sh, i)
		}
	}
	if st := h.Stats(4); st.InterleaveHit != 1 {
		t.Errorf("stats(4).InterleaveHit = %d", st.InterleaveHit)
	}
}

func TestAllocInterleaveSubsetAndSpill(t *testing.T) {
	h := newTestHost(t)
	// Nearly fill node 1, then interleave across {1,2}: node 1's shortfall
	// must spill elsewhere.
	if _, err := h.Alloc(AllocRequest{Size: 4*units.GiB - 512*units.MiB, Policy: PolicyBind, Target: 1, TaskNode: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(AllocRequest{
		Size: 2 * units.GiB, Policy: PolicyInterleave, TaskNode: 0,
		InterleaveNodes: []topology.NodeID{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var total units.Size
	for _, sh := range b.Pages {
		total += sh.Size
	}
	if total != 2*units.GiB {
		t.Errorf("interleaved total = %v, want 2GiB", total)
	}
	if len(b.Pages) < 2 || b.Pages[0] != (Share{1, 512 * units.MiB}) || b.Pages[1] != (Share{2, units.GiB}) {
		t.Errorf("shares %+v: want 512MiB on node 1 (all that was free), then 1GiB on node 2", b.Pages)
	}
}

func TestAllocInterleaveImpossible(t *testing.T) {
	h := newTestHost(t)
	if _, err := h.Alloc(AllocRequest{Size: 100 * units.GiB, Policy: PolicyInterleave, TaskNode: 0}); err == nil {
		t.Error("interleave beyond total memory should fail")
	}
	// Failure must not leak memory.
	var total units.Size
	for _, n := range topology.DL585G7().NodeIDs() {
		total += h.FreeMem(n)
	}
	if want := 32*units.GiB - DefaultOSReservation; total != want {
		t.Errorf("free total after failed alloc = %v, want %v", total, want)
	}
}

func TestAllocErrors(t *testing.T) {
	h := newTestHost(t)
	if _, err := h.Alloc(AllocRequest{Size: 0, Policy: PolicyBind, Target: 0, TaskNode: 0}); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := h.Alloc(AllocRequest{Size: units.KiB, Policy: PolicyBind, Target: 99, TaskNode: 0}); err == nil {
		t.Error("unknown target should fail")
	}
	if _, err := h.Alloc(AllocRequest{Size: units.KiB, Policy: PolicyBind, Target: 0, TaskNode: 99}); err == nil {
		t.Error("unknown task node should fail")
	}
	if _, err := h.Alloc(AllocRequest{Size: units.KiB, Policy: Policy(42), TaskNode: 0}); err == nil {
		t.Error("unknown policy should fail")
	}
	if _, err := h.Alloc(AllocRequest{Size: units.KiB, Policy: PolicyInterleave, TaskNode: 0,
		InterleaveNodes: []topology.NodeID{42}}); err == nil {
		t.Error("unknown interleave node should fail")
	}
}

func TestFreeAndDoubleFree(t *testing.T) {
	h := newTestHost(t)
	b, err := h.Alloc(AllocRequest{Size: units.GiB, Policy: PolicyBind, Target: 6, TaskNode: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(b); err != nil {
		t.Fatal(err)
	}
	if got := h.FreeMem(6); got != 4*units.GiB {
		t.Errorf("node 6 free after Free = %v", got)
	}
	if err := h.Free(b); err == nil {
		t.Error("double free should fail")
	}
	if err := h.Free(nil); err == nil {
		t.Error("Free(nil) should fail")
	}
}

// Property: allocation and free conserve total memory.
func TestAllocFreeConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		h, err := NewHost(topology.DL585G7())
		if err != nil {
			return false
		}
		totalBefore := units.Size(0)
		for _, n := range h.M.NodeIDs() {
			totalBefore += h.FreeMem(n)
		}
		var bufs []*Buffer
		for i, s := range sizes {
			if i >= 16 {
				break
			}
			size := units.Size(int64(s)+1) * units.MiB
			b, err := h.Alloc(AllocRequest{
				Size: size, Policy: Policy(i % 4), Target: topology.NodeID(i % 8),
				TaskNode: topology.NodeID((i + 3) % 8),
			})
			if err != nil {
				continue
			}
			bufs = append(bufs, b)
		}
		for _, b := range bufs {
			if err := h.Free(b); err != nil {
				return false
			}
		}
		totalAfter := units.Size(0)
		for _, n := range h.M.NodeIDs() {
			totalAfter += h.FreeMem(n)
		}
		return totalBefore == totalAfter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHardwareOutput(t *testing.T) {
	h := newTestHost(t)
	out := h.Hardware()
	for _, want := range []string{
		"available: 8 nodes (0-7)",
		"node 0 free: 1536 MB",
		"node 7 free: 4096 MB",
		"node distances:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Hardware() missing %q:\n%s", want, out)
		}
	}
}

func TestBufferHomeNodeTieBreak(t *testing.T) {
	b := &Buffer{Pages: []Share{{2, units.GiB}, {5, units.GiB}}}
	if got := b.HomeNode(); got != 2 {
		t.Errorf("HomeNode tie = %d, want 2 (lowest)", got)
	}
}

// TestInterleaveSharesMerge: an unsorted interleave list naming a node
// twice yields one share per node, in ascending node order, and a pooled
// buffer reused for it keeps none of its earlier shares.
func TestInterleaveSharesMerge(t *testing.T) {
	h := newTestHost(t)
	first, err := h.Alloc(AllocRequest{Size: units.GiB, Policy: PolicyBind, Target: 6, TaskNode: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(first); err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(AllocRequest{
		Size: 3 * units.GiB, Policy: PolicyInterleave, TaskNode: 0,
		InterleaveNodes: []topology.NodeID{3, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Share{{1, units.GiB}, {3, 2 * units.GiB}}; !slices.Equal(b.Pages, want) {
		t.Errorf("shares %+v, want %+v", b.Pages, want)
	}
	if st := h.Stats(3); st.InterleaveHit != 2 {
		t.Errorf("stats(3).InterleaveHit = %d, want 2", st.InterleaveHit)
	}
	if err := h.Free(b); err != nil {
		t.Fatal(err)
	}
	for _, n := range []topology.NodeID{1, 3} {
		if got := h.FreeMem(n); got != 4*units.GiB {
			t.Errorf("node %d free after Free = %v, want 4GiB", n, got)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyLocalPreferred: "local-preferred",
		PolicyBind:           "bind",
		PolicyInterleave:     "interleave",
		Policy(9):            "Policy(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestStatsUnknownNode(t *testing.T) {
	h := newTestHost(t)
	if st := h.Stats(99); st != (NodeStats{}) {
		t.Errorf("Stats(99) = %+v, want zero", st)
	}
}

// TestSparseNodeIDs runs every allocation policy on a machine whose node
// IDs are negative, small and beyond 1<<16, so a host that looks nodes up
// by ID must handle all three.
func TestSparseNodeIDs(t *testing.T) {
	node := func(id topology.NodeID, pkg int) topology.Node {
		return topology.Node{ID: id, Package: pkg, Cores: 2, Memory: 4 * units.GiB, MemBandwidth: 10 * units.Gbps}
	}
	// Node -2 boots with the OS reservation on top of the others' 4 GiB
	// less one, so it has 3 GiB free.
	lowest := node(-2, 0)
	lowest.Memory = 3*units.GiB + DefaultOSReservation
	m := topology.New("sparse-ids", []topology.Node{node(70000, 2), lowest, node(5, 1)})
	m.AddDuplexLink("node-2", "node5", topology.LinkHT, 16, 10*units.Gbps, 0)
	m.AddDuplexLink("node5", "node70000", topology.LinkHT, 16, 10*units.Gbps, 0)
	h, err := NewHost(m)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(req AllocRequest, home topology.NodeID) *Buffer {
		t.Helper()
		req.Size = units.GiB * req.Size
		b, err := h.Alloc(req)
		if err != nil {
			t.Fatalf("%v alloc: %v", req.Policy, err)
		}
		if got := b.HomeNode(); got != home {
			t.Errorf("%v alloc landed on node %d, want %d", req.Policy, got, home)
		}
		return b
	}
	// The OS reservation lands on the lowest node, -2 (3 GiB free).
	bufs := []*Buffer{
		alloc(AllocRequest{Size: 1, Policy: PolicyBind, Target: 70000, TaskNode: -2}, 70000),
		alloc(AllocRequest{Size: 1, Policy: PolicyLocalPreferred, TaskNode: 5}, 5),
		alloc(AllocRequest{Size: 2, Policy: PolicyLocalPreferred, TaskNode: -2}, -2),
		// Node -2 has 1 GiB left: fall back to the emptiest node, where
		// nodes 5 and 70000 tie at 3 GiB and the lower ID wins.
		alloc(AllocRequest{Size: 2, Policy: PolicyLocalPreferred, TaskNode: -2}, 5),
		alloc(AllocRequest{Size: 3, Policy: PolicyInterleave, TaskNode: 70000}, -2),
	}
	if got := bufs[4].Pages; !slices.Equal(got, []Share{{-2, units.GiB}, {5, units.GiB}, {70000, units.GiB}}) {
		t.Errorf("interleave pages = %v, want 1 GiB on each node", got)
	}
	if _, err := h.Alloc(AllocRequest{Size: units.GiB, Policy: PolicyBind, Target: -2, TaskNode: -2}); err == nil {
		t.Error("bind on the full node -2 should fail")
	}
	if _, err := h.Alloc(AllocRequest{Size: units.GiB, Policy: PolicyBind, Target: 0, TaskNode: -2}); err == nil {
		t.Error("bind on unknown node 0 should fail")
	}
	if _, err := h.Alloc(AllocRequest{Size: units.GiB, Policy: PolicyInterleave, TaskNode: 5, InterleaveNodes: []topology.NodeID{5, 65536}}); err == nil {
		t.Error("interleave over unknown node 65536 should fail")
	}
	for n, want := range map[topology.NodeID]units.Size{-2: 0, 5: 0, 70000: 2 * units.GiB, 0: 0} {
		if got := h.FreeMem(n); got != want {
			t.Errorf("node %d free = %v, want %v", n, got, want)
		}
	}
	for _, b := range bufs {
		if err := h.Free(b); err != nil {
			t.Fatal(err)
		}
	}
	for n, want := range map[topology.NodeID]units.Size{-2: 3 * units.GiB, 5: 4 * units.GiB, 70000: 4 * units.GiB} {
		if got := h.FreeMem(n); got != want {
			t.Errorf("node %d free after Free = %v, want %v", n, got, want)
		}
	}
	for n, want := range map[topology.NodeID]NodeStats{
		-2:    {NumaHit: 2, NumaForeign: 1, InterleaveHit: 1, LocalNode: 1, OtherNode: 1},
		5:     {NumaHit: 2, NumaMiss: 1, InterleaveHit: 1, LocalNode: 1, OtherNode: 2},
		70000: {NumaHit: 2, InterleaveHit: 1, LocalNode: 1, OtherNode: 1},
		0:     {},
		65536: {},
	} {
		if got := h.Stats(n); got != want {
			t.Errorf("Stats(%d) = %+v, want %+v", n, got, want)
		}
	}
}

func TestRunFluidSingle(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 8 * units.Gbps}}
	out, err := RunFluid(res, []Transfer{{
		ID: "t", Bytes: units.GiB,
		Usages: []fabric.Usage{{Resource: "l", Weight: 1}},
	}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Transfers[0]
	wantDur := units.GiB.Bits() / 8e9
	if math.Abs(tr.Duration.Seconds()-wantDur) > 1e-9 {
		t.Errorf("duration = %v, want %v", tr.Duration.Seconds(), wantDur)
	}
	if math.Abs(tr.Bandwidth.Gbps()-8) > 1e-6 {
		t.Errorf("bandwidth = %v, want 8", tr.Bandwidth.Gbps())
	}
	if math.Abs(out.AggregateBandwidth.Gbps()-8) > 1e-6 {
		t.Errorf("aggregate = %v", out.AggregateBandwidth.Gbps())
	}
}

// Two transfers share a link; when the smaller finishes, the bigger speeds
// up. Average bandwidths must reflect the two phases.
func TestRunFluidResolvesAfterCompletion(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 10 * units.Gbps}}
	u := []fabric.Usage{{Resource: "l", Weight: 1}}
	out, err := RunFluid(res, []Transfer{
		{ID: "small", Bytes: 625 * units.MiB, Usages: u}, // 5 Gbit
		{ID: "big", Bytes: 1875 * units.MiB, Usages: u},  // 15 Gbit
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: both at 5 Gb/s until small done at t=1s (5 Gbit each moved).
	// Phase 2: big alone at 10 Gb/s for its remaining 10 Gbit -> 1s more.
	small, big := out.Transfers[0], out.Transfers[1]
	if math.Abs(small.Duration.Seconds()-1.048576) > 1e-3 {
		t.Errorf("small duration = %v", small.Duration.Seconds())
	}
	if math.Abs(big.Duration.Seconds()-2.097152) > 1e-3 {
		t.Errorf("big duration = %v", big.Duration.Seconds())
	}
	if math.Abs(small.InitialRate.Gbps()-5) > 1e-6 || math.Abs(big.InitialRate.Gbps()-5) > 1e-6 {
		t.Errorf("initial rates = %v, %v; want 5,5", small.InitialRate.Gbps(), big.InitialRate.Gbps())
	}
	if math.Abs(big.Bandwidth.Gbps()-7.5) > 1e-3 {
		t.Errorf("big average = %v, want 7.5", big.Bandwidth.Gbps())
	}
	if steady := small.InitialRate + big.InitialRate; math.Abs(steady.Gbps()-10) > 1e-6 {
		t.Errorf("steady aggregate = %v, want 10", steady.Gbps())
	}
}

func TestRunFluidDemandCap(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 10 * units.Gbps}}
	out, err := RunFluid(res, []Transfer{{
		ID: "capped", Bytes: units.GiB, Demand: 2 * units.Gbps,
		Usages: []fabric.Usage{{Resource: "l", Weight: 1}},
	}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Transfers[0].Bandwidth.Gbps(); math.Abs(got-2) > 1e-6 {
		t.Errorf("capped rate = %v, want 2", got)
	}
}

func TestRunFluidErrors(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 10 * units.Gbps}}
	u := []fabric.Usage{{Resource: "l", Weight: 1}}
	if _, err := RunFluid(res, []Transfer{{ID: "z", Bytes: 0, Usages: u}}, nil, 0); err == nil {
		t.Error("zero-size transfer should fail")
	}
	if _, err := RunFluid(res, []Transfer{
		{ID: "d", Bytes: units.KiB, Usages: u},
		{ID: "d", Bytes: units.KiB, Usages: u},
	}, nil, 0); err == nil {
		t.Error("duplicate transfer IDs should fail")
	}
	if _, err := RunFluid(res, []Transfer{{ID: "x", Bytes: units.KiB,
		Usages: []fabric.Usage{{Resource: "nope", Weight: 1}}}}, nil, 0); err == nil {
		t.Error("unknown resource should fail")
	}
	if _, err := RunFluid([]fabric.Resource{{ID: "bad", Capacity: -1}},
		[]Transfer{{ID: "x", Bytes: units.KiB, Usages: u}}, nil, 0); err == nil {
		t.Error("bad resource should fail")
	}
	out, err := RunFluid(res, nil, nil, 0)
	if err != nil || len(out.Transfers) != 0 {
		t.Error("empty run should succeed with no transfers")
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	a := Jitter("key", 0.05)
	b := Jitter("key", 0.05)
	if a != b {
		t.Error("Jitter must be deterministic")
	}
	if Jitter("other", 0.05) == a {
		t.Error("different keys should (almost surely) differ")
	}
	if Jitter("x", 0) != 1 {
		t.Error("zero sigma must return 1")
	}
	for _, key := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		v := Jitter(key, 0.05)
		if v < 0.95 || v > 1.05 {
			t.Errorf("Jitter(%q) = %v out of [0.95, 1.05]", key, v)
		}
	}
}

func TestJitterMax(t *testing.T) {
	one := Jitter("k", 0.05)
	best := JitterMax("k", 0.05, 100)
	if best < one {
		t.Errorf("JitterMax(100) = %v < single sample %v", best, one)
	}
	if best > 1.05 {
		t.Errorf("JitterMax out of bounds: %v", best)
	}
	if JitterMax("k", 0.05, 1) != one {
		t.Error("JitterMax(1) should equal Jitter")
	}
	// With many samples the max should approach the upper bound.
	if best < 1.03 {
		t.Errorf("JitterMax(100) = %v, expected close to 1.05", best)
	}
}

// Property: jitter stays within bounds for arbitrary keys.
func TestJitterBoundsProperty(t *testing.T) {
	f := func(key string, sigmaPct uint8) bool {
		sigma := float64(sigmaPct%50) / 100
		v := Jitter(key, sigma)
		return v >= 1-sigma-1e-12 && v <= 1+sigma+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
