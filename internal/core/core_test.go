package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"numaio/internal/device"
	"numaio/internal/fio"
	"numaio/internal/numa"
	"numaio/internal/stream"
	"numaio/internal/topology"
	"numaio/internal/units"
)

func newSys(t *testing.T) *numa.System {
	t.Helper()
	sys, err := numa.NewSystem(topology.DL585G7())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func characterize(t *testing.T, mode Mode) *Model {
	t.Helper()
	sys := newSys(t)
	c, err := NewCharacterizer(sys, Config{Sigma: -1, Repeats: 1, BytesPerThread: units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Characterize(7, mode)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func classNodes(m *Model, rank int) []topology.NodeID {
	for _, c := range m.Classes {
		if c.Rank == rank {
			return c.Nodes
		}
	}
	return nil
}

// Table IV: the device-write model of node 7 classifies the nodes into
// {6,7} | {0,1,4,5} | {2,3}.
func TestWriteModelClasses(t *testing.T) {
	m := characterize(t, ModeWrite)
	if m.NumClasses() != 3 {
		t.Fatalf("write model has %d classes, want 3: %+v", m.NumClasses(), m.Classes)
	}
	want := [][]topology.NodeID{
		{6, 7},
		{0, 1, 4, 5},
		{2, 3},
	}
	for rank, nodes := range want {
		if got := classNodes(m, rank+1); !reflect.DeepEqual(got, nodes) {
			t.Errorf("write class %d = %v, want %v", rank+1, got, nodes)
		}
	}
	// Class averages follow Table IV's memcpy row shape: ~51 / ~44.5 / ~26.6.
	avgs := []float64{m.Classes[0].Avg.Gbps(), m.Classes[1].Avg.Gbps(), m.Classes[2].Avg.Gbps()}
	for i, want := range []float64{50.0, 44.5, 26.5} {
		if math.Abs(avgs[i]-want) > 0.12*want {
			t.Errorf("write class %d avg = %.1f, want ~%.1f", i+1, avgs[i], want)
		}
	}
	if !(avgs[0] > avgs[1] && avgs[1] > avgs[2]) {
		t.Errorf("write class averages not strictly decreasing: %v", avgs)
	}
}

// Table V: the device-read model of node 7 classifies the nodes into
// {6,7} | {2,3} | {0,1,5} | {4}.
func TestReadModelClasses(t *testing.T) {
	m := characterize(t, ModeRead)
	if m.NumClasses() != 4 {
		t.Fatalf("read model has %d classes, want 4: %+v", m.NumClasses(), m.Classes)
	}
	want := [][]topology.NodeID{
		{6, 7},
		{2, 3},
		{0, 1, 5},
		{4},
	}
	for rank, nodes := range want {
		if got := classNodes(m, rank+1); !reflect.DeepEqual(got, nodes) {
			t.Errorf("read class %d = %v, want %v", rank+1, got, nodes)
		}
	}
	for i, wantAvg := range []float64{50.0, 49.0, 40.8, 28.0} {
		if got := m.Classes[i].Avg.Gbps(); math.Abs(got-wantAvg) > 0.12*wantAvg {
			t.Errorf("read class %d avg = %.1f, want ~%.1f", i+1, got, wantAvg)
		}
	}
}

// Sec. V-B: testing one node per class halves the read-model evaluation
// cost (4 classes for 8 nodes).
func TestCostReductionAndRepresentatives(t *testing.T) {
	m := characterize(t, ModeRead)
	if got := m.CostReduction(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("cost reduction = %v, want 0.5", got)
	}
	reps := m.RepresentativeNodes()
	if len(reps) != 4 {
		t.Fatalf("representatives = %v", reps)
	}
	seen := map[int]bool{}
	for _, r := range reps {
		cls, err := m.ClassOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if seen[cls.Rank] {
			t.Errorf("two representatives for class %d", cls.Rank)
		}
		seen[cls.Rank] = true
	}
	if (&Model{}).CostReduction() != 0 {
		t.Error("empty model cost reduction should be 0")
	}
}

func TestCharacterizerValidation(t *testing.T) {
	sys := newSys(t)
	if _, err := NewCharacterizer(sys, Config{Threads: -1}); err == nil {
		t.Error("negative threads should fail")
	}
	if _, err := NewCharacterizer(sys, Config{Repeats: -1}); err == nil {
		t.Error("negative repeats should fail")
	}
	if _, err := NewCharacterizer(sys, Config{GapThreshold: 2}); err == nil {
		t.Error("gap threshold >= 1 should fail")
	}
	c, err := NewCharacterizer(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Characterize(42, ModeWrite); err == nil {
		t.Error("unknown target should fail")
	}
}

func TestClassifyEdgeCases(t *testing.T) {
	m := topology.DL585G7()
	if _, err := Classify(m, 7, nil, 0.2); err == nil {
		t.Error("empty samples should fail")
	}
	dup := []Sample{{Node: 0, Bandwidth: units.Gbps}, {Node: 0, Bandwidth: units.Gbps}}
	if _, err := Classify(m, 7, dup, 0.2); err == nil {
		t.Error("duplicate samples should fail")
	}
	bad := []Sample{{Node: 42, Bandwidth: units.Gbps}}
	if _, err := Classify(m, 7, bad, 0.2); err == nil {
		t.Error("unknown node should fail")
	}
	noTarget := []Sample{{Node: 0, Bandwidth: units.Gbps}}
	if _, err := Classify(m, 7, noTarget, 0.2); err == nil {
		t.Error("missing target should fail")
	}
	zero := []Sample{{Node: 7, Bandwidth: 0}}
	if _, err := Classify(m, 7, zero, 0.2); err == nil {
		t.Error("nonpositive bandwidth should fail")
	}

	// Uniform remotes collapse into a single class.
	var flat []Sample
	for n := topology.NodeID(0); n < 8; n++ {
		flat = append(flat, Sample{Node: n, Bandwidth: 10 * units.Gbps})
	}
	classes, err := Classify(m, 7, flat, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Errorf("flat samples gave %d classes, want 2 (class1 + one remote class)", len(classes))
	}
	if got := classes[0].Nodes; !reflect.DeepEqual(got, []topology.NodeID{6, 7}) {
		t.Errorf("class 1 = %v, want [6 7]", got)
	}
}

func TestModelLookups(t *testing.T) {
	m := characterize(t, ModeWrite)
	if _, err := m.ClassOf(42); err == nil {
		t.Error("unknown node should fail")
	}
	if _, err := m.SampleOf(42); err == nil {
		t.Error("unknown node should fail")
	}
	bw, err := m.SampleOf(2)
	if err != nil || math.Abs(bw.Gbps()-26.5) > 1 {
		t.Errorf("SampleOf(2) = %v, %v", bw.Gbps(), err)
	}
}

// The paper's Eq. 1 worked example: two RDMA_READ processes on node 2
// (class 2) and two on node 0 (class 3). Prediction from single-class
// measurements must land within a few percent of the measured mixed run.
func TestEq1PredictionAgainstFio(t *testing.T) {
	sys := newSys(t)
	model := characterize(t, ModeRead)
	runner := fio.NewRunner(sys)
	runner.Sigma = 0

	classRate := func(n topology.NodeID) units.Bandwidth {
		rep, err := runner.Run([]fio.Job{{Name: "s", Engine: device.EngineRDMARead,
			Node: n, NumJobs: 2, Size: 4 * units.GiB}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Aggregate
	}
	rates := map[int]units.Bandwidth{}
	for _, rep := range model.RepresentativeNodes() {
		cls, err := model.ClassOf(rep)
		if err != nil {
			t.Fatal(err)
		}
		rates[cls.Rank] = classRate(rep)
	}

	predicted, err := model.PredictCounts(map[topology.NodeID]int{2: 2, 0: 2}, rates)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := runner.Run([]fio.Job{
		{Name: "c2", Engine: device.EngineRDMARead, Node: 2, NumJobs: 2, Size: 4 * units.GiB},
		{Name: "c3", Engine: device.EngineRDMARead, Node: 0, NumJobs: 2, Size: 4 * units.GiB},
	})
	if err != nil {
		t.Fatal(err)
	}
	errRel := RelativeError(predicted, measured.Aggregate)
	if errRel > 0.05 {
		t.Errorf("Eq.1 relative error %.1f%% exceeds 5%% (paper: 3.1%%)", errRel*100)
	}
	if predicted < measured.Aggregate {
		t.Errorf("arithmetic mixture (%.2f) should not undercut the harmonic measurement (%.2f)",
			predicted.Gbps(), measured.Aggregate.Gbps())
	}
}

func TestPredictValidation(t *testing.T) {
	m := characterize(t, ModeWrite)
	if _, err := m.Predict(nil, nil); err == nil {
		t.Error("empty mix should fail")
	}
	if _, err := m.Predict(map[topology.NodeID]float64{0: 0.5}, nil); err == nil {
		t.Error("mix not summing to 1 should fail")
	}
	if _, err := m.Predict(map[topology.NodeID]float64{0: -1, 2: 2}, nil); err == nil {
		t.Error("negative fraction should fail")
	}
	if _, err := m.Predict(map[topology.NodeID]float64{42: 1}, nil); err == nil {
		t.Error("unknown node should fail")
	}
	if _, err := m.Predict(map[topology.NodeID]float64{0: 1},
		map[int]units.Bandwidth{1: units.Gbps}); err == nil {
		t.Error("missing class rate should fail")
	}
	if _, err := m.PredictCounts(map[topology.NodeID]int{}, nil); err == nil {
		t.Error("no processes should fail")
	}
	if _, err := m.PredictCounts(map[topology.NodeID]int{0: -1}, nil); err == nil {
		t.Error("negative count should fail")
	}

	// Degenerate single-node mix equals the node's class average.
	got, err := m.Predict(map[topology.NodeID]float64{2: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls, _ := m.ClassOf(2)
	if got != cls.Avg {
		t.Errorf("single-node prediction %v != class avg %v", got, cls.Avg)
	}
}

// Property-flavoured check: any valid mixture prediction lies within the
// [min, max] of the involved class averages.
func TestPredictConvexity(t *testing.T) {
	m := characterize(t, ModeRead)
	mix := map[topology.NodeID]float64{0: 0.25, 2: 0.25, 4: 0.25, 6: 0.25}
	got, err := m.Predict(mix, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for n := range mix {
		cls, _ := m.ClassOf(n)
		lo = math.Min(lo, float64(cls.Avg))
		hi = math.Max(hi, float64(cls.Avg))
	}
	if float64(got) < lo-1 || float64(got) > hi+1 {
		t.Errorf("prediction %v outside [%v, %v]", got, lo, hi)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(20.017*units.Gbps, 19.415*units.Gbps); math.Abs(got-0.031) > 0.001 {
		t.Errorf("paper example relative error = %.4f, want ~0.031", got)
	}
	if !math.IsInf(RelativeError(units.Gbps, 0), 1) {
		t.Error("zero measurement should yield +Inf")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	m := characterize(t, ModeRead)
	var buf bytes.Buffer
	if err := m.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModelsJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !reflect.DeepEqual(m, back[0]) {
		t.Error("model changed over JSON round trip")
	}
}

func TestLoadJSONValidation(t *testing.T) {
	cases := []string{
		`{`, // syntax error
		`{"samples":[],"classes":[]}`,
		`{"samples":[{"node":7,"bandwidth_bps":1}],"classes":[]}`,
		`{"samples":[{"node":7,"bandwidth_bps":0}],"classes":[{"rank":1,"nodes":[7],"min_bps":1,"max_bps":1,"avg_bps":1}]}`,
		`{"samples":[{"node":7,"bandwidth_bps":1},{"node":7,"bandwidth_bps":1}],"classes":[{"rank":1,"nodes":[7],"min_bps":1,"max_bps":1,"avg_bps":1}]}`,
		`{"samples":[{"node":7,"bandwidth_bps":1}],"classes":[{"rank":2,"nodes":[7],"min_bps":1,"max_bps":1,"avg_bps":1}]}`,
		`{"samples":[{"node":7,"bandwidth_bps":1}],"classes":[{"rank":1,"nodes":[],"min_bps":1,"max_bps":1,"avg_bps":1}]}`,
		`{"samples":[{"node":7,"bandwidth_bps":1}],"classes":[{"rank":1,"nodes":[5],"min_bps":1,"max_bps":1,"avg_bps":1}]}`,
		`{"samples":[{"node":7,"bandwidth_bps":1}],"classes":[{"rank":1,"nodes":[7],"min_bps":2,"max_bps":1,"avg_bps":1}]}`,
		`{"samples":[{"node":7,"bandwidth_bps":1},{"node":6,"bandwidth_bps":1}],"classes":[{"rank":1,"nodes":[7],"min_bps":1,"max_bps":1,"avg_bps":1}]}`,
		`{"samples":[{"node":7,"bandwidth_bps":1}],"classes":[{"rank":1,"nodes":[7,7],"min_bps":1,"max_bps":1,"avg_bps":1}]}`,
	}
	for _, src := range cases {
		if _, err := LoadModelsJSON(strings.NewReader(src)); err == nil {
			t.Errorf("expected validation error for %s", src)
		}
	}
}

// The hop-distance baseline groups by distance only; on the DL585G7 it
// puts node 4 (the read-model's worst node) into the same class as nodes
// 0 and 2 — exactly the failure the paper demonstrates.
func TestHopDistanceBaseline(t *testing.T) {
	m := topology.DL585G7()
	hop, err := HopDistanceModel(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if hop.NumClasses() != 3 {
		t.Fatalf("hop model classes = %d, want 3 (0, 1, 2 hops)", hop.NumClasses())
	}
	oneHop := classNodes(hop, 2)
	if !reflect.DeepEqual(oneHop, []topology.NodeID{0, 2, 4, 6}) {
		t.Errorf("1-hop class = %v, want [0 2 4 6]", oneHop)
	}
	if _, err := HopDistanceModel(m, 42); err == nil {
		t.Error("unknown target should fail")
	}
}

// A3 ablation: the memcpy iomodel must rank nodes for device reads far
// better than hop distance or the STREAM models do.
func TestModelRankCorrelationBeatsBaselines(t *testing.T) {
	sys := newSys(t)
	ioModel := characterize(t, ModeRead)
	hopModel, err := HopDistanceModel(sys.Machine(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := stream.New(sys, stream.Config{Sigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := sr.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	cpuModel, err := StreamModel(mx, sys.Machine(), 7, CPUCentric, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	memModel, err := StreamModel(mx, sys.Machine(), 7, MemCentric, 0.2)
	if err != nil {
		t.Fatal(err)
	}

	// Measured device-read rates per node (RDMA_READ, the protocol where
	// the paper's mismatch is starkest).
	runner := fio.NewRunner(sys)
	runner.Sigma = 0
	var measured []Sample
	for n := topology.NodeID(0); n < 8; n++ {
		rep, err := runner.Run([]fio.Job{{Name: "r", Engine: device.EngineRDMARead,
			Node: n, NumJobs: 2, Size: 4 * units.GiB}})
		if err != nil {
			t.Fatal(err)
		}
		measured = append(measured, Sample{Node: n, Bandwidth: rep.Aggregate})
	}

	rho := func(m *Model) float64 {
		r, err := SpearmanRank(m, measured)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ioRho, hopRho, cpuRho, memRho := rho(ioModel), rho(hopModel), rho(cpuModel), rho(memModel)
	if ioRho < 0.85 {
		t.Errorf("iomodel Spearman rho = %.2f, want >= 0.85", ioRho)
	}
	for name, base := range map[string]float64{"hop": hopRho, "cpu-centric": cpuRho, "mem-centric": memRho} {
		if !(ioRho > base+0.1) {
			t.Errorf("iomodel rho %.2f should clearly beat %s rho %.2f", ioRho, name, base)
		}
	}
}

func TestSpearmanValidation(t *testing.T) {
	m := characterize(t, ModeWrite)
	if _, err := SpearmanRank(m, nil); err == nil {
		t.Error("too few samples should fail")
	}
	if _, err := SpearmanRank(m, []Sample{{Node: 42, Bandwidth: 1}, {Node: 0, Bandwidth: 1}}); err == nil {
		t.Error("unknown node should fail")
	}
	if _, err := SpearmanRank(m, []Sample{
		{Node: 0, Bandwidth: units.Gbps}, {Node: 1, Bandwidth: units.Gbps},
	}); err == nil {
		t.Error("all-tied measurement should fail (degenerate)")
	}
}

func TestStreamModelKinds(t *testing.T) {
	sys := newSys(t)
	sr, err := stream.New(sys, stream.Config{Sigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := sr.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StreamModel(mx, sys.Machine(), 7, StreamModelKind(9), 0.2); err == nil {
		t.Error("unknown kind should fail")
	}
	cm, err := StreamModel(mx, sys.Machine(), 7, CPUCentric, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Samples) != 8 {
		t.Errorf("stream model samples = %d", len(cm.Samples))
	}
	if CPUCentric.String() != "cpu-centric" || MemCentric.String() != "memory-centric" {
		t.Error("kind strings")
	}
	if StreamModelKind(9).String() == "" {
		t.Error("fallback string")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeWrite.String() != "write" || ModeRead.String() != "read" {
		t.Error("mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("fallback string")
	}
}

func TestCharacterizeAll(t *testing.T) {
	sys := newSys(t)
	c, err := NewCharacterizer(sys, Config{Sigma: -1, Repeats: 1, BytesPerThread: units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := c.CharacterizeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Models) != 16 { // 8 targets x 2 modes
		t.Fatalf("models = %d, want 16", len(mm.Models))
	}
	m7, err := mm.ModelFor(7, ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if m7.NumClasses() != 4 {
		t.Errorf("node 7 read classes = %d, want 4", m7.NumClasses())
	}
	if _, err := mm.ModelFor(42, ModeRead); err == nil {
		t.Error("unknown target should fail")
	}
	// Whole-host cost reduction: representatives cover far fewer cells.
	if cr := mm.CostReduction(); cr < 0.4 || cr >= 1 {
		t.Errorf("machine cost reduction = %v", cr)
	}
	if (&MachineModel{}).CostReduction() != 0 {
		t.Error("empty machine model cost reduction should be 0")
	}

	// Every target's write model must keep the target in class 1.
	for _, target := range sys.Machine().NodeIDs() {
		w, err := mm.ModelFor(target, ModeWrite)
		if err != nil {
			t.Fatal(err)
		}
		cls, err := w.ClassOf(target)
		if err != nil {
			t.Fatal(err)
		}
		if cls.Rank != 1 {
			t.Errorf("target %d not in its own class 1", int(target))
		}
	}
}

func TestMachineModelJSONRoundTrip(t *testing.T) {
	sys := newSys(t)
	c, err := NewCharacterizer(sys, Config{Sigma: -1, Repeats: 1, BytesPerThread: units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := c.CharacterizeAll()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mm.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back MachineModel
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mm, &back) {
		t.Error("machine model changed over JSON round trip")
	}
	for _, src := range []string{
		`{}`,
		`{"models":[]}`,
		`{"models":[null]}`,
		`{"models":[{"samples":[],"classes":[]}]}`,
	} {
		var bad MachineModel
		if err := json.Unmarshal([]byte(src), &bad); err != nil {
			t.Fatal(err)
		}
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %s", src)
		}
	}
}

func TestDiff(t *testing.T) {
	before := characterize(t, ModeWrite)

	// Identical models: no changes, zero deltas.
	same, err := Diff(before, before)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range same {
		if d.ClassChanged {
			t.Errorf("self-diff moved node %d", d.Node)
		}
		if d.RelChange != 0 {
			t.Errorf("self-diff node %d rel change %v", d.Node, d.RelChange)
		}
	}

	// A degraded machine moves node 0.
	mutant := topology.DL585G7()
	if err := mutant.DegradeLinkBetween("node0", "node7", 0.35); err != nil {
		t.Fatal(err)
	}
	sys2, err := numa.NewSystem(mutant)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCharacterizer(sys2, Config{Sigma: -1, Repeats: 1, BytesPerThread: units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	after, err := c2.Characterize(7, ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diffs {
		if d.Node == 0 && d.ClassChanged {
			found = true
		}
	}
	if !found {
		t.Errorf("node 0 should change class after degradation: %+v", diffs)
	}
	for _, d := range diffs {
		if d.Node == 0 && d.RelChange >= 0 {
			t.Errorf("node 0 bandwidth should drop: %+v", d)
		}
	}

	// Validation errors.
	if _, err := Diff(nil, before); err == nil {
		t.Error("nil model should fail")
	}
	read := characterize(t, ModeRead)
	if _, err := Diff(before, read); err == nil {
		t.Error("cross-mode diff should fail")
	}
	other := *before
	other.Target = 3
	if _, err := Diff(before, &other); err == nil {
		t.Error("cross-target diff should fail")
	}
	short := *before
	short.Samples = short.Samples[:4]
	if _, err := Diff(before, &short); err == nil {
		t.Error("different node sets should fail")
	}
}

func TestSampleStdDev(t *testing.T) {
	sys := newSys(t)
	noisy, err := NewCharacterizer(sys, Config{Sigma: 0.03, Repeats: 6, BytesPerThread: units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	m, err := noisy.Characterize(7, ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	anySpread := false
	for _, s := range m.Samples {
		if s.StdDev > 0 {
			anySpread = true
		}
		// Spread must stay well below the mean for a 3% jitter.
		if float64(s.StdDev) > 0.1*float64(s.Bandwidth) {
			t.Errorf("node %d stddev %v too large for mean %v", s.Node, s.StdDev, s.Bandwidth)
		}
	}
	if !anySpread {
		t.Error("noisy characterization should report nonzero spread")
	}

	quiet, err := NewCharacterizer(sys, Config{Sigma: -1, Repeats: 3, BytesPerThread: units.GiB})
	if err != nil {
		t.Fatal(err)
	}
	qm, err := quiet.Characterize(7, ModeWrite)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range qm.Samples {
		if s.StdDev != 0 {
			t.Errorf("noiseless run should have zero spread, node %d has %v", s.Node, s.StdDev)
		}
	}
}

func TestLoadModelsJSONStream(t *testing.T) {
	w := characterize(t, ModeWrite)
	r := characterize(t, ModeRead)
	var buf bytes.Buffer
	if err := w.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	models, err := LoadModelsJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Mode != ModeWrite || models[1].Mode != ModeRead {
		t.Errorf("stream decoded %d models", len(models))
	}
	if _, err := LoadModelsJSON(strings.NewReader("")); err == nil {
		t.Error("empty stream should fail")
	}
	if _, err := LoadModelsJSON(strings.NewReader("{\"samples\":[],\"classes\":[]}")); err == nil {
		t.Error("invalid model in stream should fail")
	}
}
