package blocksim

import (
	"math"
	"sort"
	"testing"

	"numaio/internal/fabric"
	"numaio/internal/simhost"
	"numaio/internal/topology"
	"numaio/internal/units"
)

func gbps(b units.Bandwidth) float64 { return b.Gbps() }

func TestSingleFlowSaturatesBottleneck(t *testing.T) {
	res := []fabric.Resource{
		{ID: "a", Capacity: 40 * units.Gbps},
		{ID: "b", Capacity: 10 * units.Gbps},
	}
	out, err := Run(res, []Transfer{{
		ID: "f", Bytes: 256 * units.MiB,
		Stages: []Stage{{Resource: "a", Weight: 1}, {Resource: "b", Weight: 1}},
	}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := gbps(out["f"].Throughput)
	// The pipeline saturates the 10 Gb/s stage (within pipeline fill/drain
	// effects on a short transfer).
	if math.Abs(got-10) > 1 {
		t.Errorf("throughput = %.2f, want ~10", got)
	}
	if len(out["f"].Latencies) != 2048 { // 256 MiB / 128 KiB
		t.Errorf("blocks = %d", len(out["f"].Latencies))
	}
}

func TestEqualFlowsShare(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 20 * units.Gbps}}
	tr := func(id string) Transfer {
		return Transfer{ID: id, Bytes: 128 * units.MiB,
			Stages: []Stage{{Resource: "l", Weight: 1}}}
	}
	out, err := Run(res, []Transfer{tr("a"), tr("b")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := gbps(out["a"].Throughput), gbps(out["b"].Throughput)
	if math.Abs(a-b) > 0.5 {
		t.Errorf("unequal shares: %.2f vs %.2f", a, b)
	}
	if math.Abs(a-10) > 1 {
		t.Errorf("share = %.2f, want ~10", a)
	}
}

// Cross-validation: blocksim and the fluid model agree on a contended fio-
// like scenario (two flows over the DL585G7 fabric toward node 7).
func TestAgreesWithFluidModel(t *testing.T) {
	m := topology.DL585G7()
	resources := fabric.MachineResources(m)

	usagesOf := func(src topology.NodeID) []fabric.Usage {
		u, err := fabric.CopyFlowUsages(m, src, 7)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}

	fluid, err := simhost.RunFluid(resources, []simhost.Transfer{
		{ID: "a", Bytes: 256 * units.MiB, Usages: usagesOf(0)},
		{ID: "b", Bytes: 256 * units.MiB, Usages: usagesOf(1)},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	des, err := Run(resources, []Transfer{
		{ID: "a", Bytes: 256 * units.MiB, Stages: FromUsages(usagesOf(0)), Window: 8},
		{ID: "b", Bytes: 256 * units.MiB, Stages: FromUsages(usagesOf(1)), Window: 8},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	for i, id := range []string{"a", "b"} {
		fluidRate := float64(fluid.Transfers[i].InitialRate)
		desRate := float64(des[id].Throughput)
		if rel := math.Abs(fluidRate-desRate) / fluidRate; rel > 0.15 {
			t.Errorf("%s: fluid %.2f vs blocksim %.2f Gb/s (off %.0f%%)",
				id, fluidRate/1e9, desRate/1e9, rel*100)
		}
	}
}

// percentile returns the p-quantile (0..1) of r's block latencies.
func percentile(r *Result, p float64) units.Duration {
	sorted := append([]units.Duration(nil), r.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p*float64(len(sorted)-1))]
}

// Block latency percentiles: ordered, and wider under contention —
// validating the shape assumed by fio.LatencyStats.
func TestLatencyDistribution(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 10 * units.Gbps}}
	single, err := Run(res, []Transfer{{
		ID: "s", Bytes: 64 * units.MiB, Stages: []Stage{{Resource: "l", Weight: 1}},
		Window: 1,
	}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sres := single["s"]
	p50, p99 := percentile(sres, 0.5), percentile(sres, 0.99)
	if p50 > p99 {
		t.Errorf("p50 %v > p99 %v", p50, p99)
	}
	// Uncontended window-1 blocks all take the same time: bs/cap.
	want := (128 * units.KiB).Bits() / 10e9
	if math.Abs(p50.Seconds()-want) > 0.01*want {
		t.Errorf("p50 = %v, want %v", p50.Seconds(), want)
	}

	contended, err := Run(res, []Transfer{
		{ID: "a", Bytes: 64 * units.MiB, Stages: []Stage{{Resource: "l", Weight: 1}}, Window: 1},
		{ID: "b", Bytes: 64 * units.MiB, Stages: []Stage{{Resource: "l", Weight: 1}}, Window: 1},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cp50 := percentile(contended["a"], 0.5)
	if !(cp50 > p50) {
		t.Errorf("contended p50 %v should exceed solo p50 %v", cp50, p50)
	}
}

func TestWeightedStageSlowsBlock(t *testing.T) {
	res := []fabric.Resource{{ID: "m", Capacity: 10 * units.Gbps}}
	out, err := Run(res, []Transfer{{
		ID: "local", Bytes: 64 * units.MiB,
		Stages: []Stage{{Resource: "m", Weight: 2}}, // local copy: double charge
		Window: 1,
	}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := gbps(out["local"].Throughput); math.Abs(got-5) > 0.2 {
		t.Errorf("double-weighted throughput = %.2f, want ~5", got)
	}
}

func TestFromUsagesMergesDuplicates(t *testing.T) {
	stages := FromUsages([]fabric.Usage{
		{Resource: "m", Weight: 1},
		{Resource: "l", Weight: 1},
		{Resource: "m", Weight: 1},
	})
	if len(stages) != 2 {
		t.Fatalf("stages = %+v", stages)
	}
	if stages[0].Resource != "m" || stages[0].Weight != 2 {
		t.Errorf("merged stage = %+v", stages[0])
	}
}

func TestRunValidation(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: units.Gbps}}
	ok := []Stage{{Resource: "l", Weight: 1}}
	if _, err := Run([]fabric.Resource{{ID: "x", Capacity: 0}}, nil, Config{}); err == nil {
		t.Error("bad resource should fail")
	}
	if _, err := Run(res, []Transfer{{ID: "t", Bytes: 0, Stages: ok}}, Config{}); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := Run(res, []Transfer{{ID: "t", Bytes: units.MiB}}, Config{}); err == nil {
		t.Error("no stages should fail")
	}
	if _, err := Run(res, []Transfer{
		{ID: "t", Bytes: units.MiB, Stages: ok},
		{ID: "t", Bytes: units.MiB, Stages: ok},
	}, Config{}); err == nil {
		t.Error("duplicate IDs should fail")
	}
	if _, err := Run(res, []Transfer{{ID: "t", Bytes: units.MiB,
		Stages: []Stage{{Resource: "ghost", Weight: 1}}}}, Config{}); err == nil {
		t.Error("unknown resource should fail")
	}
	if _, err := Run(res, []Transfer{{ID: "t", Bytes: units.MiB,
		Stages: []Stage{{Resource: "l", Weight: 0}}}}, Config{}); err == nil {
		t.Error("zero weight should fail")
	}
	if _, err := Run(res, []Transfer{{ID: "t", Bytes: units.GiB, Stages: ok}},
		Config{MaxEvents: 10}); err == nil {
		t.Error("event budget should trip")
	}
}

// A weighted shared server (the DMA-engine abstraction): FIFO service with
// per-class block costs yields equal byte rates per flow and the harmonic
// aggregate — the same behaviour the fluid solver produces for Eq. 1.
func TestWeightedServerHarmonicAggregate(t *testing.T) {
	res := []fabric.Resource{{ID: "eng", Capacity: 22 * units.Gbps}}
	out, err := Run(res, []Transfer{
		{ID: "fast", Bytes: 64 * units.MiB,
			Stages: []Stage{{Resource: "eng", Weight: 1.0}}},
		{ID: "slow", Bytes: 64 * units.MiB,
			Stages: []Stage{{Resource: "eng", Weight: 22.0 / 18.0}}},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := out["fast"].Throughput.Gbps(), out["slow"].Throughput.Gbps()
	// While both run, bytes alternate fairly; the fast flow finishes its
	// bytes first only because the slow one's blocks cost more time.
	agg := 2 / (1/22.0 + 1/18.0) // harmonic aggregate of the two class rates
	perFlow := agg / 2
	if math.Abs(slow-perFlow) > 0.6 {
		t.Errorf("slow flow = %.2f, want ~%.2f", slow, perFlow)
	}
	if !(fast >= slow) {
		t.Errorf("fast (%.2f) should finish no slower than slow (%.2f)", fast, slow)
	}
}
