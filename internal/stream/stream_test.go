package stream

import (
	"math"
	"testing"

	"numaio/internal/numa"
	"numaio/internal/topology"
	"numaio/internal/units"
)

func newRunner(t *testing.T, cfg Config) (*numa.System, *Runner) {
	t.Helper()
	sys, err := numa.NewSystem(topology.DL585G7())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, r
}

func TestConfigDefaults(t *testing.T) {
	_, r := newRunner(t, Config{})
	cfg := r.cfg
	if cfg.Runs != 100 {
		t.Errorf("Runs = %d, want 100", cfg.Runs)
	}
	if cfg.Sigma != 0.03 {
		t.Errorf("Sigma = %v, want 0.03", cfg.Sigma)
	}
	// 4×LLC = 20 MiB on the Opteron 6136, matching the paper's array size.
	if cfg.ArrayBytes != 20*units.MiB {
		t.Errorf("ArrayBytes = %v, want 20MiB", cfg.ArrayBytes)
	}
}

func TestArraySizeRule(t *testing.T) {
	sys, err := numa.NewSystem(topology.DL585G7())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sys, Config{ArrayBytes: units.MiB}); err == nil {
		t.Error("array below 4×LLC must be rejected")
	}
	if _, err := New(sys, Config{Threads: -1}); err == nil {
		t.Error("negative threads must be rejected")
	}
	if _, err := New(sys, Config{Runs: -5}); err == nil {
		t.Error("negative runs must be rejected")
	}
}

func TestMeasureUnknownNodes(t *testing.T) {
	_, r := newRunner(t, Config{Sigma: -1})
	if _, err := r.Measure(42, 0); err == nil {
		t.Error("unknown CPU node should fail")
	}
	if _, err := r.Measure(0, 42); err == nil {
		t.Error("unknown memory node should fail")
	}
}

// Measurements must not leak simulated memory.
func TestMeasureRestoresMemory(t *testing.T) {
	sys, r := newRunner(t, Config{Sigma: -1})
	before := sys.FreeMem(4)
	if _, err := r.Measure(7, 4); err != nil {
		t.Fatal(err)
	}
	if after := sys.FreeMem(4); after != before {
		t.Errorf("node 4 free changed: %v -> %v", before, after)
	}
	// numastat must show the bind allocations.
	if st := sys.Stats(4); st.NumaHit < 2 {
		t.Errorf("stats(4).NumaHit = %d, want >= 2 (two arrays)", st.NumaHit)
	}
}

// Fig. 3 shape, row by row: local is best, the package neighbour second.
func TestLocalBestNeighborSecond(t *testing.T) {
	_, r := newRunner(t, Config{Sigma: -1})
	for cpu := topology.NodeID(0); cpu < 8; cpu++ {
		local, err := r.Measure(cpu, cpu)
		if err != nil {
			t.Fatal(err)
		}
		neighbor := cpu ^ 1 // package mate
		nb, err := r.Measure(cpu, neighbor)
		if err != nil {
			t.Fatal(err)
		}
		if !(local > nb) {
			t.Errorf("CPU%d: local %v <= neighbor %v", cpu, local.Gbps(), nb.Gbps())
		}
		for mem := topology.NodeID(0); mem < 8; mem++ {
			if mem == cpu || mem == neighbor {
				continue
			}
			bw, err := r.Measure(cpu, mem)
			if err != nil {
				t.Fatal(err)
			}
			if !(nb > bw) {
				t.Errorf("CPU%d: neighbor %v <= remote mem%d %v",
					cpu, nb.Gbps(), mem, bw.Gbps())
			}
		}
	}
}

// Sec. IV-A: node 0's local run beats every other node's local run (OS
// buffers and shared libraries live on node 0).
func TestNode0LocalAdvantage(t *testing.T) {
	_, r := newRunner(t, Config{Sigma: -1})
	l0, err := r.Measure(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for cpu := topology.NodeID(1); cpu < 8; cpu++ {
		ln, err := r.Measure(cpu, cpu)
		if err != nil {
			t.Fatal(err)
		}
		if !(l0 > ln) {
			t.Errorf("local(0)=%v should beat local(%d)=%v", l0.Gbps(), cpu, ln.Gbps())
		}
	}
}

// Sec. IV-A asymmetry: STREAM on node 7 reading node 4 beats reading nodes
// 2,3, yet STREAM on node 4 against node 7 loses to nodes 2,3 against
// node 7 — the measurement that rules out hop-distance models.
func TestFig3Asymmetry(t *testing.T) {
	_, r := newRunner(t, Config{Sigma: -1})
	get := func(cpu, mem topology.NodeID) float64 {
		bw, err := r.Measure(cpu, mem)
		if err != nil {
			t.Fatal(err)
		}
		return bw.Gbps()
	}
	m74, m72, m73 := get(7, 4), get(7, 2), get(7, 3)
	if !(m74 > m72 && m74 > m73) {
		t.Errorf("CPU7: mem4 %.2f should beat mem2 %.2f and mem3 %.2f", m74, m72, m73)
	}
	m47, m27, m37 := get(4, 7), get(2, 7), get(3, 7)
	if !(m47 < m27 && m47 < m37) {
		t.Errorf("MEM7: cpu4 %.2f should lose to cpu2 %.2f and cpu3 %.2f", m47, m27, m37)
	}
	// The paper reports 21.34 vs 18.45 Gb/s — a ratio of ~1.16.
	if ratio := m74 / m47; ratio < 1.05 || ratio > 1.35 {
		t.Errorf("asymmetry ratio %.3f outside [1.05, 1.35] (paper: 1.157)", ratio)
	}
}

func TestKernelsSimilar(t *testing.T) {
	var rates [4]float64
	for k := Copy; k <= Triad; k++ {
		_, r := newRunner(t, Config{Kernel: k, Sigma: -1})
		bw, err := r.Measure(5, 5)
		if err != nil {
			t.Fatal(err)
		}
		rates[k] = bw.Gbps()
	}
	for k := Scale; k <= Triad; k++ {
		if rel := math.Abs(rates[k]-rates[Copy]) / rates[Copy]; rel > 0.05 {
			t.Errorf("%v deviates %.0f%% from copy", k, rel*100)
		}
	}
	if !(rates[Copy] > rates[Add]) {
		t.Error("copy should be the fastest kernel")
	}
}

func TestThreadScaling(t *testing.T) {
	_, r1 := newRunner(t, Config{Threads: 1, Sigma: -1})
	_, r4 := newRunner(t, Config{Threads: 4, Sigma: -1})
	one, err := r1.Measure(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	four, err := r4.Measure(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(four > 3*one) {
		t.Errorf("4 threads (%v) should be ~4x 1 thread (%v)", four.Gbps(), one.Gbps())
	}
	// More threads than cores saturates rather than scaling further.
	_, r8 := newRunner(t, Config{Threads: 8, Sigma: -1})
	eight, err := r8.Measure(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(eight-four)) > 1e-6*float64(four) {
		t.Errorf("8 threads (%v) should equal 4 threads (%v)", eight.Gbps(), four.Gbps())
	}
}

// The maximum-of-runs methodology: more runs can only raise the reported
// number, and jittered results stay within sigma of the noiseless value.
func TestJitterMaxMethodology(t *testing.T) {
	_, quiet := newRunner(t, Config{Sigma: -1})
	_, noisy := newRunner(t, Config{Runs: 100})
	q, err := quiet.Measure(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := noisy.Measure(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := float64(q)*0.97, float64(q)*1.031
	if float64(n) < lo || float64(n) > hi {
		t.Errorf("noisy max %v outside [%v, %v]", n.Gbps(), lo/1e9, hi/1e9)
	}
}

func TestMatrixAndModels(t *testing.T) {
	_, r := newRunner(t, Config{Sigma: -1})
	mx, err := r.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(mx.BW) != 8 || len(mx.BW[0]) != 8 {
		t.Fatalf("matrix shape %dx%d", len(mx.BW), len(mx.BW[0]))
	}
	row, err := mx.CPUCentric(7)
	if err != nil {
		t.Fatal(err)
	}
	col, err := mx.MemCentric(7)
	if err != nil {
		t.Fatal(err)
	}
	for j := range row {
		if row[j] != mx.BW[7][j] {
			t.Errorf("CPUCentric[%d] mismatch", j)
		}
		if col[j] != mx.BW[j][7] {
			t.Errorf("MemCentric[%d] mismatch", j)
		}
	}
	if _, err := mx.CPUCentric(42); err == nil {
		t.Error("unknown node should error")
	}
	if _, err := mx.MemCentric(42); err == nil {
		t.Error("unknown node should error")
	}
}

func TestKernelStrings(t *testing.T) {
	for k, want := range map[Kernel]string{
		Copy: "copy", Scale: "scale", Add: "add", Triad: "triad",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if Kernel(9).String() == "" {
		t.Error("fallback string empty")
	}
	if Kernel(9).factor() != 1 {
		t.Error("fallback factor should be 1")
	}
	if Copy.arrays() != 2 || Triad.arrays() != 3 {
		t.Error("array counts wrong")
	}
}

func TestMeasureInterleaved(t *testing.T) {
	sys, r := newRunner(t, Config{Sigma: -1})
	il, err := r.MeasureInterleaved(7)
	if err != nil {
		t.Fatal(err)
	}
	local, err := r.Measure(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := r.Measure(7, 2) // the starved 2->7 response path
	if err != nil {
		t.Fatal(err)
	}
	if !(il < local) {
		t.Errorf("interleaved %.2f should trail local %.2f", il.Gbps(), local.Gbps())
	}
	if !(il > worst) {
		t.Errorf("interleaved %.2f should beat the worst binding %.2f", il.Gbps(), worst.Gbps())
	}
	// Memory must be restored.
	for n := topology.NodeID(0); n < 8; n++ {
		want := 4 * units.GiB
		if n == 0 {
			want -= units.Size(2.5 * float64(units.GiB))
		}
		if got := sys.FreeMem(n); got != want {
			t.Errorf("node %d free = %v after interleaved run", n, got)
		}
	}
	if _, err := r.MeasureInterleaved(42); err == nil {
		t.Error("unknown CPU node should fail")
	}
}

func TestComparePolicies(t *testing.T) {
	_, r := newRunner(t, Config{Sigma: -1})
	cmp, err := r.ComparePolicies(7)
	if err != nil {
		t.Fatal(err)
	}
	if !(cmp.Local > cmp.BestRemote) {
		t.Errorf("local %.2f should beat best remote %.2f", cmp.Local.Gbps(), cmp.BestRemote.Gbps())
	}
	if !(cmp.BestRemote > cmp.WorstRemote) {
		t.Errorf("best remote %.2f should beat worst remote %.2f",
			cmp.BestRemote.Gbps(), cmp.WorstRemote.Gbps())
	}
	if !(cmp.Interleaved > cmp.WorstRemote && cmp.Interleaved < cmp.Local) {
		t.Errorf("interleaved %.2f should lie between worst %.2f and local %.2f",
			cmp.Interleaved.Gbps(), cmp.WorstRemote.Gbps(), cmp.Local.Gbps())
	}
}

// memset (Fill) is write-only: it beats Copy everywhere and survives the
// starved response directions that throttle Copy.
func TestFillKernel(t *testing.T) {
	_, fill := newRunner(t, Config{Kernel: Fill, Sigma: -1})
	_, cp := newRunner(t, Config{Kernel: Copy, Sigma: -1})
	for _, memNode := range []topology.NodeID{7, 2, 4} {
		f, err := fill.Measure(7, memNode)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cp.Measure(7, memNode)
		if err != nil {
			t.Fatal(err)
		}
		if !(f >= c) {
			t.Errorf("mem%d: fill %.2f should not lose to copy %.2f",
				memNode, f.Gbps(), c.Gbps())
		}
	}
	// Fill from 4 toward 7 does not pay the 7->4 response penalty that
	// hurts Copy: it must be clearly faster.
	f47, err := fill.Measure(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	c47, err := cp.Measure(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !(f47 > c47*1.2) {
		t.Errorf("fill 4->7 (%.2f) should clearly beat copy (%.2f)", f47.Gbps(), c47.Gbps())
	}
	if Fill.String() != "fill" || Fill.arrays() != 1 {
		t.Error("fill kernel metadata")
	}
}
