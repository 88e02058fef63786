package fio

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"numaio/internal/blocksim"
	"numaio/internal/device"
	"numaio/internal/fabric"
	"numaio/internal/numa"
	"numaio/internal/simhost"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// wellFormed reports whether the percentiles are ordered and the mean is
// at least the median.
func (l LatencyStats) wellFormed() bool {
	return l.P50 <= l.P90 && l.P90 <= l.P99 &&
		!math.IsNaN(float64(l.Mean)) && l.Mean >= l.P50
}

func newRunner(t *testing.T) (*numa.System, *Runner) {
	t.Helper()
	sys, err := numa.NewSystem(topology.DL585G7())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sys)
	r.Sigma = 0 // deterministic for assertions
	return sys, r
}

func nid(n int) *topology.NodeID {
	v := topology.NodeID(n)
	return &v
}

// small keeps simulated transfers quick to converge.
const small = 4 * units.GiB

func tcpJob(node topology.NodeID, streams int) Job {
	return Job{Name: "tcp", Engine: device.EngineTCPSend, Node: node,
		NumJobs: streams, Size: small}
}

func TestRunErrors(t *testing.T) {
	_, r := newRunner(t)
	if _, err := r.Run(nil); err == nil {
		t.Error("no jobs should fail")
	}
	if _, err := r.Run([]Job{{Engine: "warp", Node: 0, Size: small}}); err == nil {
		t.Error("unknown engine should fail")
	}
	if _, err := r.Run([]Job{{Engine: device.EngineTCPSend, Node: 42, Size: small}}); err == nil {
		t.Error("unknown node should fail")
	}
	if _, err := r.Run([]Job{{Engine: device.EngineMemcpy, Node: 7, Size: small}}); err == nil {
		t.Error("memcpy without src/dst should fail")
	}
	if _, err := r.Run([]Job{{Engine: device.EngineMemcpy, Node: 7, Size: small,
		SrcNode: nid(42), DstNode: nid(7)}}); err == nil {
		t.Error("unknown src should fail")
	}
	if _, err := r.Run([]Job{{Engine: device.EngineMemcpy, Node: 7, Size: small,
		SrcNode: nid(0), DstNode: nid(42)}}); err == nil {
		t.Error("unknown dst should fail")
	}
	if _, err := r.Run([]Job{{Engine: device.EngineTCPSend, Node: 0, Size: small,
		Device: "nope"}}); err == nil {
		t.Error("unknown device should fail")
	}
	if _, err := r.Run([]Job{{Engine: device.EngineTCPSend, Node: 0, Size: small,
		Device: topology.SSD0}}); err == nil {
		t.Error("device kind mismatch should fail")
	}
}

func TestBuffersFreedAfterRun(t *testing.T) {
	sys, r := newRunner(t)
	var before [8]units.Size
	for n := 0; n < 8; n++ {
		before[n] = sys.FreeMem(topology.NodeID(n))
	}
	if _, err := r.Run([]Job{tcpJob(3, 4)}); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 8; n++ {
		if after := sys.FreeMem(topology.NodeID(n)); after != before[n] {
			t.Errorf("node %d free changed %v -> %v", n, before[n], after)
		}
	}
}

// Fig. 5(a): TCP send bandwidth grows with streams until four parallel
// streams, then plateaus.
func TestTCPStreamScaling(t *testing.T) {
	_, r := newRunner(t)
	var prev float64
	rates := map[int]float64{}
	for _, n := range []int{1, 2, 4, 8, 16} {
		rep, err := r.Run([]Job{tcpJob(6, n)})
		if err != nil {
			t.Fatal(err)
		}
		rates[n] = rep.Aggregate.Gbps()
		if rates[n] < prev-0.01 {
			t.Errorf("aggregate dropped with more streams: %d -> %.2f", n, rates[n])
		}
		prev = rates[n]
	}
	if math.Abs(rates[1]-5.3) > 0.1 {
		t.Errorf("1 stream = %.2f, want ~5.3 (per-core TCP cost)", rates[1])
	}
	if !(rates[4] > 3.5*rates[1]) {
		t.Errorf("4 streams (%.2f) should be ~4x one stream (%.2f)", rates[4], rates[1])
	}
	if math.Abs(rates[16]-rates[4]) > 0.05*rates[4] {
		t.Errorf("16 streams (%.2f) should plateau at the 4-stream rate (%.2f)", rates[16], rates[4])
	}
}

// Sec. IV-B1: binding to neighbour node 6 beats the device-local node 7,
// because node 7's cores also service the NIC interrupts.
func TestNeighborBeatsLocalUnderInterrupts(t *testing.T) {
	_, r := newRunner(t)
	rep6, err := r.Run([]Job{tcpJob(6, 4)})
	if err != nil {
		t.Fatal(err)
	}
	rep7, err := r.Run([]Job{tcpJob(7, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !(rep6.Aggregate > rep7.Aggregate) {
		t.Errorf("node 6 (%.2f) should beat node 7 (%.2f)",
			rep6.Aggregate.Gbps(), rep7.Aggregate.Gbps())
	}
	// Both are class 1: within ~10% of each other.
	if rel := (rep6.Aggregate - rep7.Aggregate).Gbps() / rep6.Aggregate.Gbps(); rel > 0.10 {
		t.Errorf("node 7 penalty too large: %.0f%%", rel*100)
	}
}

// Table IV: TCP send from class 3 nodes {2,3} is starved to ~16.2 Gb/s.
func TestTCPSendClass3(t *testing.T) {
	_, r := newRunner(t)
	for _, n := range []topology.NodeID{2, 3} {
		rep, err := r.Run([]Job{tcpJob(n, 4)})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Aggregate.Gbps(); math.Abs(got-16.2) > 1.0 {
			t.Errorf("TCP send node %d = %.2f, want ~16.2", n, got)
		}
	}
}

// Table IV: RDMA_WRITE reaches its 23.3 Gb/s ceiling from class 1/2 nodes
// with a single offloaded stream and ~17.1 from class 3.
func TestRDMAWriteClasses(t *testing.T) {
	_, r := newRunner(t)
	for n, want := range map[topology.NodeID]float64{
		7: 23.3, 6: 23.3, 0: 23.3, 5: 23.3, 2: 17.2, 3: 17.2,
	} {
		rep, err := r.Run([]Job{{Name: "w", Engine: device.EngineRDMAWrite,
			Node: n, NumJobs: 2, Size: small}})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Aggregate.Gbps(); math.Abs(got-want) > 0.08*want {
			t.Errorf("rdma_write node %d = %.2f, want ~%.1f", n, got, want)
		}
	}
}

// Table V: RDMA_READ classes — {6,7,2,3} at the 22 Gb/s ceiling, {0,1,5}
// around 18-19, {4} lowest.
func TestRDMAReadClasses(t *testing.T) {
	_, r := newRunner(t)
	get := func(n topology.NodeID) float64 {
		rep, err := r.Run([]Job{{Name: "r", Engine: device.EngineRDMARead,
			Node: n, NumJobs: 2, Size: small}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Aggregate.Gbps()
	}
	for _, n := range []topology.NodeID{7, 6, 2, 3} {
		if got := get(n); math.Abs(got-22.0) > 1.0 {
			t.Errorf("rdma_read node %d = %.2f, want ~22", n, got)
		}
	}
	mid := get(0)
	if math.Abs(mid-19.0) > 1.3 {
		t.Errorf("rdma_read node 0 = %.2f, want ~18-19", mid)
	}
	low := get(4)
	if !(low < mid-1) {
		t.Errorf("rdma_read node 4 (%.2f) should trail class 3 (%.2f)", low, mid)
	}
	if math.Abs(low-17.0) > 1.5 {
		t.Errorf("rdma_read node 4 = %.2f, want ~16-17", low)
	}
}

// Paper footnote on RDMA_READ vs STREAM: nodes {2,3} beat {0,1} for device
// reads although the STREAM models say the opposite — the key mismatch the
// proposed methodology resolves.
func TestRDMAReadInvertsStreamModel(t *testing.T) {
	_, r := newRunner(t)
	get := func(n topology.NodeID) float64 {
		rep, err := r.Run([]Job{{Name: "r", Engine: device.EngineRDMARead,
			Node: n, NumJobs: 2, Size: small}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Aggregate.Gbps()
	}
	if !(get(2) > get(0)*1.1) {
		t.Errorf("rdma_read node 2 (%.2f) should clearly beat node 0 (%.2f)", get(2), get(0))
	}
}

// Fig. 7: two-card SSD rates. Write ~29 from class 1, ~18 from class 3;
// read ~34.8 local and clearly degraded on node 4.
func TestSSDClasses(t *testing.T) {
	_, r := newRunner(t)
	run := func(engine string, n topology.NodeID, procs int) float64 {
		rep, err := r.Run([]Job{{Name: "d", Engine: engine, Node: n,
			NumJobs: procs, Size: small}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Aggregate.Gbps()
	}
	if got := run(device.EngineSSDWrite, 7, 2); math.Abs(got-29.0) > 1.5 {
		t.Errorf("ssd_write node 7 = %.2f, want ~29", got)
	}
	if got := run(device.EngineSSDWrite, 2, 2); math.Abs(got-18.0) > 1.5 {
		t.Errorf("ssd_write node 2 = %.2f, want ~18", got)
	}
	if got := run(device.EngineSSDRead, 7, 2); math.Abs(got-34.8) > 1.5 {
		t.Errorf("ssd_read node 7 = %.2f, want ~34.8", got)
	}
	lo := run(device.EngineSSDRead, 4, 2)
	hi := run(device.EngineSSDRead, 0, 2)
	if !(lo < hi-4) {
		t.Errorf("ssd_read node 4 (%.2f) should trail node 0 (%.2f) by a wide gap", lo, hi)
	}
	// More processes than cards plateaus.
	if got := run(device.EngineSSDWrite, 7, 4); math.Abs(got-29.0) > 1.5 {
		t.Errorf("ssd_write with 4 procs = %.2f, want ~29", got)
	}
}

// Shallow queues leave the flash idle (libaio iodepth, Sec. IV-B3).
func TestSSDQueueDepth(t *testing.T) {
	_, r := newRunner(t)
	deep, err := r.Run([]Job{{Name: "d", Engine: device.EngineSSDRead, Node: 7,
		NumJobs: 2, Size: small, IODepth: 16}})
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := r.Run([]Job{{Name: "d", Engine: device.EngineSSDRead, Node: 7,
		NumJobs: 2, Size: small, IODepth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !(shallow.Aggregate < deep.Aggregate/2) {
		t.Errorf("iodepth 1 (%.2f) should be far below iodepth 16 (%.2f)",
			shallow.Aggregate.Gbps(), deep.Aggregate.Gbps())
	}
}

// The memcpy engine (Algorithm 1's primitive): four threads on node 7
// copying from a source node reproduce the calibrated path capacities.
func TestMemcpyEngine(t *testing.T) {
	_, r := newRunner(t)
	run := func(src, dst topology.NodeID) float64 {
		rep, err := r.Run([]Job{{Name: "m", Engine: device.EngineMemcpy, Node: dst,
			NumJobs: 4, Size: small, SrcNode: &src, DstNode: &dst}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Aggregate.Gbps()
	}
	if got := run(7, 7); math.Abs(got-53) > 0.5 {
		t.Errorf("local memcpy = %.2f, want ~53", got)
	}
	if got := run(0, 7); math.Abs(got-45.5) > 0.5 {
		t.Errorf("memcpy 0->7 = %.2f, want ~45.5", got)
	}
	if got := run(2, 7); math.Abs(got-26.5) > 0.5 {
		t.Errorf("memcpy 2->7 = %.2f, want ~26.5", got)
	}
	if got := run(7, 4); math.Abs(got-28) > 0.5 {
		t.Errorf("memcpy 7->4 = %.2f, want ~28", got)
	}
}

// Sec. V-B multi-user validation: two RDMA_READ processes on node 2
// (class 2, ~22) plus two on node 0 (class 3, ~19) aggregate slightly
// below the Eq. 1 arithmetic-mean prediction.
func TestMultiUserHarmonicAggregate(t *testing.T) {
	_, r := newRunner(t)
	rep, err := r.Run([]Job{
		{Name: "c2", Engine: device.EngineRDMARead, Node: 2, NumJobs: 2, Size: small},
		{Name: "c3", Engine: device.EngineRDMARead, Node: 0, NumJobs: 2, Size: small},
	})
	if err != nil {
		t.Fatal(err)
	}
	single := func(n topology.NodeID) float64 {
		rr, err := r.Run([]Job{{Name: "s", Engine: device.EngineRDMARead,
			Node: n, NumJobs: 2, Size: small}})
		if err != nil {
			t.Fatal(err)
		}
		return rr.Aggregate.Gbps()
	}
	predicted := 0.5*single(2) + 0.5*single(0) // Eq. 1
	measured := rep.Aggregate.Gbps()
	if !(measured <= predicted+0.01) {
		t.Errorf("measured %.3f should not exceed Eq.1 prediction %.3f", measured, predicted)
	}
	if rel := math.Abs(predicted-measured) / measured; rel > 0.05 {
		t.Errorf("Eq.1 relative error %.1f%% exceeds 5%% (paper: 3.1%%)", rel*100)
	}
	if len(rep.Instances) != 4 {
		t.Errorf("expected 4 instances, got %d", len(rep.Instances))
	}
	// The DMA engine serves streams round-robin: equal byte rates per
	// stream, with the class mix expressed in the (harmonic) aggregate.
	if diff := math.Abs((rep.PerJob["c2"] - rep.PerJob["c3"]).Gbps()); diff > 0.01 {
		t.Errorf("round-robin engine should equalize per-job rates, diff %.3f", diff)
	}
}

func TestMembindOverride(t *testing.T) {
	_, r := newRunner(t)
	rep, err := r.Run([]Job{{Name: "b", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 1, Size: small, MemNode: nid(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances[0].BufferNode != 2 {
		t.Errorf("buffer node = %d, want 2", rep.Instances[0].BufferNode)
	}
	// Buffer on class-3 node 2 throttles the write even though the task
	// runs on node 7: placement follows the memory, not the CPU.
	if got := rep.Aggregate.Gbps(); math.Abs(got-17.2) > 1.5 {
		t.Errorf("membind-2 rdma_write = %.2f, want ~17.2", got)
	}
}

func TestReportJitterGrowsWithOversubscription(t *testing.T) {
	sys, _ := newRunner(t)
	r := NewRunner(sys)
	r.Sigma = 0.015
	if got := r.effectiveSigma(Job{Node: 6, NumJobs: 4}); got != 0.015 {
		t.Errorf("sigma at 4 jobs = %v", got)
	}
	if got := r.effectiveSigma(Job{Node: 6, NumJobs: 16}); got <= 0.015 {
		t.Errorf("sigma at 16 jobs = %v, want > base", got)
	}
}

func TestParseJobFile(t *testing.T) {
	src := `
# Fig. 5 style job file
[global]
ioengine=tcp_send
size=4g
bs=128k
iodepth=16

[senders]
node=6
numjobs=4

[readers]
ioengine=rdma_read
node=2
numjobs=2
membind=2
device=nic0

[copy]
ioengine=memcpy
node=7
src=0
dst=7
`
	jobs, err := ParseJobFile(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("parsed %d jobs, want 3", len(jobs))
	}
	s := jobs[0]
	if s.Name != "senders" || s.Engine != "tcp_send" || s.Node != 6 ||
		s.NumJobs != 4 || s.Size != 4*units.GiB || s.BlockSize != 128*units.KiB {
		t.Errorf("senders = %+v", s)
	}
	rd := jobs[1]
	if rd.Engine != "rdma_read" || rd.MemNode == nil || *rd.MemNode != 2 || rd.Device != "nic0" {
		t.Errorf("readers = %+v", rd)
	}
	cp := jobs[2]
	if cp.Engine != "memcpy" || cp.SrcNode == nil || *cp.SrcNode != 0 ||
		cp.DstNode == nil || *cp.DstNode != 7 {
		t.Errorf("copy = %+v", cp)
	}

	// The parsed jobs must actually run.
	_, r := newRunner(t)
	if _, err := r.Run(jobs); err != nil {
		t.Errorf("running parsed jobs: %v", err)
	}
}

func TestParseJobFileErrors(t *testing.T) {
	cases := []string{
		"",                                     // no jobs
		"key=value\n",                          // key outside section
		"[broken\nk=v\n",                       // malformed section header
		"[]\n",                                 // empty section name
		"[j]\nnonsense\n",                      // not key=value
		"[j]\n=v\n",                            // empty key
		"[j]\nioengine=tcp_send\nwhat=1\n",     // unknown key
		"[j]\nnumjobs=-2\nioengine=tcp_send\n", // negative int
		"[j]\nsize=goofy\nioengine=tcp_send\n", // bad size
		"[j]\nnode=two\nioengine=tcp_send\n",   // bad int
		"[j]\nbs=128k\n",                       // missing ioengine
	}
	for _, src := range cases {
		if _, err := ParseJobFile(strings.NewReader(src)); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseJobFileInlineComments(t *testing.T) {
	jobs, err := ParseJobFile(strings.NewReader("[j]\nioengine=tcp_send ; stream test\nnode=3 # bind\n"))
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Engine != "tcp_send" || jobs[0].Node != 3 {
		t.Errorf("job = %+v", jobs[0])
	}
}

func TestNativeMemcpy(t *testing.T) {
	res, err := NativeMemcpy(64*units.MiB, 256*units.KiB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth <= 0 || res.Bytes < 64*units.MiB {
		t.Errorf("result = %+v", res)
	}
	if _, err := NativeMemcpy(0, units.KiB, 1); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := NativeMemcpy(units.MiB, 0, 1); err == nil {
		t.Error("zero block should fail")
	}
	// Threads default and block clamp paths.
	if res, err := NativeMemcpy(units.MiB, 16*units.MiB, 0); err != nil || res.Threads <= 0 {
		t.Errorf("defaulted run failed: %+v, %v", res, err)
	}
}

func TestNativeTCP(t *testing.T) {
	res, err := NativeTCP(4*units.MiB, 64*units.KiB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth <= 0 || res.Bytes != 8*units.MiB || res.Streams != 2 {
		t.Errorf("result = %+v", res)
	}
	if _, err := NativeTCP(0, units.KiB, 1); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := NativeTCP(units.MiB, 0, 1); err == nil {
		t.Error("zero block should fail")
	}
	if res, err := NativeTCP(units.MiB, 4*units.MiB, 0); err != nil || res.Streams != 1 {
		t.Errorf("defaulted run failed: %+v, %v", res, err)
	}
}

// An interleaved buffer fans DMA traffic over every node: its rate lands
// between the best and worst single-node classes.
func TestInterleavedBuffer(t *testing.T) {
	_, r := newRunner(t)
	run := func(job Job) float64 {
		rep, err := r.Run([]Job{job})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Aggregate.Gbps()
	}
	best := run(Job{Name: "b", Engine: device.EngineRDMAWrite, Node: 7, NumJobs: 1, Size: small})
	worst := run(Job{Name: "w", Engine: device.EngineRDMAWrite, Node: 7, NumJobs: 1,
		Size: small, MemNode: nid(2)})
	inter := run(Job{Name: "i", Engine: device.EngineRDMAWrite, Node: 7, NumJobs: 1,
		Size: small, Interleave: true})
	if !(inter > worst && inter < best) {
		t.Errorf("interleaved %.2f should lie between worst %.2f and best %.2f",
			inter, worst, best)
	}
	// The interleaved instance reports its majority node via HomeNode; more
	// importantly the run must free all pages.
	if _, err := r.Run([]Job{{Name: "i2", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 2, Size: small, Interleave: true}}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveMembindConflict(t *testing.T) {
	_, r := newRunner(t)
	if _, err := r.Run([]Job{{Name: "x", Engine: device.EngineRDMAWrite, Node: 7,
		Size: small, Interleave: true, MemNode: nid(2)}}); err == nil {
		t.Error("interleave+membind should fail")
	}
}

// fio's rate= option caps each process.
func TestRateCap(t *testing.T) {
	_, r := newRunner(t)
	rep, err := r.Run([]Job{{Name: "capped", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 2, Size: small, Rate: 3 * units.Gbps}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Aggregate.Gbps(); math.Abs(got-6) > 0.01 {
		t.Errorf("aggregate = %.2f, want 6 (2 x 3 Gb/s)", got)
	}
	// Rate also caps the memcpy engine.
	src, dst := topology.NodeID(0), topology.NodeID(7)
	rep, err = r.Run([]Job{{Name: "mc", Engine: device.EngineMemcpy, Node: 7,
		NumJobs: 1, Size: small, Rate: 2 * units.Gbps, SrcNode: &src, DstNode: &dst}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Aggregate.Gbps(); math.Abs(got-2) > 0.01 {
		t.Errorf("memcpy aggregate = %.2f, want 2", got)
	}
}

func TestParseJobFileInterleaveAndRate(t *testing.T) {
	jobs, err := ParseJobFile(strings.NewReader(`
[j]
ioengine=rdma_write
node=7
interleave=yes
rate=2Gbps
`))
	if err != nil {
		t.Fatal(err)
	}
	if !jobs[0].Interleave || jobs[0].Rate != 2*units.Gbps {
		t.Errorf("job = %+v", jobs[0])
	}
	if _, err := ParseJobFile(strings.NewReader("[j]\nioengine=tcp_send\ninterleave=maybe\n")); err == nil {
		t.Error("bad boolean should fail")
	}
	if _, err := ParseJobFile(strings.NewReader("[j]\nioengine=tcp_send\nrate=goofy\n")); err == nil {
		t.Error("bad rate should fail")
	}
}

// Completion-latency percentiles: ordered, wider with more competitors,
// longer on remote paths.
func TestLatencyStats(t *testing.T) {
	_, r := newRunner(t)
	single, err := r.Run([]Job{{Name: "s", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 1, Size: small}})
	if err != nil {
		t.Fatal(err)
	}
	lat1 := single.Instances[0].Latency
	if !lat1.wellFormed() {
		t.Errorf("latency stats malformed: %+v", lat1)
	}
	// A single instance has no RR competitors: p99 == p50.
	if lat1.P99 != lat1.P50 {
		t.Errorf("single instance p99 %v != p50 %v", lat1.P99, lat1.P50)
	}

	many, err := r.Run([]Job{{Name: "m", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 4, Size: small}})
	if err != nil {
		t.Fatal(err)
	}
	latN := many.Instances[0].Latency
	if !latN.wellFormed() {
		t.Errorf("latency stats malformed: %+v", latN)
	}
	if !(latN.P99 > latN.P50) {
		t.Error("contended run should widen the tail")
	}
	// Four ways slower per stream -> roughly 4x the block time.
	if !(latN.P50 > 3*lat1.P50) {
		t.Errorf("4-way block time %v should be ~4x single %v", latN.P50, lat1.P50)
	}

	// Remote buffers add propagation delay.
	local, err := r.Run([]Job{{Name: "l", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 1, Size: small, Rate: 10 * units.Gbps}})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := r.Run([]Job{{Name: "r", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 1, Size: small, Rate: 10 * units.Gbps, MemNode: nid(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if !(remote.Instances[0].Latency.P50 > local.Instances[0].Latency.P50) {
		t.Errorf("remote p50 %v should exceed local p50 %v",
			remote.Instances[0].Latency.P50, local.Instances[0].Latency.P50)
	}
}

func TestBlockLatencyEdgeCases(t *testing.T) {
	if got := blockLatency(0, 0, units.Gbps, 1); got != (LatencyStats{}) {
		t.Error("zero block size should yield zero stats")
	}
	if got := blockLatency(0, units.KiB, 0, 1); got != (LatencyStats{}) {
		t.Error("zero rate should yield zero stats")
	}
	got := blockLatency(0, 128*units.KiB, units.Gbps, 0)
	if !got.wellFormed() {
		t.Errorf("competitors<1 should clamp: %+v", got)
	}
}

// Property: any valid random job mix yields a feasible report — aggregate
// bounded by the involved device ceilings plus memory-path limits, memory
// conserved, every instance reported.
func TestRunFeasibilityProperty(t *testing.T) {
	engines := []string{
		device.EngineTCPSend, device.EngineTCPRecv, device.EngineRDMAWrite,
		device.EngineRDMARead, device.EngineRDMASend, device.EngineSSDWrite,
		device.EngineSSDRead,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys, err := numa.NewSystem(topology.DL585G7())
		if err != nil {
			return false
		}
		r := NewRunner(sys)
		r.Sigma = 0
		nJobs := 1 + rng.Intn(4)
		var jobs []Job
		total := 0
		for i := 0; i < nJobs; i++ {
			j := Job{
				Name:    fmt.Sprintf("j%d", i),
				Engine:  engines[rng.Intn(len(engines))],
				Node:    topology.NodeID(rng.Intn(8)),
				NumJobs: 1 + rng.Intn(4),
				Size:    units.Size(1+rng.Intn(4)) * units.GiB,
			}
			if rng.Intn(3) == 0 {
				j.Interleave = true
			}
			total += j.NumJobs
			jobs = append(jobs, j)
		}
		rep, err := r.Run(jobs)
		if err != nil {
			return false
		}
		if len(rep.Instances) != total {
			return false
		}
		// Ceiling bound: sum of all distinct (device, engine) ceilings.
		specs := device.DefaultSpecs()
		bound := 0.0
		seen := map[string]bool{}
		for _, j := range jobs {
			spec := specs[j.Engine]
			perDev := 1
			if spec.Kind == topology.DeviceSSD {
				perDev = 2
			}
			if !seen[j.Engine] {
				bound += float64(spec.Ceiling) * float64(perDev)
				seen[j.Engine] = true
			}
		}
		if float64(rep.Aggregate) > bound*1.001 {
			return false
		}
		// Memory conserved.
		for n := topology.NodeID(0); n < 8; n++ {
			want := 4 * units.GiB
			if n == 0 {
				want -= simhost.DefaultOSReservation
			}
			if sys.FreeMem(n) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Cross-model check: the analytic LatencyStats agrees with the block-level
// DES on the p50 block time for an uncontended stream.
func TestLatencyAgainstBlocksim(t *testing.T) {
	sys, r := newRunner(t)
	rep, err := r.Run([]Job{{Name: "x", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 1, Size: small}})
	if err != nil {
		t.Fatal(err)
	}
	analytic := rep.Instances[0].Latency.P50.Seconds()

	// The same flow block by block: single stage at the achieved rate.
	res := []fabric.Resource{{ID: "eng", Capacity: rep.Instances[0].Bandwidth}}
	out, err := blocksim.Run(res, []blocksim.Transfer{{
		ID: "x", Bytes: 64 * units.MiB,
		Stages: []blocksim.Stage{{Resource: "eng", Weight: 1}},
		Window: 1,
	}}, blocksim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lat := append([]units.Duration(nil), out["x"].Latencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	des := lat[(len(lat)-1)/2].Seconds()
	// Analytic includes the propagation delay on top of the service time;
	// both must agree within 10% (propagation is sub-microsecond).
	if rel := math.Abs(analytic-des) / des; rel > 0.10 {
		t.Errorf("analytic p50 %.3gs vs blocksim %.3gs (off %.0f%%)", analytic, des, rel*100)
	}
	_ = sys
}

// runtime= makes a job time-based: fixed duration, rate-derived bytes.
func TestRuntimeJobs(t *testing.T) {
	_, r := newRunner(t)
	rep, err := r.Run([]Job{{Name: "t", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 2, Size: small, Runtime: units.Duration(30)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range rep.Instances {
		if in.Duration != units.Duration(30) {
			t.Errorf("instance duration = %v, want 30s", in.Duration)
		}
		if in.AvgRate != in.Bandwidth {
			t.Error("time-based job should report steady rate as average")
		}
	}
	if rep.Makespan != units.Duration(30) {
		t.Errorf("makespan = %v, want 30s", rep.Makespan)
	}

	jobs, err := ParseJobFile(strings.NewReader("[j]\nioengine=tcp_send\nnode=6\nruntime=45s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Runtime != units.Duration(45) {
		t.Errorf("parsed runtime = %v", jobs[0].Runtime)
	}
	if _, err := ParseJobFile(strings.NewReader("[j]\nioengine=tcp_send\nruntime=goofy\n")); err == nil {
		t.Error("bad runtime should fail")
	}
	if _, err := ParseJobFile(strings.NewReader("[j]\nioengine=tcp_send\nruntime=-3s\n")); err == nil {
		t.Error("negative runtime should fail")
	}
}

// The dual-port adapter: each port alone reaches the RDMA ceiling, but both
// ports together are capped by the card's shared PCIe Gen2 x8 attachment.
func TestDualPortSharesPCIe(t *testing.T) {
	sys, err := numa.NewSystem(topology.DL585G7DualPort())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sys)
	r.Sigma = 0

	one, err := r.Run([]Job{{Name: "p0", Engine: device.EngineRDMAWrite, Node: 7,
		NumJobs: 1, Size: small, Device: topology.NIC0P0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := one.Aggregate.Gbps(); math.Abs(got-23.3) > 1 {
		t.Errorf("single port = %.2f, want ~23.3", got)
	}

	both, err := r.Run([]Job{
		{Name: "p0", Engine: device.EngineRDMAWrite, Node: 7, NumJobs: 1, Size: small, Device: topology.NIC0P0},
		{Name: "p1", Engine: device.EngineRDMAWrite, Node: 7, NumJobs: 1, Size: small, Device: topology.NIC0P1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := both.Aggregate.Gbps(); got > 32.01 {
		t.Errorf("dual port aggregate = %.2f, must not exceed the 32 Gb/s PCIe attachment", got)
	}
	if got := both.Aggregate.Gbps(); got < 30 {
		t.Errorf("dual port aggregate = %.2f, should saturate the PCIe attachment", got)
	}
	// Fair split between the ports.
	if d := math.Abs((both.PerJob["p0"] - both.PerJob["p1"]).Gbps()); d > 0.5 {
		t.Errorf("ports should split evenly, diff %.2f", d)
	}
}

// Pinning all SSD processes to one card (fio's filename= analogue) halves
// the two-card aggregate.
func TestExplicitSSDDevicePinning(t *testing.T) {
	_, r := newRunner(t)
	striped, err := r.Run([]Job{{Name: "s", Engine: device.EngineSSDWrite, Node: 7,
		NumJobs: 2, Size: small}})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := r.Run([]Job{{Name: "p", Engine: device.EngineSSDWrite, Node: 7,
		NumJobs: 2, Size: small, Device: topology.SSD0}})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(striped.Aggregate) / float64(pinned.Aggregate)
	if math.Abs(ratio-2) > 0.1 {
		t.Errorf("striped/pinned = %.2f, want ~2 (one card vs two)", ratio)
	}
}

func TestEnginesList(t *testing.T) {
	engines := Engines()
	if len(engines) != 8 {
		t.Fatalf("engines = %v", engines)
	}
	if engines[len(engines)-1] != device.EngineMemcpy {
		t.Errorf("memcpy should close the list: %v", engines)
	}
	// Every listed engine must actually run.
	_, r := newRunner(t)
	for _, e := range engines {
		j := Job{Name: "probe", Engine: e, Node: 6, Size: small}
		if e == device.EngineMemcpy {
			j.SrcNode, j.DstNode = nid(0), nid(7)
		}
		if _, err := r.Run([]Job{j}); err != nil {
			t.Errorf("engine %s failed: %v", e, err)
		}
	}
}

// TestRunAggregateMatchesReport: the sweep's aggregate-only path must
// equal Run's Report.Aggregate bit for bit — same jitter draws, same
// instance-order float sum — on every profile, for every (target, source)
// pair, at 1, 4 and 12 copy threads (past ten instances the transfer IDs
// sort differently from instance order), alone and beside a second memcpy
// job copying the other way, whose name sorts first.
func TestRunAggregateMatchesReport(t *testing.T) {
	profiles := []string{"dl585g7", "dl585g7-dualport", "magny-a", "magny-b", "magny-c",
		"magny-d", "intel-4s4n", "amd-4s8n", "amd-8s8n", "hp-blade32"}
	checks := 0
	for _, name := range profiles {
		m, err := topology.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := numa.NewSystem(m)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(sys) // default jitter: the draws must match too
		nodes := m.NodeIDs()
		for _, target := range nodes {
			for _, src := range nodes {
				for _, threads := range []int{1, 4, 12} {
					jobs := []Job{{
						Name:    fmt.Sprintf("cell-t%d-n%d", int(target), int(src)),
						Engine:  device.EngineMemcpy,
						Node:    target,
						NumJobs: threads,
						SrcNode: nid(int(src)),
						DstNode: nid(int(target)),
					}, {
						Name:    "back",
						Engine:  device.EngineMemcpy,
						Node:    src,
						NumJobs: 2,
						SrcNode: nid(int(target)),
						DstNode: nid(int(src)),
					}}
					for _, js := range [][]Job{jobs[:1], jobs} {
						agg, err := r.RunAggregate(context.Background(), js)
						if err != nil {
							t.Fatal(err)
						}
						rep, err := r.Run(js)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(float64(agg)) != math.Float64bits(float64(rep.Aggregate)) {
							t.Fatalf("%s %d->%d x%d (%d jobs): RunAggregate %v != Report.Aggregate %v",
								name, int(src), int(target), threads, len(js), agg, rep.Aggregate)
						}
						checks++
					}
				}
			}
		}
	}
	t.Logf("%d aggregate checks", checks)
}
