package numa

import (
	"slices"
	"strings"
	"testing"

	"numaio/internal/simhost"
	"numaio/internal/topology"
	"numaio/internal/units"
)

func newSys(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(topology.DL585G7())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidates(t *testing.T) {
	if _, err := NewSystem(topology.New("bad", nil)); err == nil {
		t.Error("invalid machine should be rejected")
	}
}

func TestSystemCounts(t *testing.T) {
	s := newSys(t)
	if got := s.NumConfiguredNodes(); got != 8 {
		t.Errorf("NumConfiguredNodes = %d, want 8", got)
	}
	if got := s.NumConfiguredCores(); got != 32 {
		t.Errorf("NumConfiguredCores = %d, want 32", got)
	}
	c, err := s.CoresPerNode(3)
	if err != nil || c != 4 {
		t.Errorf("CoresPerNode(3) = %d, %v", c, err)
	}
	if _, err := s.CoresPerNode(42); err == nil {
		t.Error("unknown node should error")
	}
}

func TestDistance(t *testing.T) {
	s := newSys(t)
	if d, err := s.Distance(7, 7); err != nil || d != 10 {
		t.Errorf("Distance(7,7) = %d, %v", d, err)
	}
	if d, err := s.Distance(7, 6); err != nil || d != 20 {
		t.Errorf("Distance(7,6) = %d, %v", d, err)
	}
	if d, err := s.Distance(7, 1); err != nil || d != 30 {
		t.Errorf("Distance(7,1) = %d, %v", d, err)
	}
	if _, err := s.Distance(7, 42); err == nil {
		t.Error("unknown node should error")
	}
}

func TestHardwarePassthrough(t *testing.T) {
	s := newSys(t)
	if !strings.Contains(s.Hardware(), "available: 8 nodes") {
		t.Error("Hardware output malformed")
	}
	if s.Machine().Name != "hp-dl585-g7" {
		t.Error("Machine accessor broken")
	}
	if s.Host() == nil {
		t.Error("Host accessor broken")
	}
}

func TestTaskPinning(t *testing.T) {
	s := newSys(t)
	task := s.NewTask("worker")
	if task.Name() != "worker" {
		t.Error("task name")
	}
	if task.Bound() {
		t.Error("fresh task should be unbound")
	}
	if task.Node() != 0 {
		t.Errorf("fresh task node = %d, want 0", task.Node())
	}
	if err := task.RunOn(5); err != nil {
		t.Fatal(err)
	}
	if !task.Bound() || task.Node() != 5 {
		t.Errorf("after RunOn(5): bound=%v node=%d", task.Bound(), task.Node())
	}
	if err := task.RunOn(99); err == nil {
		t.Error("RunOn unknown node should fail")
	}
}

func TestTaskPolicies(t *testing.T) {
	s := newSys(t)
	task := s.NewTask("t")
	if task.Policy() != simhost.PolicyLocalPreferred {
		t.Error("default policy should be local-preferred")
	}
	if err := task.SetMemPolicy(simhost.PolicyBind, 3); err != nil {
		t.Fatal(err)
	}
	if task.Policy() != simhost.PolicyBind {
		t.Error("policy not applied")
	}
	b, err := task.Alloc(units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if b.HomeNode() != 3 {
		t.Errorf("bind alloc on %d, want 3", b.HomeNode())
	}
	if err := task.Free(b); err != nil {
		t.Fatal(err)
	}

	// Policy argument validation.
	if err := task.SetMemPolicy(simhost.PolicyBind); err == nil {
		t.Error("bind without node should fail")
	}
	if err := task.SetMemPolicy(simhost.PolicyBind, 1, 2); err == nil {
		t.Error("bind with two nodes should fail")
	}
	if err := task.SetMemPolicy(simhost.PolicyLocalPreferred, 1); err == nil {
		t.Error("local-preferred with node should fail")
	}
	if err := task.SetMemPolicy(simhost.PolicyBind, 99); err == nil {
		t.Error("unknown node should fail")
	}
	if err := task.SetMemPolicy(simhost.Policy(42)); err == nil {
		t.Error("unknown policy should fail")
	}
	if err := task.SetMemPolicy(simhost.PolicyInterleave, 1, 2); err != nil {
		t.Errorf("interleave subset should work: %v", err)
	}
	b, err = task.Alloc(2 * units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Pages, []simhost.Share{{Node: 1, Size: units.GiB}, {Node: 2, Size: units.GiB}}) {
		t.Errorf("interleaved pages = %+v", b.Pages)
	}
}

func TestTaskAllocHelpers(t *testing.T) {
	s := newSys(t)
	task := s.NewTask("t")
	if err := task.RunOn(6); err != nil {
		t.Fatal(err)
	}

	b, err := task.AllocLocal(units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if b.HomeNode() != 6 {
		t.Errorf("AllocLocal landed on %d, want 6", b.HomeNode())
	}

	b2, err := task.AllocOnNode(units.GiB, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b2.HomeNode() != 2 {
		t.Errorf("AllocOnNode landed on %d", b2.HomeNode())
	}

	b3, err := task.AllocInterleaved(8 * units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(b3.Pages) != 8 {
		t.Errorf("AllocInterleaved spread over %d nodes", len(b3.Pages))
	}

	for _, b := range []*simhost.Buffer{b, b2, b3} {
		if err := task.Free(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.FreeMem(6); got != 4*units.GiB {
		t.Errorf("node 6 free = %v after frees", got)
	}
}

// The paper's default-policy scenario: a task running remote from the I/O
// device still allocates locally, so its I/O must cross the fabric.
func TestLocalPreferredStatsFlow(t *testing.T) {
	s := newSys(t)
	task := s.NewTask("app")
	if err := task.RunOn(2); err != nil {
		t.Fatal(err)
	}
	b, err := task.Alloc(512 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if b.HomeNode() != 2 {
		t.Errorf("local-preferred landed on %d, want 2", b.HomeNode())
	}
	st := s.Stats(2)
	if st.NumaHit != 1 || st.LocalNode != 1 {
		t.Errorf("stats(2) = %+v", st)
	}
}

// Concurrent tasks hammer the allocator from many goroutines; run with
// -race to verify the locking.
func TestConcurrentAllocations(t *testing.T) {
	s := newSys(t)
	const workers = 16
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			task := s.NewTask("worker")
			if err := task.RunOn(topology.NodeID(w % 8)); err != nil {
				done <- err
				return
			}
			for i := 0; i < 50; i++ {
				b, err := task.AllocLocal(units.MiB)
				if err != nil {
					done <- err
					return
				}
				if err := task.Free(b); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for n := topology.NodeID(1); n < 8; n++ {
		if got := s.FreeMem(n); got != 4*units.GiB {
			t.Errorf("node %d free = %v after concurrent churn", n, got)
		}
	}
}

func TestCoreNodeMapping(t *testing.T) {
	s := newSys(t)
	cases := map[int]topology.NodeID{0: 0, 3: 0, 4: 1, 31: 7, 28: 7, 12: 3}
	for core, want := range cases {
		got, err := s.CoreNode(core)
		if err != nil || got != want {
			t.Errorf("CoreNode(%d) = %d, %v; want %d", core, got, err, want)
		}
	}
	if _, err := s.CoreNode(-1); err == nil {
		t.Error("negative core should fail")
	}
	if _, err := s.CoreNode(32); err == nil {
		t.Error("out-of-range core should fail")
	}
}

func TestRunOnCore(t *testing.T) {
	s := newSys(t)
	task := s.NewTask("pin")
	if err := task.RunOnCore(30); err != nil {
		t.Fatal(err)
	}
	if task.Node() != 7 {
		t.Errorf("core 30 should pin to node 7, got %d", task.Node())
	}
	if err := task.RunOnCore(99); err == nil {
		t.Error("bad core should fail")
	}
}
