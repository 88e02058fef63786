package numa

import (
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
	if task.Node() != 0 {
		t.Errorf("fresh task node = %d, want 0", task.Node())
	}
	if err := task.RunOn(5); err != nil {
		t.Fatal(err)
	}
	if task.Node() != 5 {
		t.Errorf("after RunOn(5): node=%d", task.Node())
	}
	if err := task.RunOn(99); err == nil {
		t.Error("RunOn unknown node should fail")
	}
}

func TestTaskAllocHelpers(t *testing.T) {
	s := newSys(t)
	task := s.NewTask("t")
	if err := task.RunOn(6); err != nil {
		t.Fatal(err)
	}

	b, err := task.AllocOnNode(units.GiB, 6)
	if err != nil {
		t.Fatal(err)
	}
	if b.HomeNode() != 6 {
		t.Errorf("AllocOnNode landed on %d, want 6", b.HomeNode())
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
	b, err := s.Host().Alloc(simhost.AllocRequest{
		Size: 512 * units.MiB, Policy: simhost.PolicyLocalPreferred, TaskNode: task.Node(),
	})
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
				b, err := task.AllocOnNode(units.MiB, task.Node())
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
