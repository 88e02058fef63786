package simhost

import (
	"math"
	"strings"
	"testing"

	"numaio/internal/fabric"
	"numaio/internal/units"
)

// twoPhaseRun builds the canonical two-phase scenario: a small and a big
// transfer sharing one 10 Gb/s link.
func twoPhaseRun(t *testing.T) *SessionResult {
	t.Helper()
	res := []fabric.Resource{{ID: "l", Capacity: 10 * units.Gbps}}
	u := []fabric.Usage{{Resource: "l", Weight: 1}}
	out, err := RunFluid(res, []Transfer{
		{ID: "small", Bytes: 625 * units.MiB, Usages: u},
		{ID: "big", Bytes: 1875 * units.MiB, Usages: u},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTimelinePhases(t *testing.T) {
	out := twoPhaseRun(t)
	tl := out.Timeline
	if len(tl.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(tl.Phases))
	}
	p0, p1 := tl.Phases[0], tl.Phases[1]
	if p0.Start != 0 {
		t.Errorf("phase 0 start = %v", p0.Start)
	}
	if len(p0.Rates) != 2 || len(p1.Rates) != 1 {
		t.Errorf("phase active counts: %d, %d", len(p0.Rates), len(p1.Rates))
	}
	if math.Abs(p0.Aggregate().Gbps()-10) > 1e-6 {
		t.Errorf("phase 0 aggregate = %v", p0.Aggregate().Gbps())
	}
	if math.Abs(p1.Rates.Get("big").Gbps()-10) > 1e-6 {
		t.Errorf("phase 1 big rate = %v", p1.Rates.Get("big").Gbps())
	}
	if len(p0.Completed) != 1 || p0.Completed[0] != "small" {
		t.Errorf("phase 0 completed = %v", p0.Completed)
	}
	if math.Abs(tl.Makespan().Seconds()-out.Makespan.Seconds()) > 1e-9 {
		t.Errorf("timeline makespan %v != session makespan %v", tl.Makespan(), out.Makespan)
	}
}

// Get returns a transfer's rate (0 when inactive in the phase).
func (rl RateList) Get(id string) units.Bandwidth {
	for i := range rl {
		if rl[i].ID == id {
			return rl[i].Rate
		}
	}
	return 0
}

func TestTimelineUtilizationAndBottlenecks(t *testing.T) {
	out := twoPhaseRun(t)
	tl := out.Timeline
	hot := tl.Bottlenecks(0.999)
	if len(hot) != 1 || hot[0] != "l" {
		t.Errorf("bottlenecks = %v", hot)
	}
	if got := tl.Bottlenecks(1.1); len(got) != 0 {
		t.Errorf("impossible threshold matched %v", got)
	}
	if (&Timeline{}).Makespan() != 0 {
		t.Error("empty timeline makespan should be 0")
	}
}

func TestTimelineSummary(t *testing.T) {
	out := twoPhaseRun(t)
	s := out.Timeline.Summary()
	for _, want := range []string{"2 phases", "phase 0", "completes small", "2 active"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
