package simhost

import (
	"fmt"
	"sort"
	"strings"

	"numaio/internal/fabric"
	"numaio/internal/units"
)

// TransferRate is one transfer's allocation during a phase.
type TransferRate struct {
	ID   string
	Rate units.Bandwidth
}

// RateList holds the per-transfer allocations of a phase in ascending
// transfer-ID order. It replaced a map so a fluid run can arena-allocate
// every phase's entries in one block (RunFluid's allocation budget is
// gated in CI).
type RateList []TransferRate

// ResourceUtil is one resource's load fraction during a phase.
type ResourceUtil struct {
	Resource fabric.ResourceID
	Util     float64
}

// UtilList holds the per-resource load fractions of a phase, only for
// loaded resources, in the solver's resource-index order. An absent
// resource reads as 0 — which is also its utilization.
type UtilList []ResourceUtil

// Phase is one constant-rate interval of a fluid run: the allocation is
// fixed between transfer completions.
type Phase struct {
	Start    units.Duration
	Duration units.Duration
	// Rates holds the per-transfer allocation during the phase.
	Rates RateList
	// Utilization holds the per-resource load fraction during the phase.
	Utilization UtilList
	// Completed lists transfers that finish exactly at the end of the
	// phase.
	Completed []string
}

// Aggregate returns the summed rate of the phase.
func (p *Phase) Aggregate() units.Bandwidth {
	var sum units.Bandwidth
	for i := range p.Rates {
		sum += p.Rates[i].Rate
	}
	return sum
}

// Timeline is the phase-by-phase record of a fluid run.
type Timeline struct {
	Phases []Phase
}

// Makespan returns the total traced time.
func (t *Timeline) Makespan() units.Duration {
	if len(t.Phases) == 0 {
		return 0
	}
	last := t.Phases[len(t.Phases)-1]
	return last.Start + last.Duration
}

// Bottlenecks returns the resources that are ~saturated (≥ thresh) in at
// least one phase, sorted by ID.
func (t *Timeline) Bottlenecks(thresh float64) []fabric.ResourceID {
	seen := make(map[fabric.ResourceID]bool)
	for i := range t.Phases {
		for _, u := range t.Phases[i].Utilization {
			if u.Util >= thresh {
				seen[u.Resource] = true
			}
		}
	}
	out := make([]fabric.ResourceID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Summary renders a compact per-phase view: time span, aggregate rate,
// active transfers and completions.
func (t *Timeline) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d phases, makespan %v\n", len(t.Phases), t.Makespan())
	for i := range t.Phases {
		p := &t.Phases[i]
		fmt.Fprintf(&b, "  phase %d @%v (+%v): %d active, aggregate %v",
			i, p.Start, p.Duration, len(p.Rates), p.Aggregate())
		if len(p.Completed) > 0 {
			fmt.Fprintf(&b, ", completes %s", strings.Join(p.Completed, ","))
		}
		b.WriteString("\n")
	}
	return b.String()
}
