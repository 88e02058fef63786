package simhost

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"numaio/internal/fabric"
	"numaio/internal/units"
)

// The tests in this file lock the phase-boundary behaviour of RunFluid:
// which phases exist, who completes in which phase, and how rates change at
// boundaries. They were written against the phase-per-solver implementation
// and must keep passing against the reused-solver fast path.

// TestRunFluidSimultaneousCompletions: equal transfers over a shared link
// finish at the same instant — one phase, both completed in ID order.
func TestRunFluidSimultaneousCompletions(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 10 * units.Gbps}}
	u := []fabric.Usage{{Resource: "l", Weight: 1}}
	out, err := RunFluid(res, []Transfer{
		{ID: "b", Bytes: 625 * units.MiB, Usages: u},
		{ID: "a", Bytes: 625 * units.MiB, Usages: u},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timeline.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(out.Timeline.Phases))
	}
	p := out.Timeline.Phases[0]
	if !reflect.DeepEqual(p.Completed, []string{"a", "b"}) {
		t.Errorf("completed = %v, want [a b]", p.Completed)
	}
	// Both ran at 5 Gb/s for the whole makespan. Results come back in
	// input order, not ID order.
	var steady units.Bandwidth
	for i, id := range []string{"b", "a"} {
		if got := p.Rates.Get(id).Gbps(); math.Abs(got-5) > 1e-6 {
			t.Errorf("rate[%s] = %v, want 5", id, got)
		}
		tr := out.Transfers[i]
		if tr.ID != id {
			t.Errorf("Transfers[%d].ID = %q, want %q", i, tr.ID, id)
		}
		if math.Abs(tr.Duration.Seconds()-out.Makespan.Seconds()) > 1e-9 {
			t.Errorf("duration[%s] = %v, want makespan %v", id, tr.Duration, out.Makespan)
		}
		steady += tr.InitialRate
	}
	if got := steady.Gbps(); math.Abs(got-10) > 1e-6 {
		t.Errorf("steady aggregate = %v, want 10", got)
	}
}

// TestRunFluidSimultaneousAmongStaggered: two equal small transfers
// complete together mid-run, then the big one speeds up.
func TestRunFluidSimultaneousAmongStaggered(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 12 * units.Gbps}}
	u := []fabric.Usage{{Resource: "l", Weight: 1}}
	out, err := RunFluid(res, []Transfer{
		{ID: "s1", Bytes: 500 * units.MiB, Usages: u},
		{ID: "s2", Bytes: 500 * units.MiB, Usages: u},
		{ID: "big", Bytes: 2000 * units.MiB, Usages: u},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timeline.Phases) != 2 {
		t.Fatalf("phases = %d, want 2\n%s", len(out.Timeline.Phases), out.Timeline.Summary())
	}
	p0, p1 := out.Timeline.Phases[0], out.Timeline.Phases[1]
	if !reflect.DeepEqual(p0.Completed, []string{"s1", "s2"}) {
		t.Errorf("phase 0 completed = %v, want [s1 s2]", p0.Completed)
	}
	if !reflect.DeepEqual(p1.Completed, []string{"big"}) {
		t.Errorf("phase 1 completed = %v, want [big]", p1.Completed)
	}
	// Phase 0: 4 Gb/s each; phase 1: big alone at the full 12 Gb/s.
	if got := p0.Rates.Get("big").Gbps(); math.Abs(got-4) > 1e-6 {
		t.Errorf("phase 0 big rate = %v, want 4", got)
	}
	if got := p1.Rates.Get("big").Gbps(); math.Abs(got-12) > 1e-6 {
		t.Errorf("phase 1 big rate = %v, want 12", got)
	}
	if len(p1.Rates) != 1 {
		t.Errorf("phase 1 rates = %v, want only big", p1.Rates)
	}
	// Phase boundaries are contiguous.
	if got, want := p1.Start, p0.Start+p0.Duration; math.Abs(got.Seconds()-want.Seconds()) > 1e-12 {
		t.Errorf("phase 1 start = %v, want %v", got, want)
	}
	if got, want := out.Makespan, p1.Start+p1.Duration; math.Abs(got.Seconds()-want.Seconds()) > 1e-12 {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

// TestRunFluidSingleTransferTimeline: a lone transfer yields exactly one
// phase at the bottleneck rate with a full-utilization record.
func TestRunFluidSingleTransferTimeline(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 8 * units.Gbps}}
	out, err := RunFluid(res, []Transfer{{
		ID: "only", Bytes: units.GiB,
		Usages: []fabric.Usage{{Resource: "l", Weight: 1}},
	}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timeline.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(out.Timeline.Phases))
	}
	p := out.Timeline.Phases[0]
	if !reflect.DeepEqual(p.Completed, []string{"only"}) {
		t.Errorf("completed = %v, want [only]", p.Completed)
	}
	if u := p.Utilization; len(u) != 1 || u[0].Resource != "l" || math.Abs(u[0].Util-1) > 1e-9 {
		t.Errorf("utilization = %+v, want l at 1", u)
	}
	if got := out.Transfers[0].InitialRate.Gbps(); math.Abs(got-8) > 1e-6 {
		t.Errorf("initial rate = %v, want 8", got)
	}
	if got := out.AggregateBandwidth.Gbps(); math.Abs(got-8) > 1e-6 {
		t.Errorf("aggregate = %v, want 8", got)
	}
}

// TestRunFluidRateCappedContention: a demand-capped transfer leaves the
// rest of the link to its uncapped peer; when the peer finishes, the capped
// one keeps its cap (phase boundary must not lift the demand).
func TestRunFluidRateCappedContention(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 10 * units.Gbps}}
	u := []fabric.Usage{{Resource: "l", Weight: 1}}
	out, err := RunFluid(res, []Transfer{
		// 2 Gb/s cap, 8 Gbit of data -> alone it would need 4 s.
		{ID: "capped", Bytes: 1000 * units.MiB, Demand: 2 * units.Gbps, Usages: u},
		// Uncapped, gets the remaining 8 Gb/s: 16 Gbit -> 2 s.
		{ID: "fast", Bytes: 2000 * units.MiB, Usages: u},
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timeline.Phases) != 2 {
		t.Fatalf("phases = %d, want 2\n%s", len(out.Timeline.Phases), out.Timeline.Summary())
	}
	p0, p1 := out.Timeline.Phases[0], out.Timeline.Phases[1]
	if got := p0.Rates.Get("capped").Gbps(); math.Abs(got-2) > 1e-6 {
		t.Errorf("phase 0 capped rate = %v, want 2", got)
	}
	if got := p0.Rates.Get("fast").Gbps(); math.Abs(got-8) > 1e-6 {
		t.Errorf("phase 0 fast rate = %v, want 8", got)
	}
	if !reflect.DeepEqual(p0.Completed, []string{"fast"}) {
		t.Errorf("phase 0 completed = %v, want [fast]", p0.Completed)
	}
	// After fast completes the cap still binds.
	if got := p1.Rates.Get("capped").Gbps(); math.Abs(got-2) > 1e-6 {
		t.Errorf("phase 1 capped rate = %v, want 2", got)
	}
	if got := out.Transfers[0].Bandwidth.Gbps(); math.Abs(got-2) > 1e-6 {
		t.Errorf("capped average = %v, want 2", got)
	}
}

// TestRunFluidPhaseInvariants: contiguous phases, at least one completion
// per phase, and rates exactly for the transfers still active.
func TestRunFluidPhaseInvariants(t *testing.T) {
	res := []fabric.Resource{{ID: "l", Capacity: 10 * units.Gbps}}
	u := []fabric.Usage{{Resource: "l", Weight: 1}}
	var transfers []Transfer
	sizes := []units.Size{100 * units.MiB, 300 * units.MiB, 600 * units.MiB, 1000 * units.MiB}
	ids := []string{"t0", "t1", "t2", "t3"}
	for i, sz := range sizes {
		transfers = append(transfers, Transfer{ID: ids[i], Bytes: sz, Usages: u})
	}
	out, err := RunFluid(res, transfers, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timeline.Phases) != len(sizes) {
		t.Fatalf("phases = %d, want %d", len(out.Timeline.Phases), len(sizes))
	}
	active := len(sizes)
	var clock units.Duration
	for i, p := range out.Timeline.Phases {
		if math.Abs(p.Start.Seconds()-clock.Seconds()) > 1e-12 {
			t.Errorf("phase %d start = %v, want %v", i, p.Start, clock)
		}
		clock += p.Duration
		if len(p.Completed) == 0 {
			t.Errorf("phase %d completes nothing", i)
		}
		if len(p.Rates) != active {
			t.Errorf("phase %d rates = %d entries, want %d", i, len(p.Rates), active)
		}
		active -= len(p.Completed)
	}
	if active != 0 {
		t.Errorf("transfers unaccounted for: %d", active)
	}
	if math.Abs(out.Makespan.Seconds()-clock.Seconds()) > 1e-12 {
		t.Errorf("makespan = %v, want %v", out.Makespan, clock)
	}
}

// TestSteadyRatesMatchesRunFluid: over randomized transfer sets — unsorted
// IDs (t10 sorts before t2), demand caps, shared and private resources —
// SteadyRates must report exactly RunFluid's InitialRate for every
// transfer, and both must fail the same way on a zero-size transfer, a
// duplicate ID and a starved transfer.
func TestSteadyRatesMatchesRunFluid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	res := []fabric.Resource{{ID: "tiny", Capacity: units.Bandwidth(1e-300)}}
	for i := 0; i < 6; i++ {
		res = append(res, fabric.Resource{
			ID:       fabric.ResourceID(fmt.Sprintf("l%d", i)),
			Capacity: units.Bandwidth(1+rng.Float64()*40) * units.Gbps,
		})
	}
	sameErr := func(label string, transfers []Transfer) {
		t.Helper()
		_, runErr := RunFluid(res, transfers, nil, 0)
		steadyErr := SteadyRates(res, transfers, make([]units.Bandwidth, len(transfers)), nil, 0)
		if runErr == nil || steadyErr == nil || runErr.Error() != steadyErr.Error() {
			t.Errorf("%s: RunFluid error %v, SteadyRates error %v", label, runErr, steadyErr)
		}
	}
	for trial := 0; trial < 50; trial++ {
		n := 11 + rng.Intn(20)
		transfers := make([]Transfer, n)
		for i, id := range rng.Perm(n) {
			tr := Transfer{ID: fmt.Sprintf("t%d", id), Bytes: units.Size(1+rng.Intn(64)) * units.MiB}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				tr.Usages = append(tr.Usages, fabric.Usage{
					Resource: res[1+rng.Intn(len(res)-1)].ID, Weight: 0.25 + rng.Float64(),
				})
			}
			if rng.Intn(3) == 0 {
				tr.Demand = units.Bandwidth(0.5+rng.Float64()*10) * units.Gbps
			}
			transfers[i] = tr
		}
		out, err := RunFluid(res, transfers, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		rates := make([]units.Bandwidth, n)
		if err := SteadyRates(res, transfers, rates, nil, 0); err != nil {
			t.Fatal(err)
		}
		for i, tr := range transfers {
			if out.Transfers[i].ID != tr.ID {
				t.Fatalf("trial %d: Transfers[%d].ID = %q, want %q", trial, i, out.Transfers[i].ID, tr.ID)
			}
			want := out.Transfers[i].InitialRate
			if math.Float64bits(float64(rates[i])) != math.Float64bits(float64(want)) {
				t.Fatalf("trial %d: %s steady rate %v != RunFluid initial rate %v", trial, tr.ID, rates[i], want)
			}
		}

		bad := append([]Transfer(nil), transfers...)
		bad[rng.Intn(n)].Bytes = 0
		sameErr("zero size", bad)
		bad = append(append([]Transfer(nil), transfers...), transfers[rng.Intn(n)])
		sameErr("duplicate ID", bad)
		bad = append(append([]Transfer(nil), transfers...), Transfer{
			ID: "starved", Bytes: units.KiB, Usages: []fabric.Usage{{Resource: "tiny", Weight: 1e300}},
		})
		sameErr("starved", bad)
	}
	if err := SteadyRates(res, []Transfer{{ID: "a", Bytes: units.KiB}}, nil, nil, 0); err == nil {
		t.Error("SteadyRates accepted a rates slice shorter than the transfers")
	}
}
