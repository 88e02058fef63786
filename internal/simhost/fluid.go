package simhost

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"numaio/internal/fabric"
	"numaio/internal/telemetry"
	"numaio/internal/units"
)

// Transfer is one bulk data movement to run to completion.
type Transfer struct {
	ID     string
	Bytes  units.Size
	Demand units.Bandwidth // per-transfer rate cap; <= 0 means unbounded
	Usages []fabric.Usage
}

// TransferResult reports one completed transfer.
type TransferResult struct {
	ID       string
	Bytes    units.Size
	Duration units.Duration
	// Bandwidth is the average rate over the transfer's lifetime.
	Bandwidth units.Bandwidth
	// InitialRate is the rate while all transfers were still active, which
	// is what a steady-state benchmark with equal-sized jobs reports.
	InitialRate units.Bandwidth
}

// SessionResult reports a whole fluid run.
type SessionResult struct {
	// Transfers[i] reports the run's transfers[i].
	Transfers []TransferResult
	// Makespan is the completion time of the last transfer.
	Makespan units.Duration
	// AggregateBandwidth is total bytes moved divided by the makespan.
	AggregateBandwidth units.Bandwidth
	// Timeline records every constant-rate phase of the run, including
	// per-resource utilization — the observability layer for contention
	// analysis.
	Timeline Timeline
}

// phaseSpan records one phase's scalars plus how many arena entries it
// owns; the escaping Timeline is materialized from the arenas in one exact
// allocation per kind at the end of a run.
type phaseSpan struct {
	start, dur           float64
	ratesN, utilN, compN int32
}

// fluidSession is the pooled state behind RunFluid and SteadyRates: one
// solver with its registered resource table, plus per-run scratch, so
// steady-state runs stay off the allocator. A session serves one run at a
// time; runs take one from sessionPool and put it back.
type fluidSession struct {
	s *fabric.Solver
	// resSnap records the resource table registered into s, so a session
	// whose next caller passes the same table (ID and capacity, compared
	// cheaply — the IDs are interned) skips re-registering all of it.
	resSnap []fabric.Resource

	// ord lists the run's transfer indices in ascending ID order; once
	// register returns, solver flow k is transfers[ord[k]].
	ord []int32

	// Per-run scratch, indexed like ord.
	remaining []float64 // bits left
	rate      []float64 // rate in the current phase
	done      []bool
	dropIdx   []int32 // per-phase completed flow indices

	// Timeline arenas: phase records accumulate here during a run and are
	// copied out in one exact-size block per kind, so a run's timeline
	// costs a handful of allocations instead of two maps per phase.
	spans     []phaseSpan
	rateArena []TransferRate
	utilArena []ResourceUtil
	compArena []string
}

// sessionPool recycles fluid sessions, keeping their solvers, registered
// tables and scratch buffers across runs.
var sessionPool = sync.Pool{New: func() any { return &fluidSession{} }}

// acquireSession takes a pooled session whose solver holds exactly the
// given resource table, registering the table only when it differs from
// the one the session last held. Return the session to sessionPool.
func acquireSession(resources []fabric.Resource) (*fluidSession, error) {
	fs := sessionPool.Get().(*fluidSession)
	if resourcesMatch(fs.resSnap, resources) {
		return fs, nil
	}
	if fs.s != nil {
		fabric.ReleaseSolver(fs.s)
		fs.s = nil
	}
	s := fabric.AcquireSolver()
	for _, r := range resources {
		if err := s.SetResource(r); err != nil {
			fabric.ReleaseSolver(s)
			fs.resSnap = fs.resSnap[:0]
			sessionPool.Put(fs)
			return nil, err
		}
	}
	fs.s = s
	fs.resSnap = append(fs.resSnap[:0], resources...)
	return fs, nil
}

// resourcesMatch reports whether the session's registered table equals the
// requested one entry for entry. Resource IDs are interned, so the string
// compares hit the pointer-equality fast path.
func resourcesMatch(snap, resources []fabric.Resource) bool {
	if len(snap) != len(resources) || len(snap) == 0 {
		return false
	}
	for i := range resources {
		if snap[i].ID != resources[i].ID || snap[i].Capacity != resources[i].Capacity {
			return false
		}
	}
	return true
}

// register validates the transfers and adds them to the session's solver
// as flows in ascending ID order, recording that order in fs.ord. Every
// solve therefore accumulates in the same order whatever order the caller
// passed.
func (fs *fluidSession) register(transfers []Transfer) error {
	for i := range transfers {
		if transfers[i].Bytes <= 0 {
			return fmt.Errorf("simhost: transfer %q has nonpositive size", transfers[i].ID)
		}
	}
	ord := fs.ord[:0]
	for i := range transfers {
		ord = append(ord, int32(i))
	}
	fs.ord = ord
	slices.SortFunc(ord, func(a, b int32) int { return strings.Compare(transfers[a].ID, transfers[b].ID) })
	for k := 1; k < len(ord); k++ {
		if id := transfers[ord[k]].ID; id == transfers[ord[k-1]].ID {
			return fmt.Errorf("simhost: duplicate transfer %q", id)
		}
	}
	fs.s.Reset()
	for _, i := range ord {
		t := &transfers[i]
		if err := fs.s.AddFlow(fabric.Flow{ID: t.ID, Demand: t.Demand, Usages: t.Usages}); err != nil {
			return err
		}
	}
	return nil
}

// RunFluid advances the given transfers through a max-min fair fabric until
// all complete, re-solving the allocation whenever a transfer finishes
// (fluid-flow approximation of the real time-shared hardware), and records
// the phase-by-phase Timeline. A non-nil tracer gets one fluid-run span
// plus one fluid-phase span per phase (category "fluid") on track tid, so
// solver work nests under the measurement that triggered it; untraced
// callers pass nil, 0. Tracing shapes no results.
//
// The solver is built once — resources registered and flows added in sorted
// ID order — and completed flows are removed between phases; the solver
// re-levels only the components those removals touched. Ordered removal
// keeps the remaining flows in sorted order, so every phase solves the
// exact same problem (same float accumulation order) a per-phase rebuild
// would.
func RunFluid(resources []fabric.Resource, transfers []Transfer, tr *telemetry.Tracer, tid int) (*SessionResult, error) {
	n := len(transfers)
	if n == 0 {
		return &SessionResult{}, nil
	}
	var runSpan *telemetry.Span
	if tr != nil {
		runSpan = tr.StartSpanOn(tid, "fluid-run", "fluid", telemetry.Int("transfers", n))
		defer runSpan.End()
	}
	fs, err := acquireSession(resources)
	if err != nil {
		return nil, err
	}
	defer sessionPool.Put(fs) // keeps the solver and its registered table
	if err := fs.register(transfers); err != nil {
		return nil, err
	}
	s, ord := fs.s, fs.ord

	if cap(fs.remaining) < n {
		fs.remaining = make([]float64, n)
		fs.rate = make([]float64, n)
		fs.done = make([]bool, n)
	}
	remaining, rate, done := fs.remaining[:n], fs.rate[:n], fs.done[:n]
	for i, ti := range ord {
		remaining[i] = transfers[ti].Bytes.Bits()
		done[i] = false
	}
	results := make([]TransferResult, n) // indexed like transfers
	fs.spans = fs.spans[:0]
	fs.rateArena = fs.rateArena[:0]
	fs.utilArena = fs.utilArena[:0]
	fs.compArena = fs.compArena[:0]

	var now float64 // seconds
	var totalBits float64
	activeCount := n
	first := true
	phaseIdx := 0
	for activeCount > 0 {
		var phaseSpanT *telemetry.Span
		if tr != nil {
			phaseSpanT = runSpan.StartSpan("fluid-phase", "fluid",
				telemetry.Int("phase", phaseIdx), telemetry.Int("active", activeCount))
		}
		a, err := s.Solve()
		if err != nil {
			phaseSpanT.End()
			return nil, err
		}

		// Time until the next completion at current rates. Flows were added
		// in sorted ord order and removal splices in place, so the k-th
		// still-active transfer is exactly flow index k.
		dt := math.Inf(1)
		k := 0
		for i := range ord {
			if done[i] {
				continue
			}
			r := float64(a.Rate(k))
			k++
			if r <= 0 {
				phaseSpanT.End()
				return nil, starved(&transfers[ord[i]])
			}
			rate[i] = r
			if t := remaining[i] / r; t < dt {
				dt = t
			}
		}

		// Record the phase into the arenas before any removal below
		// invalidates the allocation view. Only loaded resources appear in
		// the utilization list — an absent entry reads as 0, which is also
		// its value.
		sp := phaseSpan{start: now, dur: dt}
		nres := a.NumResources()
		for ri := 0; ri < nres; ri++ {
			if u := a.Utilization(ri); u > 0 {
				fs.utilArena = append(fs.utilArena, ResourceUtil{Resource: a.ResourceID(ri), Util: u})
				sp.utilN++
			}
		}
		// Completions are collected and removed in one compaction pass:
		// batching the removals turns k tail-shifting splices into a single
		// sweep over the flow table.
		dropIdx := fs.dropIdx[:0]
		k = 0
		for i := range ord {
			if done[i] {
				continue
			}
			t, res := &transfers[ord[i]], &results[ord[i]]
			fs.rateArena = append(fs.rateArena, TransferRate{ID: t.ID, Rate: units.Bandwidth(rate[i])})
			sp.ratesN++
			if first {
				res.ID = t.ID
				res.InitialRate = units.Bandwidth(rate[i])
			}
			remaining[i] -= rate[i] * dt
			if remaining[i] <= 1e-3 { // sub-bit residue
				res.Bytes = t.Bytes
				res.Duration = units.Duration(now + dt)
				res.Bandwidth = units.Rate(t.Bytes, res.Duration)
				totalBits += t.Bytes.Bits()
				fs.compArena = append(fs.compArena, t.ID)
				sp.compN++
				done[i] = true
				activeCount--
				dropIdx = append(dropIdx, int32(k))
			}
			k++
		}
		s.RemoveFlowsAt(dropIdx)
		fs.dropIdx = dropIdx[:0]
		fs.spans = append(fs.spans, sp)
		phaseSpanT.SetAttr(telemetry.Int("completed", int(sp.compN)))
		phaseSpanT.End()
		phaseIdx++
		now += dt
		first = false
	}

	out := &SessionResult{
		Transfers: results,
		Makespan:  units.Duration(now),
		Timeline:  fs.materializeTimeline(),
	}
	if now > 0 {
		out.AggregateBandwidth = units.Bandwidth(totalBits / now)
	}
	return out, nil
}

// SteadyRates writes to rates[i] the rate transfers[i] gets while every
// transfer is active: the steady figure a benchmark of equal concurrent
// streams reports, and all one Algorithm 1 measurement cell needs. It
// validates and registers the transfers exactly as RunFluid does and
// solves once, so each rate equals RunFluid's InitialRate bit for bit and
// the errors are the same; a warm call allocates nothing. rates must hold
// at least len(transfers) entries. A non-nil tracer gets one fluid-steady
// span (category "fluid") on track tid.
func SteadyRates(resources []fabric.Resource, transfers []Transfer, rates []units.Bandwidth, tr *telemetry.Tracer, tid int) error {
	n := len(transfers)
	if n == 0 {
		return nil
	}
	if len(rates) < n {
		return fmt.Errorf("simhost: %d rate slots for %d transfers", len(rates), n)
	}
	if tr != nil {
		sp := tr.StartSpanOn(tid, "fluid-steady", "fluid", telemetry.Int("transfers", n))
		defer sp.End()
	}
	fs, err := acquireSession(resources)
	if err != nil {
		return err
	}
	defer sessionPool.Put(fs)
	if err := fs.register(transfers); err != nil {
		return err
	}
	a, err := fs.s.Solve()
	if err != nil {
		return err
	}
	for k, ti := range fs.ord {
		r := a.Rate(k)
		if r <= 0 {
			return starved(&transfers[ti])
		}
		rates[ti] = r
	}
	return nil
}

// starved reports a transfer the allocation gave no bandwidth.
func starved(t *Transfer) error {
	return fmt.Errorf("simhost: transfer %q starved (zero rate)", t.ID)
}

// materializeTimeline copies the run's arena-accumulated phase records into
// an exactly-sized, caller-owned Timeline: one allocation per entry kind
// regardless of phase count.
func (fs *fluidSession) materializeTimeline() Timeline {
	rates := make(RateList, len(fs.rateArena))
	copy(rates, fs.rateArena)
	utils := make(UtilList, len(fs.utilArena))
	copy(utils, fs.utilArena)
	var comp []string
	if len(fs.compArena) > 0 {
		comp = make([]string, len(fs.compArena))
		copy(comp, fs.compArena)
	}
	phases := make([]Phase, len(fs.spans))
	var ro, uo, co int32
	for i, sp := range fs.spans {
		p := &phases[i]
		p.Start = units.Duration(sp.start)
		p.Duration = units.Duration(sp.dur)
		p.Rates = rates[ro : ro+sp.ratesN : ro+sp.ratesN]
		p.Utilization = utils[uo : uo+sp.utilN : uo+sp.utilN]
		if sp.compN > 0 {
			p.Completed = comp[co : co+sp.compN : co+sp.compN]
		}
		ro += sp.ratesN
		uo += sp.utilN
		co += sp.compN
	}
	return Timeline{Phases: phases}
}
