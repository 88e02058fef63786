package scenario

import (
	"fmt"
	"time"

	"numaio/internal/core"
	"numaio/internal/fanout"
	"numaio/internal/numa"
	"numaio/internal/report"
	"numaio/internal/resilience"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
)

// Runner executes scenario suites through the characterization engine.
type Runner struct {
	// Parallelism bounds the number of cases measured concurrently; 0 or 1
	// runs the grid serially. Cases are deterministic (jitter and fault
	// draws are keyed by job name), so results are identical at any width;
	// results are assembled in suite order regardless of scheduling.
	Parallelism int
	// Repeats, when non-zero, overrides the repeat count of every case
	// that did not pin one explicitly — the quick-grid knob: PR CI passes
	// a small value, the nightly grid runs the suites' full counts.
	Repeats int
	// ChaosSeed, when non-zero, overrides every fault plan's seed.
	ChaosSeed uint64
	// Tracer, when non-nil, records one span per case (on the measuring
	// worker's track) around the engine's own characterization spans.
	Tracer *telemetry.Tracer
	// Now is the clock behind case durations and suite timestamps; nil
	// means time.Now. Tests inject a stepping fake so the JUnit output is
	// byte-deterministic.
	Now func() time.Time
}

// CaseResult is the outcome of one grid cell.
type CaseResult struct {
	Suite string
	Case  *Case
	// Duration is the wall time of the cell (characterization + checks).
	Duration time.Duration
	// Failures lists the assertion messages that failed; empty means the
	// case passed (unless Err is set).
	Failures []string
	// Err is a structural failure: the engine could not produce a model at
	// all. Distinct from assertion failures, it maps to a JUnit <error>.
	Err error
}

// Passed reports whether the case produced a model and every assertion held.
func (c *CaseResult) Passed() bool { return c.Err == nil && len(c.Failures) == 0 }

// SuiteResult is the outcome of one suite.
type SuiteResult struct {
	Suite *Suite
	// Start is when the suite's first case began (the JUnit timestamp).
	Start time.Time
	// Duration sums the case durations — grid time, not wall time, so the
	// number is independent of Parallelism.
	Duration time.Duration
	Cases    []CaseResult
}

// Totals counts the suite's cases by outcome.
func (s *SuiteResult) Totals() (total, failed, errored int) {
	for i := range s.Cases {
		total++
		switch {
		case s.Cases[i].Err != nil:
			errored++
		case len(s.Cases[i].Failures) > 0:
			failed++
		}
	}
	return
}

func (r *Runner) now() time.Time {
	if r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

// RunAll executes every case of every suite over at most Parallelism
// workers (internal/fanout) and returns per-suite results in suite order.
func (r *Runner) RunAll(suites []*Suite) []*SuiteResult {
	results := make([]*SuiteResult, len(suites))
	type cell struct{ si, ci int }
	var cells []cell
	for si, s := range suites {
		results[si] = &SuiteResult{Suite: s, Start: r.now().UTC(), Cases: make([]CaseResult, len(s.Cases))}
		for ci := range s.Cases {
			cells = append(cells, cell{si, ci})
		}
	}
	// A case records its failures in its result, so no range ever errors.
	_ = fanout.Run(len(cells), r.Parallelism, 0, func(track, lo, hi int) error {
		for _, c := range cells[lo:hi] {
			results[c.si].Cases[c.ci] = r.runCase(suites[c.si], &suites[c.si].Cases[c.ci], track)
		}
		return nil
	})
	for _, sr := range results {
		for i := range sr.Cases {
			sr.Duration += sr.Cases[i].Duration
		}
	}
	return results
}

// runCase characterizes one grid cell and evaluates its assertions. The
// case span lands on the worker's trace track, so parallel grids nest
// cleanly in the trace.
func (r *Runner) runCase(s *Suite, c *Case, tid int) CaseResult {
	var span *telemetry.Span
	if r.Tracer != nil {
		span = r.Tracer.StartSpanOn(tid, "case "+c.Name, "scenario",
			telemetry.String("suite", s.Name), telemetry.String("machine", c.machine.Name),
			telemetry.String("mode", c.Mode))
	}
	start := r.now()
	out := CaseResult{Suite: s.Name, Case: c}
	out.Failures, out.Err = r.measure(c, tid)
	out.Duration = r.now().Sub(start)
	if span != nil {
		verdict := "pass"
		if !out.Passed() {
			verdict = "fail"
		}
		span.SetAttr(telemetry.String("verdict", verdict))
		span.End()
	}
	return out
}

func (r *Runner) measure(c *Case, tid int) ([]string, error) {
	sys, err := numa.NewSystem(c.machine)
	if err != nil {
		return nil, err
	}
	repeats := c.repeats
	if r.Repeats != 0 && !c.repeatsPinned {
		repeats = r.Repeats
	}
	cfg := core.Config{
		Threads: c.threads, Repeats: repeats, GapThreshold: c.gap,
		Sigma: c.sigma, Tracer: r.Tracer,
	}
	if c.plan != nil {
		plan := *c.plan
		if r.ChaosSeed != 0 {
			plan.Seed = r.ChaosSeed
		}
		cfg.Faults = &plan
		// Like the -chaos CLIs: double the default retry budget so every
		// reasonable plan converges, and let induced hangs cost no wall
		// time.
		cfg.MaxRetries = 10
		cfg.Clock = resilience.NewAutoClock(time.Unix(0, 0))
	}
	char, err := core.NewCharacterizer(sys, cfg)
	if err != nil {
		return nil, err
	}
	model, err := char.CharacterizeOn(topology.NodeID(c.Target), c.mode, tid)
	if err != nil {
		return nil, err
	}
	var failures []string
	for i := range c.Assert {
		if msg := c.Assert[i].check(c.machine, model); msg != "" {
			failures = append(failures, msg)
		}
	}
	return failures, nil
}

// Summarize renders the grid outcome as the human summary table: one row
// per case, pass/fail/error verdicts, durations and first failure detail.
func Summarize(results []*SuiteResult) *report.Table {
	var total, failed, errored int
	for _, sr := range results {
		t, f, e := sr.Totals()
		total, failed, errored = total+t, failed+f, errored+e
	}
	tbl := report.NewTable(
		fmt.Sprintf("Scenario matrix — %d cases: %d passed, %d failed, %d errored",
			total, total-failed-errored, failed, errored),
		"suite", "case", "machine", "mode", "result", "time", "detail")
	for _, sr := range results {
		for i := range sr.Cases {
			cr := &sr.Cases[i]
			verdict, detail := "pass", ""
			switch {
			case cr.Err != nil:
				verdict, detail = "ERROR", cr.Err.Error()
			case len(cr.Failures) > 0:
				verdict, detail = "FAIL", cr.Failures[0]
				if len(cr.Failures) > 1 {
					detail += fmt.Sprintf(" (+%d more)", len(cr.Failures)-1)
				}
			}
			tbl.AddRow(cr.Suite, cr.Case.Name, cr.Case.machine.Name, cr.Case.Mode,
				verdict, cr.Duration.Round(time.Millisecond).String(), detail)
		}
	}
	return tbl
}

// FailedCases counts cases that did not pass across all suites.
func FailedCases(results []*SuiteResult) int {
	n := 0
	for _, sr := range results {
		_, f, e := sr.Totals()
		n += f + e
	}
	return n
}
