package scenario

import (
	"reflect"
	"strings"
	"testing"

	"numaio/internal/telemetry"
)

// gridSuite exercises pass, assertion-failure and engine-error outcomes in
// one grid: case "pass" holds by construction (the target is always class
// 1), case "fail" pins an impossible class count, and case "err" names a
// fault-plan link that does not exist on the machine, which the engine
// rejects when the characterizer is built.
const gridSuite = `{
  "suite": "grid",
  "defaults": {"repeats": 2, "sigma": -1},
  "cases": [
    {
      "name": "pass",
      "machine": "intel-4s4n",
      "target": 3,
      "mode": "write",
      "assert": [
        {"kind": "class-of", "node": 3, "rank": 1},
        {"kind": "class-order"},
        {"kind": "num-classes", "min": 1}
      ]
    },
    {
      "name": "fail",
      "machine": "intel-4s4n",
      "target": 3,
      "mode": "read",
      "assert": [
        {"kind": "num-classes", "min": 9, "max": 9},
        {"kind": "bandwidth", "node": 3, "min_gbps": 0.001, "max_gbps": 0.002}
      ]
    },
    {
      "name": "err",
      "machine": "intel-4s4n",
      "target": 0,
      "mode": "write",
      "faults": {"links": [{"a": "node6", "b": "node7", "factor": 0.5}]},
      "assert": [{"kind": "num-classes", "min": 1}]
    }
  ]
}`

func mustParse(t *testing.T, j string) *Suite {
	t.Helper()
	s, err := ParseSuite([]byte(j))
	if err != nil {
		t.Fatalf("ParseSuite: %v", err)
	}
	return s
}

func TestRunAllOutcomes(t *testing.T) {
	r := Runner{}
	results := r.RunAll([]*Suite{mustParse(t, gridSuite)})
	if len(results) != 1 || len(results[0].Cases) != 3 {
		t.Fatalf("results shape = %d suites, want 1 with 3 cases", len(results))
	}
	pass, fail, errd := &results[0].Cases[0], &results[0].Cases[1], &results[0].Cases[2]
	if !pass.Passed() || len(pass.Failures) != 0 || pass.Err != nil {
		t.Errorf("pass case: failures %v err %v", pass.Failures, pass.Err)
	}
	if fail.Passed() || len(fail.Failures) != 2 || fail.Err != nil {
		t.Errorf("fail case: failures %v err %v, want 2 assertion failures", fail.Failures, fail.Err)
	}
	if len(fail.Failures) > 0 && !strings.Contains(fail.Failures[0], "num-classes") {
		t.Errorf("first failure %q does not name the assertion", fail.Failures[0])
	}
	if errd.Err == nil || len(errd.Failures) != 0 {
		t.Errorf("err case: failures %v err %v, want an engine error", errd.Failures, errd.Err)
	}
	total, failed, errored := results[0].Totals()
	if total != 3 || failed != 1 || errored != 1 {
		t.Errorf("totals = (%d, %d, %d), want (3, 1, 1)", total, failed, errored)
	}
	if FailedCases(results) != 2 {
		t.Errorf("FailedCases = %d, want 2", FailedCases(results))
	}
}

// TestRunAllParallelDeterminism runs the seed suites' grid shape at widths
// 1 and 4: every outcome — including the exact assertion-failure strings,
// which embed measured bandwidths — must be identical, because jitter and
// fault draws are keyed by job name, not by scheduling.
func TestRunAllParallelDeterminism(t *testing.T) {
	outcomes := func(p int) [][]string {
		r := Runner{Parallelism: p}
		results := r.RunAll([]*Suite{mustParse(t, gridSuite)})
		var out [][]string
		for i := range results[0].Cases {
			cr := &results[0].Cases[i]
			row := append([]string(nil), cr.Failures...)
			if cr.Err != nil {
				row = append(row, "err: "+cr.Err.Error())
			}
			out = append(out, row)
		}
		return out
	}
	serial, parallel := outcomes(1), outcomes(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel grid diverged from serial:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

// TestRunnerRepeatsOverride: the grid-wide override reaches cases that
// inherit repeats from the defaults but leaves pinned cases alone.
func TestRunnerRepeatsOverride(t *testing.T) {
	j := strings.Replace(gridSuite, `"name": "pass",
      "machine": "intel-4s4n",
      "target": 3,`,
		`"name": "pass",
      "machine": "intel-4s4n",
      "config": {"repeats": 3},
      "target": 3,`, 1)
	s := mustParse(t, j)
	if got, pinned := s.Cases[0].repeats, s.Cases[0].repeatsPinned; got != 3 || !pinned {
		t.Fatalf("case repeats = %d pinned %v, want 3 pinned", got, pinned)
	}
	if got, pinned := s.Cases[1].repeats, s.Cases[1].repeatsPinned; got != 2 || pinned {
		t.Fatalf("case repeats = %d pinned %v, want 2 unpinned", got, pinned)
	}
	// Both override settings must still produce the same verdicts for this
	// suite (its assertions are repeat-robust by design).
	for _, repeats := range []int{0, 4} {
		r := Runner{Repeats: repeats}
		results := r.RunAll([]*Suite{s})
		if !results[0].Cases[0].Passed() {
			t.Errorf("repeats override %d broke the pass case: %v err %v",
				repeats, results[0].Cases[0].Failures, results[0].Cases[0].Err)
		}
	}
}

// TestRunCaseTracing: cases land as spans (with verdict attrs) on the
// trace, and the engine's own sweep spans record beneath them.
func TestRunCaseTracing(t *testing.T) {
	tr := telemetry.NewTracer()
	r := Runner{Tracer: tr}
	r.RunAll([]*Suite{mustParse(t, gridSuite)})
	var caseSpans, sweeps int
	for _, e := range tr.Events() {
		switch e.Cat {
		case "scenario":
			caseSpans++
		case "characterize":
			sweeps++
		}
	}
	// One complete-phase event per span: 3 cases, 2 engine sweeps (the err
	// case never characterizes).
	if caseSpans != 3 {
		t.Errorf("scenario span events = %d, want 3", caseSpans)
	}
	if sweeps == 0 {
		t.Errorf("no characterize spans recorded beneath the cases")
	}
}

// TestSeedSuites runs the shipped suites end to end at both the quick and
// the full grid: every case must pass, at any parallelism.
func TestSeedSuites(t *testing.T) {
	for _, path := range []string{"../../suites/shapevalidation.json", "../../suites/chaosmatrix.json"} {
		s, err := LoadSuite(path)
		if err != nil {
			t.Fatalf("LoadSuite(%s): %v", path, err)
		}
		for _, repeats := range []int{0, 2} {
			r := Runner{Parallelism: 4, Repeats: repeats}
			results := r.RunAll([]*Suite{s})
			for i := range results[0].Cases {
				cr := &results[0].Cases[i]
				if !cr.Passed() {
					t.Errorf("%s (repeats=%d) %s: failures %v err %v",
						s.Name, repeats, cr.Case.Name, cr.Failures, cr.Err)
				}
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	r := Runner{}
	results := r.RunAll([]*Suite{mustParse(t, gridSuite)})
	tbl := Summarize(results).Render()
	for _, want := range []string{"3 cases: 1 passed, 1 failed, 1 errored", "FAIL", "ERROR", "pass"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("summary missing %q:\n%s", want, tbl)
		}
	}
}
