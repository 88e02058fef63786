package scenario

import (
	"strings"
	"testing"
)

// validSuite is a minimal well-formed suite other tests mutate from.
const validSuite = `{
  "suite": "t",
  "defaults": {"repeats": 1, "sigma": -1},
  "cases": [
    {
      "name": "a",
      "machine": "intel-4s4n",
      "target": 3,
      "mode": "write",
      "assert": [{"kind": "class-of", "node": 3, "rank": 1}]
    }
  ]
}`

func TestParseSuiteValid(t *testing.T) {
	s, err := ParseSuite([]byte(validSuite))
	if err != nil {
		t.Fatalf("ParseSuite: %v", err)
	}
	if s.Name != "t" || len(s.Cases) != 1 {
		t.Fatalf("suite = %q with %d cases, want t with 1", s.Name, len(s.Cases))
	}
	c := &s.Cases[0]
	if c.MachineModel() == nil || c.MachineModel().Name != "intel-4s-4n" {
		t.Errorf("machine not resolved: %+v", c.MachineModel())
	}
	if got, pinned := c.repeats, c.repeatsPinned; got != 1 || pinned {
		t.Errorf("repeats = %d pinned %v, want 1 from defaults (unpinned)", got, pinned)
	}
	if c.Plan() != nil {
		t.Errorf("clean case resolved a fault plan")
	}
}

func TestParseSuitePinnedRepeats(t *testing.T) {
	j := strings.Replace(validSuite, `"target": 3,`, `"target": 3, "config": {"repeats": 4},`, 1)
	s, err := ParseSuite([]byte(j))
	if err != nil {
		t.Fatalf("ParseSuite: %v", err)
	}
	if got, pinned := s.Cases[0].repeats, s.Cases[0].repeatsPinned; got != 4 || !pinned {
		t.Errorf("repeats = %d pinned %v, want 4 pinned", got, pinned)
	}
}

// TestParseSuiteErrors drives every structural-validation error path: a
// suite that loads cleanly cannot fail for these reasons mid-grid.
func TestParseSuiteErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"not json", `{`, "unexpected EOF"},
		{"unknown field", `{"suite": "t", "cazes": []}`, "unknown field"},
		{"no name", `{"cases": [{"name": "a"}]}`, "suite name is required"},
		{"no cases", `{"suite": "t", "cases": []}`, "no cases"},
		{"unnamed case",
			strings.Replace(validSuite, `"name": "a",`, "", 1),
			"has no name"},
		{"duplicate case names",
			strings.Replace(validSuite, `}
  ]
}`, `}, {
      "name": "a",
      "machine": "intel-4s4n",
      "target": 3,
      "mode": "write",
      "assert": [{"kind": "class-of", "node": 3, "rank": 1}]
    }]
}`, 1),
			`duplicate case name "a"`},
		{"unknown machine",
			strings.Replace(validSuite, `"machine": "intel-4s4n"`, `"machine": "pdp-11"`, 1),
			"unknown profile"},
		{"target off machine",
			strings.Replace(validSuite, `"target": 3`, `"target": 11`, 1),
			"target node 11 not on machine"},
		{"bad mode",
			strings.Replace(validSuite, `"mode": "write"`, `"mode": "sideways"`, 1),
			"unknown mode"},
		{"bad fault-plan name",
			strings.Replace(validSuite, `"target": 3,`, `"target": 3, "faults": "definitely-not-a-plan",`, 1),
			"unknown plan"},
		{"bad fault-plan file",
			strings.Replace(validSuite, `"target": 3,`, `"target": 3, "faults": "testdata/no-such-plan.json",`, 1),
			"no such file"},
		{"bad inline plan",
			strings.Replace(validSuite, `"target": 3,`, `"target": 3, "faults": {"links": [{"a": "node0", "b": "node1", "factor": 7}]},`, 1),
			"factor 7 out of"},
		{"inline plan unknown field",
			strings.Replace(validSuite, `"target": 3,`, `"target": 3, "faults": {"linkz": []},`, 1),
			"unknown field"},
		{"chaos_seed without faults",
			strings.Replace(validSuite, `"target": 3,`, `"target": 3, "chaos_seed": 7,`, 1),
			"chaos_seed without faults"},
		{"negative repeats",
			strings.Replace(validSuite, `{"repeats": 1, "sigma": -1}`, `{"repeats": -2}`, 1),
			"negative repeats"},
		{"gap out of range",
			strings.Replace(validSuite, `{"repeats": 1, "sigma": -1}`, `{"gap": 1.5}`, 1),
			"gap threshold"},
		{"no assertions",
			strings.Replace(validSuite, `"assert": [{"kind": "class-of", "node": 3, "rank": 1}]`, `"assert": []`, 1),
			"no assertions"},
		{"assertion missing kind",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"node": 3}`, 1),
			"missing kind"},
		{"unknown assertion kind",
			strings.Replace(validSuite, `"class-of"`, `"vibes"`, 1),
			`unknown kind "vibes"`},
		{"malformed classes assertion",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "classes"}`, 1),
			"needs non-empty sets"},
		{"classes with empty set",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "classes", "sets": [[3], []]}`, 1),
			"class 2 is empty"},
		{"classes with off-machine node",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "classes", "sets": [[3], [9]]}`, 1),
			"node 9 not on machine"},
		{"num-classes without min",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "num-classes"}`, 1),
			"needs min >= 1"},
		{"num-classes max below min",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "num-classes", "min": 3, "max": 2}`, 1),
			"max 2 below min 3"},
		{"class-of without node",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "class-of", "rank": 1}`, 1),
			"needs node"},
		{"bandwidth without bounds",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "bandwidth", "node": 3}`, 1),
			"needs positive gbps bounds"},
		{"bandwidth inverted bounds",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "bandwidth", "node": 3, "min_gbps": 9, "max_gbps": 4}`, 1),
			"max_gbps 4 below min_gbps 9"},
		{"predict bad mix sum",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "predict", "mix": {"0": 0.5, "3": 0.4}, "min_gbps": 1, "max_gbps": 2}`, 1),
			"sum to 0.9"},
		{"predict bad mix key",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "predict", "mix": {"zero": 1}, "min_gbps": 1, "max_gbps": 2}`, 1),
			`mix key "zero"`},
		{"resilience on clean case",
			strings.Replace(validSuite, `{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "resilience", "min_retries": 1}`, 1),
			"requires a fault plan"},
		{"resilience without bounds",
			strings.Replace(
				strings.Replace(validSuite, `"target": 3,`, `"target": 3, "faults": "flaky-measurements",`, 1),
				`{"kind": "class-of", "node": 3, "rank": 1}`, `{"kind": "resilience"}`, 1),
			"needs at least one bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSuite([]byte(tc.json))
			if err == nil {
				t.Fatalf("ParseSuite accepted invalid suite")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
