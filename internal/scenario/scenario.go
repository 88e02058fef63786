// Package scenario runs declarative test suites over the characterization
// engine: a suite file names a grid of cases — machine model × I/O mode ×
// optional fault plan — and per-case assertions on the resulting model
// (class structure, class ordering, bandwidth bounds, Eq. 1 predictions,
// resilience-report expectations). The runner executes the grid in
// parallel through core.Characterizer and reports pass/fail both as a
// summary table and as JUnit XML for CI.
//
// This is the paper's Tables IV/V turned into a regression harness: the
// hand-run matrix of topology × direction × placement becomes a reusable,
// CI-consumable suite, the same way DAMOV systematizes data-movement
// bottleneck evaluation. New topologies and device classes land here
// cheaply: add a case, pin its class structure, and CI holds the shape.
// See docs/SCENARIOS.md for the file format and suites/ for the seeds.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"numaio/internal/cli"
	"numaio/internal/core"
	"numaio/internal/faults"
	"numaio/internal/topology"
)

// Suite is one declarative scenario file: a named list of cases sharing
// optional config defaults.
type Suite struct {
	// Name identifies the suite in reports and as the JUnit testsuite name.
	Name string `json:"suite"`
	// Description says what invariants the suite holds.
	Description string `json:"description,omitempty"`
	// Defaults seeds every case's config; a case's own config overrides
	// field by field.
	Defaults *CaseConfig `json:"defaults,omitempty"`
	Cases    []Case      `json:"cases"`

	// Path is the file the suite was loaded from (informational).
	Path string `json:"-"`
}

// Case is one cell of the scenario grid: characterize (machine, target,
// mode), optionally under a fault plan, then check every assertion.
type Case struct {
	// Name must be unique within the suite; it becomes the JUnit testcase
	// name.
	Name string `json:"name"`
	// Machine is a canned profile name or a machine JSON path (the
	// -machine contract, cli.Machine).
	Machine string `json:"machine"`
	// Target is the node the modelled I/O device is attached to.
	Target int `json:"target"`
	// Mode is "write" or "read".
	Mode string `json:"mode"`
	// Config overrides the suite defaults for this case. A case that sets
	// repeats explicitly pins it: the runner's grid-wide repeats override
	// (the quick-grid knob) leaves pinned cases alone, because their
	// assertions depend on the exact repeat count.
	Config *CaseConfig `json:"config,omitempty"`
	// Faults is either a string — a built-in plan name or a JSON plan-file
	// path (faults.Load) — or an inline plan object (faults.Plan).
	Faults json.RawMessage `json:"faults,omitempty"`
	// ChaosSeed overrides the fault plan's seed; 0 keeps the plan's own.
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	// Assert lists the checks run against the characterized model.
	Assert []Assertion `json:"assert"`

	// Resolved at load time so a bad reference fails fast, not mid-grid.
	machine       *topology.Machine
	mode          core.Mode
	plan          *faults.Plan
	repeats       int
	repeatsPinned bool
	threads       int
	gap           float64
	sigma         float64
}

// CaseConfig is the subset of core.Config a suite can set. Zero values
// inherit (suite defaults first, then the engine defaults); like the
// engine, a negative sigma disables measurement noise.
type CaseConfig struct {
	// Repeats per node; 0 inherits (engine default 5).
	Repeats int `json:"repeats,omitempty"`
	// Threads per test; 0 means one per target core.
	Threads int `json:"threads,omitempty"`
	// Gap is the classification gap threshold in (0,1); 0 inherits 0.2.
	Gap float64 `json:"gap,omitempty"`
	// Sigma is the measurement noise; 0 inherits 0.02, negative disables.
	Sigma float64 `json:"sigma,omitempty"`
}

// MachineModel returns the case's resolved machine (valid after LoadSuite).
func (c *Case) MachineModel() *topology.Machine { return c.machine }

// Plan returns the case's resolved fault plan, nil for clean cases.
func (c *Case) Plan() *faults.Plan { return c.plan }

// LoadSuite reads and fully validates a suite file: every machine resolves,
// every mode parses, every fault reference loads, every assertion is well
// formed and every referenced node exists on the case's machine. A suite
// that loads cleanly cannot fail for structural reasons mid-grid.
func LoadSuite(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := ParseSuite(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	s.Path = filepath.ToSlash(path)
	return s, nil
}

// ParseSuite decodes and validates a suite from raw JSON (strict: unknown
// fields are an error, so typos in assertion fields fail loudly).
func ParseSuite(data []byte) (*Suite, error) {
	var s Suite
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Suite) validate() error {
	if s.Name == "" {
		return fmt.Errorf("suite name is required")
	}
	if len(s.Cases) == 0 {
		return fmt.Errorf("suite %q has no cases", s.Name)
	}
	seen := make(map[string]bool, len(s.Cases))
	for i := range s.Cases {
		c := &s.Cases[i]
		if c.Name == "" {
			return fmt.Errorf("case %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.resolve(s.Defaults); err != nil {
			return fmt.Errorf("case %q: %w", c.Name, err)
		}
	}
	return nil
}

// resolve materialises the case: machine, mode, fault plan, merged config
// and assertion validity.
func (c *Case) resolve(defaults *CaseConfig) error {
	m, err := cli.Machine(c.Machine)
	if err != nil {
		return err
	}
	c.machine = m
	if _, ok := m.Node(topology.NodeID(c.Target)); !ok {
		return fmt.Errorf("target node %d not on machine %s", c.Target, m.Name)
	}
	c.mode, err = core.ParseMode(c.Mode)
	if err != nil {
		return err
	}
	if len(c.Faults) > 0 {
		plan, err := faults.Resolve(c.Faults)
		if err != nil {
			return err
		}
		c.plan = &plan
	}
	if c.ChaosSeed != 0 && c.plan == nil {
		return fmt.Errorf("chaos_seed without faults")
	}

	merged := CaseConfig{}
	if defaults != nil {
		merged = *defaults
	}
	if c.Config != nil {
		if c.Config.Repeats != 0 {
			merged.Repeats = c.Config.Repeats
			c.repeatsPinned = true
		}
		if c.Config.Threads != 0 {
			merged.Threads = c.Config.Threads
		}
		if c.Config.Gap != 0 {
			merged.Gap = c.Config.Gap
		}
		if c.Config.Sigma != 0 {
			merged.Sigma = c.Config.Sigma
		}
	}
	if merged.Repeats < 0 {
		return fmt.Errorf("negative repeats %d", merged.Repeats)
	}
	if merged.Threads < 0 {
		return fmt.Errorf("negative threads %d", merged.Threads)
	}
	if merged.Gap < 0 || merged.Gap >= 1 {
		return fmt.Errorf("gap threshold %v out of [0,1)", merged.Gap)
	}
	c.repeats, c.threads, c.gap, c.sigma = merged.Repeats, merged.Threads, merged.Gap, merged.Sigma

	if len(c.Assert) == 0 {
		return fmt.Errorf("no assertions")
	}
	for i := range c.Assert {
		if err := c.Assert[i].validate(m, c.plan != nil); err != nil {
			return fmt.Errorf("assertion %d (%s): %w", i, c.Assert[i].Kind, err)
		}
	}
	return nil
}

// nodeOn checks a suite-referenced node exists on the case's machine.
func nodeOn(m *topology.Machine, n int) error {
	if _, ok := m.Node(topology.NodeID(n)); !ok {
		return fmt.Errorf("node %d not on machine %s", n, m.Name)
	}
	return nil
}

// parseMix converts a JSON mix (string node keys, like the numaiod request
// bodies) into the core.Model.Predict form, checking every node exists and
// the fractions sum to 1.
func parseMix(m *topology.Machine, in map[string]float64) (map[topology.NodeID]float64, error) {
	mix := make(map[topology.NodeID]float64, len(in))
	var sum float64
	for k, f := range in {
		var n int
		if _, err := fmt.Sscanf(k, "%d", &n); err != nil {
			return nil, fmt.Errorf("mix key %q is not a node ID", k)
		}
		if err := nodeOn(m, n); err != nil {
			return nil, err
		}
		if f < 0 {
			return nil, fmt.Errorf("mix fraction for node %d is negative", n)
		}
		mix[topology.NodeID(n)] = f
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("mix fractions sum to %v, want 1", sum)
	}
	return mix, nil
}
