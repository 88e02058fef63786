package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// SaveJSON writes the model as indented JSON — the on-disk format the
// iomodel tool produces for schedulers to load.
func (m *Model) SaveJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	return nil
}

// validate checks structural invariants of a deserialized model.
func (m *Model) validate() error {
	if len(m.Samples) == 0 {
		return fmt.Errorf("core: model has no samples")
	}
	if len(m.Classes) == 0 {
		return fmt.Errorf("core: model has no classes")
	}
	seen := make(map[int]bool)
	classified := make(map[int]bool)
	for _, s := range m.Samples {
		if seen[int(s.Node)] {
			return fmt.Errorf("core: duplicate sample for node %d", int(s.Node))
		}
		seen[int(s.Node)] = true
		if s.Bandwidth <= 0 {
			return fmt.Errorf("core: nonpositive bandwidth for node %d", int(s.Node))
		}
	}
	for i, c := range m.Classes {
		if c.Rank != i+1 {
			return fmt.Errorf("core: class %d has rank %d", i, c.Rank)
		}
		if len(c.Nodes) == 0 {
			return fmt.Errorf("core: class %d is empty", c.Rank)
		}
		if c.Min > c.Max || c.Avg < c.Min || c.Avg > c.Max {
			return fmt.Errorf("core: class %d has inconsistent stats", c.Rank)
		}
		for _, n := range c.Nodes {
			if !seen[int(n)] {
				return fmt.Errorf("core: class %d contains unsampled node %d", c.Rank, int(n))
			}
			if classified[int(n)] {
				return fmt.Errorf("core: node %d in multiple classes", int(n))
			}
			classified[int(n)] = true
		}
	}
	for n := range seen {
		if !classified[n] {
			return fmt.Errorf("core: node %d unclassified", n)
		}
	}
	return nil
}

// LoadModelsJSON reads a stream of concatenated models (the format
// `iomodel -mode both -o file` writes) and validates each.
func LoadModelsJSON(r io.Reader) ([]*Model, error) {
	dec := json.NewDecoder(r)
	var out []*Model
	for dec.More() {
		var m Model
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("core: decoding model %d: %w", len(out), err)
		}
		if err := m.validate(); err != nil {
			return nil, fmt.Errorf("core: model %d: %w", len(out), err)
		}
		out = append(out, &m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no models in stream")
	}
	return out, nil
}
