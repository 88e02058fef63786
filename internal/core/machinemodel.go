package core

import (
	"encoding/json"
	"fmt"
	"io"

	"numaio/internal/fanout"
	"numaio/internal/topology"
)

// MachineModel is the whole-host characterization the paper's Sec. V-B
// generalization calls for: Algorithm 1 run for every node in both
// directions, so a scheduler can reason about devices attached anywhere.
type MachineModel struct {
	Machine string `json:"machine"`
	// Fingerprint is the topology fingerprint of the characterized machine
	// (topology.Fingerprint); model caches key on it to recognise a host
	// they have already characterized.
	Fingerprint string   `json:"fingerprint,omitempty"`
	Models      []*Model `json:"models"`
}

// CharacterizeAll runs Algorithm 1 for every node of the machine in both
// modes. With Config.Parallelism > 1 the (target, mode) sweeps fan out over
// that many workers (internal/fanout) — each sweep then measures its cells
// serially on its worker's track, so total concurrency stays bounded by
// Parallelism and sweep spans enclose their cells — and the models are
// assembled in the same (target, mode) order as the serial run.
func (c *Characterizer) CharacterizeAll() (*MachineModel, error) {
	m := c.sys.Machine()
	// The fingerprint is a pure function of the (immutable) machine; compute
	// it once per Characterizer instead of re-encoding the topology to JSON
	// on every call.
	c.fpOnce.Do(func() { c.fp, c.fpErr = topology.Fingerprint(m) })
	if c.fpErr != nil {
		return nil, c.fpErr
	}
	modes := []Mode{ModeWrite, ModeRead}
	targets := m.NodeIDs()
	models := make([]*Model, len(targets)*len(modes))
	err := fanout.Run(len(models), c.cfg.Parallelism, 0, func(track, lo, hi int) error {
		for idx := lo; idx < hi; idx++ {
			target, mode := targets[idx/len(modes)], modes[idx%len(modes)]
			model, err := c.characterize(target, mode, 1, track)
			if err != nil {
				return fmt.Errorf("core: characterizing node %d (%v): %w", int(target), mode, err)
			}
			models[idx] = model
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &MachineModel{Machine: m.Name, Fingerprint: c.fp, Models: models}, nil
}

// ModelFor returns the model of one target and direction.
func (mm *MachineModel) ModelFor(target topology.NodeID, mode Mode) (*Model, error) {
	for _, m := range mm.Models {
		if m.Target == target && m.Mode == mode {
			return m, nil
		}
	}
	return nil, fmt.Errorf("core: no %v model for node %d", mode, int(target))
}

// CostReduction is the whole-host benchmark saving: the fraction of
// (target, direction, node) cells covered by class representatives.
func (mm *MachineModel) CostReduction() float64 {
	var cells, reps int
	for _, m := range mm.Models {
		cells += len(m.Samples)
		reps += len(m.Classes)
	}
	if cells == 0 {
		return 0
	}
	return 1 - float64(reps)/float64(cells)
}

// Validate checks that the machine model holds at least one model, none
// of them null, and that each passes the structural checks LoadModelsJSON
// applies. Replicas call it on every model they install.
func (mm *MachineModel) Validate() error {
	if len(mm.Models) == 0 {
		return fmt.Errorf("core: machine model has no models")
	}
	for i, m := range mm.Models {
		if m == nil {
			return fmt.Errorf("core: model %d is null", i)
		}
		if err := m.validate(); err != nil {
			return fmt.Errorf("core: node %d (%v): %w", int(m.Target), m.Mode, err)
		}
	}
	return nil
}

// SaveJSON writes the machine model as indented JSON.
func (mm *MachineModel) SaveJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(mm); err != nil {
		return fmt.Errorf("core: encoding machine model: %w", err)
	}
	return nil
}
