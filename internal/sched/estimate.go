package sched

import (
	"fmt"

	"numaio/internal/device"
	"numaio/internal/fabric"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// Estimate predicts the aggregate bandwidth of a placement from the model
// alone — no I/O (not even simulated I/O) is run. It generalizes Eq. 1 to
// heterogeneous placements: every task contributes its class rate to a
// small abstract allocation problem containing only the model-derived
// constraints (device engine time, per-node host processing, per-stream
// ceilings). This is the estimator a runtime scheduler would consult on a
// production host, where the only calibrated inputs are the memcpy model
// and one measured rate per class.
func (s *Scheduler) Estimate(engine string, placement []topology.NodeID) (units.Bandwidth, error) {
	if len(placement) == 0 {
		return 0, fmt.Errorf("sched: empty placement")
	}
	if engine == device.EngineMemcpy {
		return s.estimateMemcpy(placement)
	}
	spec, err := device.SpecFor(engine)
	if err != nil {
		return 0, err
	}
	model, err := s.ModelFor(engine)
	if err != nil {
		return 0, err
	}

	// One DMA-engine resource per device of the kind: fio stripes SSD
	// instances across both cards, and the estimate must account for the
	// doubled ceiling.
	m := s.sys.Machine()
	devs := spec.DevicesOfKind(m)
	if len(devs) == 0 {
		return 0, fmt.Errorf("sched: no %v device", spec.Kind)
	}
	var resources []fabric.Resource
	for _, d := range devs {
		resources = append(resources, fabric.Resource{
			ID: fabric.DeviceResource(d.ID, spec.Name), Capacity: spec.Ceiling,
		})
	}
	for _, n := range m.Nodes {
		if spec.PerStreamHost <= 0 && n.ID != s.devNode(spec) {
			continue
		}
		resources = append(resources, fabric.Resource{
			ID: fabric.CoreResource(n.ID),
			Capacity: units.Bandwidth(float64(n.Cores) *
				float64(device.TCPHostCostPerStream) * n.EffectiveCoreMultiplier()),
		})
	}

	devNode := s.devNode(spec)
	flows := make([]fabric.Flow, 0, len(placement))
	for i, n := range placement {
		cls, err := model.ClassOf(n)
		if err != nil {
			return 0, err
		}
		rate, err := s.classRate(engine, cls)
		if err != nil {
			return 0, err
		}
		if rate <= 0 {
			return 0, fmt.Errorf("sched: zero class rate for node %d", int(n))
		}
		dev := devs[i%len(devs)]
		flow := fabric.Flow{
			ID: fmt.Sprintf("t%d", i),
			Usages: []fabric.Usage{
				{Resource: fabric.DeviceResource(dev.ID, spec.Name),
					Weight: float64(spec.Ceiling) / float64(rate)},
			},
		}
		if spec.PerStreamHost > 0 {
			flow.Demand = spec.PerStreamHost
			flow.Usages = append(flow.Usages, fabric.Usage{
				Resource: fabric.CoreResource(n), Weight: 1,
			})
		}
		if spec.IRQWeight > 0 {
			flow.Usages = append(flow.Usages, fabric.Usage{
				Resource: fabric.CoreResource(devNode), Weight: spec.IRQWeight,
			})
		}
		flows = append(flows, flow)
	}
	return fabric.AggregateRate(resources, flows)
}

// devNode returns the node of the first device of the engine's kind (the
// testbed has all devices on one node).
func (s *Scheduler) devNode(spec device.Spec) topology.NodeID {
	devs := spec.DevicesOfKind(s.sys.Machine())
	if len(devs) == 0 {
		return s.Target()
	}
	return devs[0].Node
}

// estimateMemcpy predicts a staging placement from the write model: each
// task contributes its class average, and the target node's memory
// controller (charged twice for local copies) bounds the total.
func (s *Scheduler) estimateMemcpy(placement []topology.NodeID) (units.Bandwidth, error) {
	m := s.sys.Machine()
	target := s.Target()
	targetNode := m.MustNode(target)

	resources := []fabric.Resource{{ID: fabric.MemResource(target), Capacity: targetNode.MemBandwidth}}
	// One abstract "path" resource per distinct source class, holding that
	// class's aggregate capacity (its average bandwidth): tasks of the same
	// class share their class's paths into the target.
	classCap := make(map[int]units.Bandwidth)
	flows := make([]fabric.Flow, 0, len(placement))
	for i, n := range placement {
		cls, err := s.writeModel.ClassOf(n)
		if err != nil {
			return 0, err
		}
		if _, ok := classCap[cls.Rank]; !ok {
			classCap[cls.Rank] = cls.Avg
			resources = append(resources, fabric.Resource{
				ID:       fabric.ResourceID(fmt.Sprintf("class:%d", cls.Rank)),
				Capacity: cls.Avg,
			})
		}
		memWeight := 1.0
		if n == target {
			memWeight = 2.0 // local copy reads and writes the same controller
		}
		flows = append(flows, fabric.Flow{
			ID: fmt.Sprintf("t%d", i),
			Usages: []fabric.Usage{
				{Resource: fabric.ResourceID(fmt.Sprintf("class:%d", cls.Rank)), Weight: 1},
				{Resource: fabric.MemResource(target), Weight: memWeight},
			},
		})
	}
	return fabric.AggregateRate(resources, flows)
}

// Advice is the outcome of BestPlacement.
type Advice struct {
	Policy    Policy
	Placement []topology.NodeID
	Estimate  units.Bandwidth
	// PerPolicy records the estimate of every candidate policy.
	PerPolicy map[Policy]units.Bandwidth
}

// BestPlacement evaluates all policies with the analytic estimator and
// returns the best (ties break toward the simpler policy, in declaration
// order: local-only < hop-distance < round-robin < class-balanced).
func (s *Scheduler) BestPlacement(engine string, count int) (*Advice, error) {
	adv := &Advice{PerPolicy: make(map[Policy]units.Bandwidth)}
	best := units.Bandwidth(-1)
	for _, p := range []Policy{LocalOnly, HopDistance, RoundRobin, ClassBalanced} {
		placement, err := s.Place(engine, count, p)
		if err != nil {
			return nil, err
		}
		est, err := s.Estimate(engine, placement)
		if err != nil {
			return nil, err
		}
		adv.PerPolicy[p] = est
		if est > best {
			best = est
			adv.Policy, adv.Placement, adv.Estimate = p, placement, est
		}
	}
	return adv, nil
}
