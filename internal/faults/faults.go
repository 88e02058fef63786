// Package faults injects deterministic, seedable faults into the simulated
// testbed: degraded interconnect links, slowed or failed device DMA
// engines, and flaky measurements (transient failures, hangs, outliers,
// extra noise). A Plan names the faults; an Injector answers, for any
// measurement key, whether and how that measurement is disturbed.
//
// Every decision is a pure function of (plan seed, decision kind, key) via
// an avalanched FNV hash (see roll). Nothing depends on wall
// time, operation order or which worker runs a measurement, so a chaos
// characterization is bit-identical at any core.Config.Parallelism — the
// property the chaos determinism tests assert. "Failure windows" are
// therefore expressed in key space (a probability over measurement keys),
// not in time. See docs/RESILIENCE.md for the full contract.
package faults

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"

	"numaio/internal/fabric"
	"numaio/internal/resilience"
	"numaio/internal/topology"
)

// Injected fault errors. Both are marked transient (resilience.IsTransient)
// because a retry re-rolls under a new attempt key and may well succeed —
// exactly how flaky hardware behaves.
var (
	// ErrInjectedFailure is returned by a measurement the plan fails.
	ErrInjectedFailure = resilience.MarkTransient(errors.New("faults: injected measurement failure"))
	// ErrDeviceOffline is returned when the plan takes a device offline.
	ErrDeviceOffline = resilience.MarkTransient(errors.New("faults: injected device failure"))
)

// LinkFault degrades the interconnect link(s) between two topology
// vertices (both directions when a duplex pair exists), like
// topology.DegradeLinkBetween but applied at solve time so the machine
// itself stays pristine.
type LinkFault struct {
	// A and B are vertex names, e.g. "node2" and "node7".
	A string `json:"a"`
	B string `json:"b"`
	// Factor scales the link capacity; (0, 1] — 0.5 halves the link.
	Factor float64 `json:"factor"`
}

// DeviceFault slows or fails a device's DMA engine.
type DeviceFault struct {
	// Device is the device ID; "" matches every device.
	Device string `json:"device,omitempty"`
	// Factor scales the engine ceiling; 0 takes the device offline
	// (measurements against it fail with ErrDeviceOffline).
	Factor float64 `json:"factor"`
	// Probability is the fraction of measurement keys the fault applies to;
	// 0 means 1 (always). This is the key-space analogue of a failure
	// window: with 0.3, a deterministic 30% of measurements see the fault.
	Probability float64 `json:"probability,omitempty"`
}

// MeasurementFault makes individual measurements misbehave.
type MeasurementFault struct {
	// FailureRate is the probability a measurement attempt fails
	// transiently (ErrInjectedFailure).
	FailureRate float64 `json:"failure_rate,omitempty"`
	// HangRate is the probability an attempt hangs until its context
	// deadline — exercising the per-measurement timeout machinery.
	HangRate float64 `json:"hang_rate,omitempty"`
	// OutlierRate is the probability a reported sample is scaled by
	// OutlierFactor — the bad data the MAD rejection must catch.
	OutlierRate float64 `json:"outlier_rate,omitempty"`
	// OutlierFactor scales outlier samples; 0 means 0.5.
	OutlierFactor float64 `json:"outlier_factor,omitempty"`
	// Noise is extra multiplicative measurement noise (a sigma, like
	// core.Config.Sigma) applied on top of the runner's own jitter.
	Noise float64 `json:"noise,omitempty"`
}

// Plan is a named, seeded set of faults.
type Plan struct {
	Name string `json:"name,omitempty"`
	// Seed decorrelates the fault draws of otherwise identical plans; the
	// same seed always produces the same faults.
	Seed        uint64           `json:"seed,omitempty"`
	Links       []LinkFault      `json:"links,omitempty"`
	Devices     []DeviceFault    `json:"devices,omitempty"`
	Measurement MeasurementFault `json:"measurement,omitempty"`
}

// Validate checks every rate and factor is in range.
func (p Plan) Validate() error {
	for _, l := range p.Links {
		if l.A == "" || l.B == "" {
			return fmt.Errorf("faults: link fault needs both vertex names, got %q-%q", l.A, l.B)
		}
		if l.Factor <= 0 || l.Factor > 1 {
			return fmt.Errorf("faults: link %s-%s factor %v out of (0,1]", l.A, l.B, l.Factor)
		}
	}
	for _, d := range p.Devices {
		if d.Factor < 0 || d.Factor > 1 {
			return fmt.Errorf("faults: device %q factor %v out of [0,1]", d.Device, d.Factor)
		}
		if d.Probability < 0 || d.Probability > 1 {
			return fmt.Errorf("faults: device %q probability %v out of [0,1]", d.Device, d.Probability)
		}
	}
	m := p.Measurement
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"failure_rate", m.FailureRate},
		{"hang_rate", m.HangRate},
		{"outlier_rate", m.OutlierRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: measurement %s %v out of [0,1]", r.name, r.v)
		}
	}
	if m.OutlierFactor < 0 {
		return fmt.Errorf("faults: negative outlier factor %v", m.OutlierFactor)
	}
	if m.Noise < 0 || m.Noise >= 1 {
		return fmt.Errorf("faults: measurement noise %v out of [0,1)", m.Noise)
	}
	return nil
}

// Injector answers fault questions for measurement keys under one plan.
// It is stateless after construction and safe for concurrent use.
type Injector struct {
	plan Plan
}

// New validates the plan and builds its injector.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan}, nil
}

// roll is the deterministic uniform draw behind every decision: a pure
// function of (seed, decision kind, key). The FNV sum is finalized with a
// splitmix64 avalanche: raw FNV-1a ends in (hash ^ byte) * prime, so keys
// differing only in a trailing digit — adjacent repeats of one cell —
// land within ~2^-12 of each other and would cross a probability
// threshold together. The finalizer decorrelates them.
func (i *Injector) roll(kind, key string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "faults:%d:%s:%s", i.plan.Seed, kind, key)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x%(1<<52)) / float64(int64(1)<<52)
}

// FailAttempt reports whether the measurement attempt identified by key is
// failed by the plan.
func (i *Injector) FailAttempt(key string) bool {
	r := i.plan.Measurement.FailureRate
	return r > 0 && i.roll("fail", key) < r
}

// HangAttempt reports whether the attempt hangs until its deadline.
func (i *Injector) HangAttempt(key string) bool {
	r := i.plan.Measurement.HangRate
	return r > 0 && i.roll("hang", key) < r
}

// SampleFactor returns the multiplicative disturbance of a reported
// sample: outlier scaling (with probability OutlierRate) plus extra noise.
// 1 means the sample is untouched.
func (i *Injector) SampleFactor(key string) float64 {
	f := 1.0
	m := i.plan.Measurement
	if m.OutlierRate > 0 && i.roll("outlier", key) < m.OutlierRate {
		of := m.OutlierFactor
		if of == 0 {
			of = 0.5
		}
		f *= of
	}
	if m.Noise > 0 {
		f *= 1 + m.Noise*(2*i.roll("noise", key)-1)
	}
	return f
}

// DeviceFactor returns the capacity scale of a device's DMA engine for the
// measurement identified by key, or ErrDeviceOffline when a matching fault
// takes the device down. Matching faults compose multiplicatively.
func (i *Injector) DeviceFactor(deviceID, key string) (float64, error) {
	f := 1.0
	for idx, d := range i.plan.Devices {
		if d.Device != "" && d.Device != deviceID {
			continue
		}
		if d.Probability > 0 && d.Probability < 1 {
			if i.roll(fmt.Sprintf("dev%d", idx), deviceID+"|"+key) >= d.Probability {
				continue
			}
		}
		if d.Factor == 0 {
			return 0, fmt.Errorf("faults: device %q offline for %q: %w", deviceID, key, ErrDeviceOffline)
		}
		f *= d.Factor
	}
	return f, nil
}

// LinkScales resolves the plan's link faults against a machine into
// capacity factors for fabric link resources, scaling both directions of a
// duplex pair like topology.DegradeLinkBetween. Unknown vertex pairs are
// an error.
func (i *Injector) LinkScales(m *topology.Machine) (map[fabric.ResourceID]float64, error) {
	if len(i.plan.Links) == 0 {
		return nil, nil
	}
	scales := make(map[fabric.ResourceID]float64)
	for _, l := range i.plan.Links {
		found := false
		if idx := m.FindLink(l.A, l.B); idx >= 0 {
			scales[fabric.LinkResource(idx)] = scaleFor(scales, fabric.LinkResource(idx)) * l.Factor
			found = true
		}
		if idx := m.FindLink(l.B, l.A); idx >= 0 {
			scales[fabric.LinkResource(idx)] = scaleFor(scales, fabric.LinkResource(idx)) * l.Factor
			found = true
		}
		if !found {
			return nil, fmt.Errorf("faults: no link between %q and %q on %s", l.A, l.B, m.Name)
		}
	}
	return scales, nil
}

func scaleFor(scales map[fabric.ResourceID]float64, id fabric.ResourceID) float64 {
	if f, ok := scales[id]; ok {
		return f
	}
	return 1
}

// LoadPlan reads a plan from a JSON file (strict: unknown fields are an
// error) and validates it.
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("faults: %w", err)
	}
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("faults: parsing %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, fmt.Errorf("faults: %s: %w", path, err)
	}
	return p, nil
}
