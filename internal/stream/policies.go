package stream

import (
	"fmt"

	"numaio/internal/fabric"
	"numaio/internal/simhost"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// This file implements the numademo-style policy comparison (Sec. II-B):
// the same STREAM kernel under local binding, remote binding, and page
// interleaving across all nodes.

// MeasureInterleaved runs the kernel with threads pinned to node cpu and
// the arrays interleaved over all nodes (numactl --interleave=all). The
// PIO traffic fans out proportionally to the page placement.
func (r *Runner) MeasureInterleaved(cpu topology.NodeID) (units.Bandwidth, error) {
	m := r.sys.Machine()
	cpuNode, ok := m.Node(cpu)
	if !ok {
		return 0, fmt.Errorf("stream: unknown CPU node %d", int(cpu))
	}

	task := r.sys.NewTask(fmt.Sprintf("stream-il-%v-%d", r.cfg.Kernel, cpu))
	if err := task.RunOn(cpu); err != nil {
		return 0, err
	}
	var bufs []*simhost.Buffer
	for i := 0; i < r.cfg.Kernel.arrays(); i++ {
		b, err := task.AllocInterleaved(r.cfg.ArrayBytes)
		if err != nil {
			for _, bb := range bufs {
				_ = task.Free(bb)
			}
			return 0, fmt.Errorf("stream: allocating interleaved array %d: %w", i, err)
		}
		bufs = append(bufs, b)
	}
	defer func() {
		for _, b := range bufs {
			_ = task.Free(b)
		}
	}()

	threads := r.cfg.Threads
	if threads == 0 || threads > cpuNode.Cores {
		threads = cpuNode.Cores
	}

	// Combine the per-node PIO footprints weighted by the page shares of
	// the first array (all arrays share the same distribution shape).
	pages := bufs[0].Pages
	var total float64
	for _, sh := range pages {
		total += float64(sh.Size)
	}
	coreCap := float64(cpuNode.CoreIssueBandwidth) *
		float64(threads) / float64(cpuNode.Cores) *
		cpuNode.EffectiveCoreMultiplier()
	resources := append(fabric.MachineResources(m), fabric.Resource{
		ID: fabric.CoreResource(cpu), Capacity: units.Bandwidth(coreCap),
	})
	var usages []fabric.Usage
	var effSum, fracSum float64
	for _, sh := range pages {
		frac := float64(sh.Size) / total
		nodeUsages, err := fabric.PIOFlowUsages(m, cpu, sh.Node, fabric.DefaultPIOParams())
		if err != nil {
			return 0, err
		}
		for _, u := range nodeUsages {
			usages = append(usages, fabric.Usage{Resource: u.Resource, Weight: u.Weight * frac})
		}
		effSum += frac * r.relationEff(cpu, sh.Node)
		fracSum += frac
	}
	if fracSum == 0 {
		return 0, fmt.Errorf("stream: interleaved buffer has no pages")
	}
	usages = append(usages, fabric.Usage{Resource: fabric.CoreResource(cpu), Weight: 1})
	rate, err := fabric.AggregateRate(resources, []fabric.Flow{{ID: "stream-il", Usages: usages}})
	if err != nil {
		return 0, err
	}

	bw := float64(rate) * (effSum / fracSum) *
		r.cfg.Kernel.factor() * r.osFactor(cpu)
	key := fmt.Sprintf("%s/%v/il/cpu%d/t%d", m.Name, r.cfg.Kernel, cpu, threads)
	bw *= simhost.JitterMax(key, r.cfg.Sigma, r.cfg.Runs)
	return units.Bandwidth(bw), nil
}

// PolicyComparison is the outcome of ComparePolicies.
type PolicyComparison struct {
	CPU         topology.NodeID
	Local       units.Bandwidth // arrays bound to the CPU's node
	WorstRemote units.Bandwidth // arrays bound to the slowest remote node
	BestRemote  units.Bandwidth // arrays bound to the fastest remote node
	Interleaved units.Bandwidth // arrays interleaved over all nodes
}

// ComparePolicies measures the kernel under the numademo affinity policies
// for one CPU node.
func (r *Runner) ComparePolicies(cpu topology.NodeID) (*PolicyComparison, error) {
	out := &PolicyComparison{CPU: cpu}
	local, err := r.Measure(cpu, cpu)
	if err != nil {
		return nil, err
	}
	out.Local = local
	for _, mem := range r.sys.Machine().NodeIDs() {
		if mem == cpu {
			continue
		}
		bw, err := r.Measure(cpu, mem)
		if err != nil {
			return nil, err
		}
		if out.WorstRemote == 0 || bw < out.WorstRemote {
			out.WorstRemote = bw
		}
		if bw > out.BestRemote {
			out.BestRemote = bw
		}
	}
	il, err := r.MeasureInterleaved(cpu)
	if err != nil {
		return nil, err
	}
	out.Interleaved = il
	return out, nil
}
