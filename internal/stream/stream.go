// Package stream implements the STREAM memory benchmark (McCalpin) against
// the simulated host, the way the paper uses it in Sec. IV-A: multi-threaded
// kernels pinned to a CPU node with arrays bound to a memory node, run many
// times with the maximum observed bandwidth reported.
//
// STREAM is a programmed-I/O workload: the CPU moves every element itself.
// Its fabric footprint therefore differs from DMA-driven bulk I/O — both
// directions of the CPU↔memory path carry data plus request/response
// overhead, and cache-coherent read returns are subject to the per-link PIO
// penalties. This is precisely why the paper finds STREAM-derived models
// unable to predict I/O behaviour (Sec. IV-C); the iomodel package provides
// the DMA-faithful alternative.
package stream

import (
	"fmt"

	"numaio/internal/fabric"
	"numaio/internal/numa"
	"numaio/internal/simhost"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// Kernel selects the STREAM operation.
type Kernel int

// STREAM kernels.
const (
	Copy Kernel = iota
	Scale
	Add
	Triad
	// Fill is the numademo memset workload: a write-only stream. It is not
	// part of STREAM proper but shares the harness (Sec. II-B lists memset
	// among numademo's modules).
	Fill
)

func (k Kernel) String() string {
	switch k {
	case Copy:
		return "copy"
	case Scale:
		return "scale"
	case Add:
		return "add"
	case Triad:
		return "triad"
	case Fill:
		return "fill"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// arrays returns how many arrays the kernel touches.
func (k Kernel) arrays() int {
	switch k {
	case Fill:
		return 1
	case Copy, Scale:
		return 2
	default:
		return 3
	}
}

// factor is the kernel's bandwidth efficiency relative to Copy. Modern
// machines show nearly identical rates across kernels (Sec. III-B1); the
// small factors reflect the arithmetic in Scale/Add/Triad.
func (k Kernel) factor() float64 {
	switch k {
	case Copy:
		return 1.0
	case Scale:
		return 0.98
	case Add:
		return 0.96
	case Triad:
		return 0.97
	default:
		return 1.0
	}
}

// PIO efficiency of the core pipeline by CPU↔memory relationship. The
// neighbour discount reflects shared on-package resources; remote transfers
// pay coherence-protocol overhead on top of their link constraints.
const (
	effLocal    = 0.88
	effNeighbor = 0.84
	effRemote   = 0.82
)

// Config tunes a STREAM run.
type Config struct {
	Kernel Kernel
	// Threads per test; 0 means one per core of the CPU node (the paper
	// uses 4, matching the Opteron 6136 die).
	Threads int
	// ArrayBytes per array; 0 means max(4×LLC, 20 MiB). STREAM requires at
	// least 4× the largest cache; New rejects smaller values.
	ArrayBytes units.Size
	// Runs is how many repetitions the maximum is taken over; 0 means 100.
	Runs int
	// Sigma is the per-run measurement noise; 0 means 0.03, negative
	// disables jitter entirely.
	Sigma float64
}

func (c Config) withDefaults(llc units.Size) Config {
	if c.Runs == 0 {
		c.Runs = 100
	}
	if c.Sigma == 0 {
		c.Sigma = 0.03
	} else if c.Sigma < 0 {
		c.Sigma = 0
	}
	if c.ArrayBytes == 0 {
		c.ArrayBytes = 4 * llc
		if c.ArrayBytes < 20*units.MiB {
			c.ArrayBytes = 20 * units.MiB
		}
	}
	return c
}

// Runner executes STREAM measurements on a system.
type Runner struct {
	sys *numa.System
	cfg Config
}

// New validates the configuration against the machine (array-size rule) and
// returns a runner.
func New(sys *numa.System, cfg Config) (*Runner, error) {
	var maxLLC units.Size
	for _, n := range sys.Machine().Nodes {
		if n.LLC > maxLLC {
			maxLLC = n.LLC
		}
	}
	cfg = cfg.withDefaults(maxLLC)
	if cfg.ArrayBytes < 4*maxLLC {
		return nil, fmt.Errorf("stream: array size %v below 4×LLC (%v); results would be cache-resident",
			cfg.ArrayBytes, 4*maxLLC)
	}
	if cfg.Threads < 0 {
		return nil, fmt.Errorf("stream: negative thread count")
	}
	if cfg.Runs < 1 {
		return nil, fmt.Errorf("stream: runs must be >= 1")
	}
	return &Runner{sys: sys, cfg: cfg}, nil
}

// Measure runs the kernel with threads pinned to node cpu and all arrays
// bound to node mem, returning the maximum bandwidth over the configured
// runs. Arrays are really allocated (and freed) on the simulated host, so
// numastat counters and free-memory reflect benchmark activity.
func (r *Runner) Measure(cpu, mem topology.NodeID) (units.Bandwidth, error) {
	m := r.sys.Machine()
	cpuNode, ok := m.Node(cpu)
	if !ok {
		return 0, fmt.Errorf("stream: unknown CPU node %d", int(cpu))
	}
	if _, ok := m.Node(mem); !ok {
		return 0, fmt.Errorf("stream: unknown memory node %d", int(mem))
	}

	// Allocate the kernel's arrays on the memory node (numactl --membind).
	task := r.sys.NewTask(fmt.Sprintf("stream-%v-%d-%d", r.cfg.Kernel, cpu, mem))
	if err := task.RunOn(cpu); err != nil {
		return 0, err
	}
	var bufs []*simhost.Buffer
	for i := 0; i < r.cfg.Kernel.arrays(); i++ {
		b, err := task.AllocOnNode(r.cfg.ArrayBytes, mem)
		if err != nil {
			for _, bb := range bufs {
				_ = task.Free(bb)
			}
			return 0, fmt.Errorf("stream: allocating array %d: %w", i, err)
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

	base, err := pioBandwidth(m, cpu, mem, threads, r.cfg.Kernel == Fill)
	if err != nil {
		return 0, err
	}

	bw := base * r.relationEff(cpu, mem) * r.cfg.Kernel.factor() * r.osFactor(cpu)
	key := fmt.Sprintf("%s/%v/cpu%d/mem%d/t%d", m.Name, r.cfg.Kernel, cpu, mem, threads)
	bw *= simhost.JitterMax(key, r.cfg.Sigma, r.cfg.Runs)
	return units.Bandwidth(bw), nil
}

// pioBandwidth computes the raw fabric-limited PIO rate for a single
// multi-threaded kernel instance.
func pioBandwidth(m *topology.Machine, cpu, mem topology.NodeID, threads int, fill bool) (float64, error) {
	cpuNode := m.MustNode(cpu)
	coreCap := float64(cpuNode.CoreIssueBandwidth) *
		float64(threads) / float64(cpuNode.Cores) *
		cpuNode.EffectiveCoreMultiplier()
	resources := append(fabric.MachineResources(m), fabric.Resource{
		ID: fabric.CoreResource(cpu), Capacity: units.Bandwidth(coreCap),
	})
	usages, err := fabric.PIOFlowUsages(m, cpu, mem, fabric.DefaultPIOParams())
	if fill {
		usages, err = fabric.FillFlowUsages(m, cpu, mem, fabric.DefaultPIOParams())
	}
	if err != nil {
		return 0, err
	}
	usages = append(usages, fabric.Usage{Resource: fabric.CoreResource(cpu), Weight: 1})
	bw, err := fabric.AggregateRate(resources, []fabric.Flow{{ID: "stream", Usages: usages}})
	return float64(bw), err
}

func (r *Runner) relationEff(cpu, mem topology.NodeID) float64 {
	switch r.sys.Machine().Relation(cpu, mem) {
	case topology.Local:
		return effLocal
	case topology.Neighbor:
		return effNeighbor
	default:
		return effRemote
	}
}

// osFactor derates runs whose threads execute off node 0: a fraction of
// their references (shared libraries, OS buffers) lands on node 0, which is
// why node 0's local STREAM result stands out in Fig. 3.
func (r *Runner) osFactor(cpu topology.NodeID) float64 {
	ids := r.sys.Machine().NodeIDs()
	if cpu == ids[0] {
		return 1
	}
	return 1 - r.sys.Machine().OSMemoryFraction
}

// Matrix is the full N×N bandwidth model of Fig. 3: BW[i][j] is the rate
// with threads on Nodes[i] and data on Nodes[j].
type Matrix struct {
	Nodes []topology.NodeID
	BW    [][]units.Bandwidth
}

// Matrix measures every CPU×memory combination.
func (r *Runner) Matrix() (*Matrix, error) {
	ids := r.sys.Machine().NodeIDs()
	out := &Matrix{Nodes: ids, BW: make([][]units.Bandwidth, len(ids))}
	for i, cpu := range ids {
		out.BW[i] = make([]units.Bandwidth, len(ids))
		for j, mem := range ids {
			bw, err := r.Measure(cpu, mem)
			if err != nil {
				return nil, err
			}
			out.BW[i][j] = bw
		}
	}
	return out, nil
}

// index returns the row/column of a node.
func (m *Matrix) index(n topology.NodeID) (int, error) {
	for i, id := range m.Nodes {
		if id == n {
			return i, nil
		}
	}
	return 0, fmt.Errorf("stream: node %d not in matrix", int(n))
}

// CPUCentric returns the row of node n: threads fixed on n, data varying —
// the "CPU centric" model of Fig. 4(a).
func (m *Matrix) CPUCentric(n topology.NodeID) ([]units.Bandwidth, error) {
	i, err := m.index(n)
	if err != nil {
		return nil, err
	}
	return append([]units.Bandwidth(nil), m.BW[i]...), nil
}

// MemCentric returns the column of node n: data fixed on n, threads varying
// — the "memory centric" model of Fig. 4(b).
func (m *Matrix) MemCentric(n topology.NodeID) ([]units.Bandwidth, error) {
	j, err := m.index(n)
	if err != nil {
		return nil, err
	}
	out := make([]units.Bandwidth, len(m.Nodes))
	for i := range m.Nodes {
		out[i] = m.BW[i][j]
	}
	return out, nil
}
