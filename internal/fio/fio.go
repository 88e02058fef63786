// Package fio is a Flexible-I/O-Tester-style benchmark engine for the
// simulated host (Sec. III-B2 of the paper). Jobs mirror fio semantics —
// ioengine, numjobs, size, bs, iodepth, NUMA binding — and run either
// against the simulated devices (tcp_send/tcp_recv, rdma_write/rdma_read/
// rdma_send, ssd_write/ssd_read), as pure memory copies (memcpy, the
// engine the paper adds for its proposed methodology), or natively against
// real Go memory/sockets (native_memcpy, native_tcp; see natives.go).
//
// Simulated engines build flows through internal/fabric, so concurrent jobs
// contend for links, memory controllers, cores and device DMA engines the
// way the paper's measurements do: TCP is host-bound and suffers the
// interrupt load on the device's node, RDMA is offloaded and stable, disk
// rates scale with cards and queue depth.
package fio

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"numaio/internal/device"
	"numaio/internal/fabric"
	"numaio/internal/faults"
	"numaio/internal/numa"
	"numaio/internal/simhost"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// Job is one fio job definition (one section of a job file).
type Job struct {
	Name   string
	Engine string
	// Device pins the job to one device ("" = pick by engine kind;
	// SSD engines stripe instances across all cards like the paper's
	// two-card setup).
	Device string
	// Node is the CPU binding of the job's processes (numactl
	// --cpunodebind). Buffers are allocated local-preferred on this node
	// unless MemNode overrides it.
	Node topology.NodeID
	// MemNode, when non-nil, binds buffers to this node (--membind).
	MemNode *topology.NodeID
	// NumJobs is the number of processes (parallel streams); default 1.
	NumJobs int
	// Size is the bytes each process transfers; default 400 GiB (Table III).
	Size units.Size
	// BlockSize is the I/O block size; default 128 KiB (Table III).
	BlockSize units.Size
	// IODepth is the async queue depth (disk engines); default 16.
	IODepth int
	// Interleave spreads the job's buffers round-robin over all nodes
	// (numactl --interleave=all); the DMA traffic then fans out
	// proportionally to the page placement. Mutually exclusive with
	// MemNode.
	Interleave bool
	// Rate caps each process's transfer rate (fio's rate= option); <= 0
	// means unlimited.
	Rate units.Bandwidth
	// Runtime makes the job time-based (fio's runtime= option): instances
	// run for exactly this long at their steady rate and report the bytes
	// they managed, instead of running a fixed Size to completion.
	Runtime units.Duration
	// SrcNode/DstNode configure the memcpy engine (Algorithm 1); the
	// copying threads run on Node.
	SrcNode, DstNode *topology.NodeID
}

// withDefaults fills fio's defaults (Table III of the paper).
func (j Job) withDefaults(idx int) Job {
	if j.Name == "" {
		j.Name = fmt.Sprintf("job%d", idx)
	}
	if j.NumJobs == 0 {
		j.NumJobs = 1
	}
	if j.Size == 0 {
		j.Size = 400 * units.GiB
	}
	if j.BlockSize == 0 {
		j.BlockSize = 128 * units.KiB
	}
	if j.IODepth == 0 {
		j.IODepth = 16
	}
	return j
}

// InstanceResult is the outcome of one process of a job.
type InstanceResult struct {
	Job        string
	Instance   int
	Node       topology.NodeID
	BufferNode topology.NodeID
	Bandwidth  units.Bandwidth // steady rate while all jobs were running
	AvgRate    units.Bandwidth // lifetime average
	Duration   units.Duration
	// Latency approximates fio's completion-latency percentiles for the
	// instance's blocks (see LatencyStats).
	Latency LatencyStats
}

// Report is the outcome of a run.
type Report struct {
	Instances []InstanceResult
	// PerJob sums the steady bandwidth of each job's instances.
	PerJob map[string]units.Bandwidth
	// Aggregate is the steady aggregate over all instances, the figure the
	// paper reports for equal-sized concurrent streams.
	Aggregate units.Bandwidth
	// Makespan is the completion time of the slowest instance.
	Makespan units.Duration
	// Timeline is the phase-by-phase record of the underlying fluid run
	// (rates and resource utilization between completions).
	Timeline simhost.Timeline
}

// Runner executes fio jobs on a system. It caches the per-machine flow
// plumbing (base resource table, copy routes, instance names), so repeated
// runs — the characterization sweep's inner loop — skip the rebuild. A
// Runner is not safe for concurrent use; spawn one per worker.
type Runner struct {
	sys   *numa.System
	specs map[string]device.Spec
	// Sigma is the reporting jitter; 0 disables it.
	Sigma float64
	// Tracer, when set, records the underlying fluid runs (one span per run
	// plus one per phase) on track TraceTID; see internal/telemetry. Tracing
	// shapes no results.
	Tracer   *telemetry.Tracer
	TraceTID int

	// baseRes is the machine + per-node core resource table, invariant
	// across runs (capacity-clamped so appends cannot alias it).
	baseRes []fabric.Resource
	// copyCache memoizes the usages and path latency of memcpy flows per
	// (src, dst) node pair.
	copyCache map[copyKey]copyEntry

	// faults, when set, disturbs runs per the plan: linkScale degrades the
	// base resource table, device engines are slowed or failed per run, and
	// jobs can fail, hang or report outliers — all keyed by job name, so
	// faults are deterministic regardless of scheduling.
	faults    *faults.Injector
	linkScale map[fabric.ResourceID]float64

	// insts, transfers and rates are per-run scratch reused across runs,
	// and names memoizes instance IDs and jitter keys per job shape, so the
	// characterization sweep's inner loop stays off the allocator.
	insts     []instance
	transfers []simhost.Transfer
	rates     []units.Bandwidth
	names     map[nameKey]*instNames
}

type copyKey struct{ src, dst topology.NodeID }

type copyEntry struct {
	usages  []fabric.Usage
	pathLat units.Duration
}

// NewRunner returns a runner with the default device specs and a small
// reporting jitter.
func NewRunner(sys *numa.System) *Runner {
	return &Runner{sys: sys, specs: device.DefaultSpecs(), Sigma: 0.015}
}

// SetSpec overrides one engine's device spec — used by ablation experiments
// (e.g. disabling the interrupt load to isolate its effect).
func (r *Runner) SetSpec(s device.Spec) { r.specs[s.Name] = s }

// SetFaults puts the runner under a fault plan (nil clears it), resolving
// the plan's link faults against the machine up front — an unknown link
// pair errors here, not mid-measurement. The cached resource table is
// dropped so the degraded capacities take effect.
func (r *Runner) SetFaults(inj *faults.Injector) error {
	r.faults, r.linkScale = nil, nil
	r.baseRes = nil
	if inj == nil {
		return nil
	}
	scales, err := inj.LinkScales(r.sys.Machine())
	if err != nil {
		return err
	}
	r.faults, r.linkScale = inj, scales
	return nil
}

// instance identifies one process while building flows.
type instance struct {
	job       Job
	idx       int
	id        string
	jitterKey string
	buffer    *simhost.Buffer
	bufNode   topology.NodeID
	devID     string
	isDevice  bool
	pathLat   units.Duration
}

// Run executes the jobs concurrently to completion and reports bandwidths.
func (r *Runner) Run(jobs []Job) (*Report, error) {
	resources, err := r.prepare(context.Background(), jobs)
	defer r.freeBuffers()
	if err != nil {
		return nil, err
	}
	fluid, err := simhost.RunFluid(resources, r.transfers, r.Tracer, r.TraceTID)
	if err != nil {
		return nil, err
	}
	insts := r.insts
	rep := &Report{
		Instances: make([]InstanceResult, 0, len(insts)),
		PerJob:    make(map[string]units.Bandwidth, len(jobs)),
		Timeline:  fluid.Timeline,
	}
	for i := range insts {
		in := &insts[i]
		res := fluid.Transfers[i]
		jitter := r.jitter(in)
		ir := InstanceResult{
			Job:        in.job.Name,
			Instance:   in.idx,
			Node:       in.job.Node,
			BufferNode: in.bufNode,
			Bandwidth:  units.Bandwidth(float64(res.InitialRate) * jitter),
			AvgRate:    units.Bandwidth(float64(res.Bandwidth) * jitter),
			Duration:   res.Duration,
		}
		if in.job.Runtime > 0 {
			// Time-based job: it ran for exactly Runtime at its steady rate.
			ir.Duration = in.job.Runtime
			ir.AvgRate = ir.Bandwidth
		}
		ir.Latency = blockLatency(in.pathLat, in.job.BlockSize,
			ir.Bandwidth, len(insts))
		rep.Instances = append(rep.Instances, ir)
		rep.PerJob[in.job.Name] += ir.Bandwidth
		rep.Aggregate += ir.Bandwidth
		if ir.Duration > rep.Makespan {
			rep.Makespan = ir.Duration
		}
	}
	// (Job, Instance) pairs are unique (a repeat fails as a duplicate
	// transfer ID), so the unstable sort has one answer.
	slices.SortFunc(rep.Instances, func(a, b InstanceResult) int {
		return cmp.Or(strings.Compare(a.Job, b.Job), cmp.Compare(a.Instance, b.Instance))
	})
	return rep, nil
}

// RunAggregate is Run reduced to the steady aggregate, Report.Aggregate bit
// for bit: the same jobs, jitter and fault draws and float accumulation
// order, from one steady-state solve instead of a timeline. The
// characterization sweep's inner loop reads only the aggregate, and this
// path keeps a measurement cell allocation-free. ctx gates injected hangs:
// a job the fault plan hangs blocks until ctx is done and returns its cause
// (typically context.DeadlineExceeded — callers set per-measurement
// timeouts).
func (r *Runner) RunAggregate(ctx context.Context, jobs []Job) (units.Bandwidth, error) {
	resources, err := r.prepare(ctx, jobs)
	defer r.freeBuffers()
	if err != nil {
		return 0, err
	}
	n := len(r.transfers)
	if cap(r.rates) < n {
		r.rates = make([]units.Bandwidth, n)
	}
	rates := r.rates[:n]
	if err := simhost.SteadyRates(resources, r.transfers, rates, r.Tracer, r.TraceTID); err != nil {
		return 0, err
	}
	var agg units.Bandwidth
	for i := range r.insts {
		agg += units.Bandwidth(float64(rates[i]) * r.jitter(&r.insts[i]))
	}
	return agg, nil
}

// jitter is an instance's reporting noise factor: its keyed draw, times
// the fault plan's sample factor when one is set.
func (r *Runner) jitter(in *instance) float64 {
	jitter := simhost.Jitter(in.jitterKey, r.effectiveSigma(in.job))
	if r.faults != nil {
		// Outliers and extra noise, keyed per job: every instance of a
		// measurement is disturbed together, producing the clean
		// whole-measurement outliers the MAD rejection is built for.
		jitter *= r.faults.SampleFactor(r.sys.Machine().Name + "/" + in.job.Name)
	}
	return jitter
}

// prepare expands jobs into r.insts (reused scratch), allocates their
// buffers and builds the resource table and r.transfers, both in instance
// order: transfer i belongs to instance i. The caller frees the buffers
// (freeBuffers), including on error. ctx gates injected hangs.
func (r *Runner) prepare(ctx context.Context, jobs []Job) ([]fabric.Resource, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fio: no jobs")
	}
	m := r.sys.Machine()
	r.insts = r.insts[:0]

	ssdRR := 0
	var runKey string
	for ji, j := range jobs {
		j = j.withDefaults(ji)
		if _, ok := m.Node(j.Node); !ok {
			return nil, fmt.Errorf("fio: job %q: unknown node %d", j.Name, int(j.Node))
		}
		if runKey != "" {
			runKey += "+"
		}
		runKey += j.Name
		if r.faults != nil {
			fkey := m.Name + "/" + j.Name
			if r.faults.HangAttempt(fkey) {
				// The induced hang: block until the caller's deadline.
				<-ctx.Done()
				return nil, fmt.Errorf("fio: injected hang in job %q: %w", j.Name, context.Cause(ctx))
			}
			if r.faults.FailAttempt(fkey) {
				return nil, fmt.Errorf("fio: job %q: %w", j.Name, faults.ErrInjectedFailure)
			}
		}
		for k := 0; k < j.NumJobs; k++ {
			id, jkey := r.instStrings(m, &j, k)
			r.insts = append(r.insts, instance{job: j, idx: k, id: id, jitterKey: jkey})
			in := &r.insts[len(r.insts)-1]
			switch j.Engine {
			case device.EngineMemcpy:
				if j.SrcNode == nil || j.DstNode == nil {
					return nil, fmt.Errorf("fio: job %q: memcpy engine needs src/dst nodes", j.Name)
				}
				if _, ok := m.Node(*j.SrcNode); !ok {
					return nil, fmt.Errorf("fio: job %q: unknown src node %d", j.Name, int(*j.SrcNode))
				}
				if _, ok := m.Node(*j.DstNode); !ok {
					return nil, fmt.Errorf("fio: job %q: unknown dst node %d", j.Name, int(*j.DstNode))
				}
			default:
				spec, err := r.spec(j.Engine)
				if err != nil {
					return nil, fmt.Errorf("fio: job %q: %w", j.Name, err)
				}
				in.isDevice = true
				devID, err := r.pickDevice(j, spec, &ssdRR)
				if err != nil {
					return nil, fmt.Errorf("fio: job %q: %w", j.Name, err)
				}
				in.devID = devID
			}
			if err := r.allocBuffer(in); err != nil {
				return nil, fmt.Errorf("fio: job %q: %w", j.Name, err)
			}
		}
	}

	resources, err := r.buildResources(r.insts, runKey)
	if err != nil {
		return nil, err
	}
	r.transfers = r.transfers[:0]
	for i := range r.insts {
		tr, err := r.buildTransfer(&r.insts[i])
		if err != nil {
			return nil, err
		}
		r.transfers = append(r.transfers, tr)
	}
	return resources, nil
}

// freeBuffers releases every buffer the last prepare allocated.
func (r *Runner) freeBuffers() {
	for i := range r.insts {
		if b := r.insts[i].buffer; b != nil {
			_ = r.sys.Host().Free(b)
			r.insts[i].buffer = nil
		}
	}
}

// maxInstNames bounds the Runner's instance-name cache; past it (huge
// generated sweeps with per-attempt renames) names are computed per run
// instead of cached.
const maxInstNames = 8192

// instStrings returns the instance ID ("name/k") and jitter key
// ("machine/engine/id/nNode" — byte-identical to the format these keys have
// always used, so draws are unchanged) for process k of a job, memoized per
// (name, engine, node): the characterization sweep re-runs every cell name
// repeatedly and the concatenations were a top allocation site.
func (r *Runner) instStrings(m *topology.Machine, j *Job, k int) (id, jitterKey string) {
	key := nameKey{name: j.Name, engine: j.Engine, node: j.Node}
	n := r.names[key]
	if n == nil {
		if len(r.names) >= maxInstNames {
			id = j.Name + "/" + strconv.Itoa(k)
			return id, m.Name + "/" + j.Engine + "/" + id + "/n" + strconv.Itoa(int(j.Node))
		}
		if r.names == nil {
			r.names = make(map[nameKey]*instNames)
		}
		n = &instNames{}
		r.names[key] = n
	}
	for len(n.ids) <= k {
		kk := len(n.ids)
		idk := j.Name + "/" + strconv.Itoa(kk)
		n.ids = append(n.ids, idk)
		n.jitterKeys = append(n.jitterKeys,
			m.Name+"/"+j.Engine+"/"+idk+"/n"+strconv.Itoa(int(j.Node)))
	}
	return n.ids[k], n.jitterKeys[k]
}

type nameKey struct {
	name, engine string
	node         topology.NodeID
}

type instNames struct {
	ids, jitterKeys []string
}

// effectiveSigma grows the reporting noise once streams oversubscribe the
// cores, reproducing the "unexpected behaviour" the paper sees at 8 and 16
// TCP streams (Sec. IV-B1).
func (r *Runner) effectiveSigma(j Job) float64 {
	sigma := r.Sigma
	node, ok := r.sys.Machine().Node(j.Node)
	if ok && j.NumJobs > node.Cores {
		sigma *= 1 + 0.5*float64(j.NumJobs-node.Cores)/float64(node.Cores)
	}
	return sigma
}

func (r *Runner) spec(engine string) (device.Spec, error) {
	s, ok := r.specs[engine]
	if !ok {
		return device.Spec{}, fmt.Errorf("unknown ioengine %q", engine)
	}
	return s, nil
}

// pickDevice selects the device for an instance: an explicit one, the only
// NIC, or the next SSD card round-robin (the paper drives both cards).
func (r *Runner) pickDevice(j Job, spec device.Spec, ssdRR *int) (string, error) {
	if j.Device != "" {
		d, ok := r.sys.Machine().DeviceByID(j.Device)
		if !ok {
			return "", fmt.Errorf("unknown device %q", j.Device)
		}
		if d.Kind != spec.Kind {
			return "", fmt.Errorf("device %q is a %v, engine %s needs a %v",
				j.Device, d.Kind, spec.Name, spec.Kind)
		}
		return d.ID, nil
	}
	devs := spec.DevicesOfKind(r.sys.Machine())
	if len(devs) == 0 {
		return "", fmt.Errorf("no %v device on machine", spec.Kind)
	}
	if spec.Kind == topology.DeviceSSD {
		d := devs[*ssdRR%len(devs)]
		*ssdRR++
		return d.ID, nil
	}
	return devs[0].ID, nil
}

// allocBuffer allocates the instance's transfer buffer the way fio under
// numactl does: bound when --membind is given, local-preferred otherwise.
func (r *Runner) allocBuffer(in *instance) error {
	j := in.job
	bufSize := j.BlockSize * units.Size(maxInt(j.IODepth, 1))
	req := simhost.AllocRequest{
		Size: bufSize, Policy: simhost.PolicyLocalPreferred, TaskNode: j.Node,
	}
	switch {
	case j.Engine == device.EngineMemcpy:
		// Algorithm 1 allocates the source and sink explicitly; account the
		// source here (the flow usages charge both nodes).
		req.Policy, req.Target = simhost.PolicyBind, *j.SrcNode
	case j.Interleave && j.MemNode != nil:
		return fmt.Errorf("interleave and membind are mutually exclusive")
	case j.Interleave:
		req.Policy = simhost.PolicyInterleave
	case j.MemNode != nil:
		req.Policy, req.Target = simhost.PolicyBind, *j.MemNode
	}
	b, err := r.sys.Host().Alloc(req)
	if err != nil {
		return err
	}
	in.buffer = b
	in.bufNode = b.HomeNode()
	if j.Engine == device.EngineMemcpy {
		in.bufNode = *j.DstNode
	}
	return nil
}

// baseResources returns the run-invariant resource table: machine resources
// plus per-node core budgets (in TCP processing units). Built once per
// Runner; the slice's capacity is clamped so appending device resources
// allocates rather than aliasing the cache.
func (r *Runner) baseResources() []fabric.Resource {
	if r.baseRes == nil {
		m := r.sys.Machine()
		resources := fabric.MachineResources(m)
		for _, n := range m.Nodes {
			resources = append(resources, fabric.Resource{
				ID: fabric.CoreResource(n.ID),
				Capacity: units.Bandwidth(float64(n.Cores) *
					float64(device.TCPHostCostPerStream) * n.EffectiveCoreMultiplier()),
			})
		}
		// Fault plans degrade links at solve time; the topology stays
		// pristine (same effect as topology.DegradeLinkBetween for flows).
		resources = fabric.ScaleResources(resources, r.linkScale)
		r.baseRes = resources[:len(resources):len(resources)]
	}
	return r.baseRes
}

// buildResources returns the base table plus one DMA-engine resource per
// (device, engine) pair in use. Under a fault plan the engine capacity is
// scaled per (device, run) — or the run fails outright when the plan takes
// the device offline.
func (r *Runner) buildResources(insts []instance, runKey string) ([]fabric.Resource, error) {
	resources := r.baseResources()
	var seen map[fabric.ResourceID]bool
	for i := range insts {
		in := &insts[i]
		if !in.isDevice {
			continue
		}
		spec, err := r.spec(in.job.Engine)
		if err != nil {
			return nil, err
		}
		id := fabric.DeviceResource(in.devID, spec.Name)
		if seen == nil {
			seen = make(map[fabric.ResourceID]bool)
		}
		if !seen[id] {
			capacity := spec.Ceiling
			if r.faults != nil {
				f, err := r.faults.DeviceFactor(in.devID, runKey)
				if err != nil {
					return nil, fmt.Errorf("fio: job %q: %w", in.job.Name, err)
				}
				capacity = units.Bandwidth(float64(capacity) * f)
			}
			resources = append(resources, fabric.Resource{ID: id, Capacity: capacity})
			seen[id] = true
		}
	}
	return resources, nil
}

// buildTransfer turns an instance into a fluid transfer with its resource
// usages.
func (r *Runner) buildTransfer(in *instance) (simhost.Transfer, error) {
	m := r.sys.Machine()
	j := in.job
	tr := simhost.Transfer{ID: in.id, Bytes: j.Size}

	if j.Engine == device.EngineMemcpy {
		key := copyKey{src: *j.SrcNode, dst: *j.DstNode}
		ce, ok := r.copyCache[key]
		if !ok {
			route, err := m.RouteNodes(key.src, key.dst)
			if err != nil {
				return tr, err
			}
			ce = copyEntry{usages: fabric.CopyUsages(route, key.src, key.dst), pathLat: m.PathLatency(route)}
			if r.copyCache == nil {
				r.copyCache = make(map[copyKey]copyEntry)
			}
			r.copyCache[key] = ce
		}
		tr.Usages = ce.usages
		in.pathLat = ce.pathLat
		applyRateCap(&tr, j.Rate)
		return tr, nil
	}

	spec, err := r.spec(j.Engine)
	if err != nil {
		return tr, err
	}
	dev, _ := m.DeviceByID(in.devID)

	// Bulk DMA between the device and the buffer pages: usually one node,
	// but interleaved buffers fan the traffic out proportionally to the
	// page placement, so every leg and controller is charged its share.
	total := float64(in.buffer.Size)
	engineWeight := 0.0
	for _, sh := range in.buffer.Pages {
		frac := float64(sh.Size) / total
		if frac <= 0 {
			continue
		}
		dp, err := m.DeviceRoutes(in.devID, sh.Node)
		if err != nil {
			return tr, err
		}
		route := dp.FromMemory
		if spec.Direction == device.FromDevice {
			route = dp.ToMemory
		}
		tr.Usages = append(tr.Usages, fabric.PathUsages(route, frac)...)
		tr.Usages = append(tr.Usages, fabric.Usage{
			Resource: fabric.MemResource(sh.Node), Weight: frac,
		})
		in.pathLat += units.Duration(frac * float64(m.PathLatency(route)))

		// DMA engine time, weighted by how expensive this page's class is
		// to serve (Eq. 1's per-class rates; harmonic mixing under
		// contention).
		classRate, err := spec.ClassRate(m, in.devID, sh.Node)
		if err != nil {
			return tr, err
		}
		classRate = units.Bandwidth(float64(classRate) * r.depthFactor(spec, j))
		if classRate <= 0 {
			return tr, fmt.Errorf("fio: job %q: zero class rate", j.Name)
		}
		engineWeight += frac * float64(spec.Ceiling) / float64(classRate)
	}
	tr.Usages = append(tr.Usages, fabric.Usage{
		Resource: fabric.DeviceResource(in.devID, spec.Name),
		Weight:   engineWeight,
	})

	// Host-driven protocols: per-stream core cost on the job's node and a
	// per-stream ceiling (one thread cannot exceed one core's rate).
	if spec.PerStreamHost > 0 {
		tr.Usages = append(tr.Usages, fabric.Usage{
			Resource: fabric.CoreResource(j.Node), Weight: 1,
		})
		tr.Demand = spec.PerStreamHost
	}
	// Interrupts land on the device's local node.
	if spec.IRQWeight > 0 {
		tr.Usages = append(tr.Usages, fabric.Usage{
			Resource: fabric.CoreResource(dev.Node), Weight: spec.IRQWeight,
		})
	}
	applyRateCap(&tr, j.Rate)
	return tr, nil
}

// applyRateCap folds fio's rate= option into the transfer's demand.
func applyRateCap(tr *simhost.Transfer, rate units.Bandwidth) {
	if rate <= 0 {
		return
	}
	if tr.Demand <= 0 || rate < tr.Demand {
		tr.Demand = rate
	}
}

// depthFactor models libaio queue-depth scaling for the disk engines: the
// paper's depth of 16 saturates the cards; shallow queues leave the flash
// idle between completions.
func (r *Runner) depthFactor(spec device.Spec, j Job) float64 {
	if spec.Kind != topology.DeviceSSD {
		return 1
	}
	d := float64(maxInt(j.IODepth, 1))
	// Normalized so the paper's depth of 16 is full speed.
	f := (d / (d + 2)) / (16.0 / 18.0)
	if f > 1 {
		f = 1
	}
	return f
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Engines lists every ioengine value Run accepts, in stable order: the
// simulated device engines plus the memcpy engine of Algorithm 1.
func Engines() []string {
	specs := device.DefaultSpecs()
	names := make([]string, 0, len(specs)+1)
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return append(names, device.EngineMemcpy)
}
