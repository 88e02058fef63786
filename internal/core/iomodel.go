// Package core implements the paper's primary contribution (Sec. V): the
// NUMA I/O bandwidth performance model built from memory-copy operations.
//
// Algorithm 1: to characterize the node an I/O device is attached to (the
// "target"), spawn one copy thread per core of the target node and bind all
// of them to it — simulating the device's DMA engine. For the device-write
// model the data sink is fixed on the target and the source sweeps every
// node; for the device-read model the source is fixed and the sink sweeps.
// The per-node bandwidths are then clustered into performance classes
// (Tables IV and V): the target and its package neighbour always form class
// 1, and the remote nodes split wherever a wide bandwidth gap appears.
//
// The resulting Model predicts multi-user aggregate device bandwidth with
// the mixture of Eq. 1 and tells schedulers which nodes are interchangeable
// — all without touching the I/O hardware.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"numaio/internal/device"
	"numaio/internal/fanout"
	"numaio/internal/faults"
	"numaio/internal/fio"
	"numaio/internal/numa"
	"numaio/internal/resilience"
	"numaio/internal/telemetry"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// activeWorkers counts the measurement workers currently executing a
// (node, repeat) cell, process-wide; numaiod exports it as the
// numaiod_measure_workers_busy gauge. The two plain atomic adds per cell
// are always paid — the gauge must read correctly for untraced sweeps
// too — while the trace counter series built on top of them (a Sprintf
// and an event append per sample) stays gated on an active tracer.
var activeWorkers atomic.Int64

// ActiveMeasureWorkers returns the number of measurement cells currently
// executing across all characterizations in the process, traced or not.
func ActiveMeasureWorkers() int64 { return activeWorkers.Load() }

// Mode selects which I/O direction the model describes.
type Mode int

// Modes.
const (
	// ModeWrite models writing to the device: the DMA engine reads host
	// memory on a varying node and stores into the device (data sink fixed
	// on the target node in the memcpy simulation, Fig. 9a).
	ModeWrite Mode = iota
	// ModeRead models reading from the device: the DMA engine writes host
	// memory on a varying node (data source fixed on the target, Fig. 9b).
	ModeRead
)

func (m Mode) String() string {
	switch m {
	case ModeWrite:
		return "write"
	case ModeRead:
		return "read"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode maps the wire/CLI spelling of a mode back to its value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "write":
		return ModeWrite, nil
	case "read":
		return ModeRead, nil
	default:
		return 0, fmt.Errorf("core: unknown mode %q (want write or read)", s)
	}
}

// Sample is one measured point of the model.
type Sample struct {
	Node      topology.NodeID `json:"node"`
	Bandwidth units.Bandwidth `json:"bandwidth_bps"`
	// StdDev is the spread over the characterization repeats — the
	// run-to-run variation behind the ranges the paper's tables report.
	StdDev units.Bandwidth `json:"stddev_bps,omitempty"`
	// Outliers counts the repeats the MAD cutoff rejected for this node
	// (faultOutlierMAD, under a fault plan); omitted when rejection is off
	// or nothing was rejected.
	Outliers int `json:"outliers,omitempty"`
}

// Class is one performance class of the model.
type Class struct {
	Rank  int               `json:"rank"` // 1 is the target's own class
	Nodes []topology.NodeID `json:"nodes"`
	Min   units.Bandwidth   `json:"min_bps"`
	Max   units.Bandwidth   `json:"max_bps"`
	Avg   units.Bandwidth   `json:"avg_bps"`
}

// Model is a complete I/O bandwidth performance model for one target node
// and direction.
type Model struct {
	Machine string          `json:"machine"`
	Target  topology.NodeID `json:"target"`
	Mode    Mode            `json:"mode"`
	Samples []Sample        `json:"samples"`
	Classes []Class         `json:"classes"`
	// Resilience reports what the fault-tolerance machinery absorbed while
	// building the model; present only for runs under a fault plan.
	Resilience *ResilienceReport `json:"resilience,omitempty"`

	// table caches the lazily built node-sorted class-rate lookup used by
	// Predict (see predictTable). It holds a []predictEntry; concurrent
	// first builds are idempotent because the table is a pure function of
	// Classes. Rebind Classes only on a fresh copy, never on a Model that
	// has already served a Predict.
	table atomic.Value
}

// ResilienceReport summarizes the faults a characterization sweep survived
// (Config.Faults): how many measurement attempts were retried, why, and
// how many repeats the outlier rejection discarded. All counts are pure
// functions of the fault-plan seed, so they are identical at any
// Parallelism.
type ResilienceReport struct {
	// FaultPlan and Seed identify the plan the sweep ran under.
	FaultPlan string `json:"fault_plan,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// Retries counts retried measurement attempts; Timeouts and Failures
	// split the triggering errors into deadline expiries (induced hangs)
	// and injected transient failures.
	Retries  int `json:"retries,omitempty"`
	Timeouts int `json:"timeouts,omitempty"`
	Failures int `json:"failures,omitempty"`
	// Outliers counts repeats rejected by the MAD cutoff across all nodes.
	Outliers int `json:"outliers,omitempty"`
}

// Config tunes the characterization run.
type Config struct {
	// Threads per test; 0 means one per core of the target node
	// (Algorithm 1 line 2: m = cores/nodes).
	Threads int
	// Repeats averages this many runs per node; 0 means 5. (Algorithm 1
	// copies 100 times; the simulation's jitter converges much faster.)
	Repeats int
	// BytesPerThread per repeat; 0 means 2 GiB.
	BytesPerThread units.Size
	// GapThreshold is the fraction of the remote-node bandwidth spread
	// that counts as a class boundary; 0 means 0.2.
	GapThreshold float64
	// Sigma is the measurement noise; 0 means 0.02, negative disables.
	Sigma float64
	// Parallelism bounds the number of measurement workers. The
	// (node, repeat) cells of Characterize — and the (target, mode) sweeps
	// of CharacterizeAll — are independent, so they fan out over this many
	// workers (internal/fanout); 0 or 1 runs serially. Measured values are
	// identical at any setting: jitter is keyed by job name, so scheduling
	// order cannot change a cell's value, and results are assembled in
	// deterministic node order. Parallelism therefore tunes wall time only.
	Parallelism int

	// Faults, when non-nil, runs the sweep under the fault plan: degraded
	// links, flaky devices, and measurements that fail, hang or report
	// outliers (internal/faults), and rejects outlier repeats
	// (faultOutlierMAD). Fault decisions are keyed by job name, so chaos
	// runs are as deterministic — and as Parallelism-independent — as clean
	// ones.
	Faults *faults.Plan
	// MeasureTimeout bounds one measurement attempt; an attempt the plan
	// hangs is abandoned (and retried) after this long. 0 means 250ms when
	// Faults is set and no limit otherwise; negative disables.
	MeasureTimeout time.Duration
	// MaxRetries is the retry budget per measurement cell for transient
	// failures and timeouts; retried attempts are renamed (-a1, -a2, …) so
	// they deterministically re-roll their fault and jitter draws, after an
	// exponential backoff from faultRetryBackoff under Faults. 0 means 5
	// when Faults is set and no retries otherwise; negative disables.
	MaxRetries int
	// Clock drives retry backoff and measurement timeouts; nil means the
	// system clock. Tests inject resilience.NewAutoClock so chaos sweeps
	// run without real sleeps.
	Clock resilience.Clock

	// Tracer, when non-nil, records the sweep onto the trace: one span per
	// (target, mode) sweep, one per (node, repeat) cell, the classification
	// pass, the underlying fluid runs, and resilience events (timeouts,
	// failures, outlier rejections). Tracing shapes no results and is
	// excluded from model cache keys.
	Tracer *telemetry.Tracer

	// Base, when non-nil, is the machine this one was derived from (a
	// what-if mutant's original) with the whole-host model CharacterizeAll
	// built for it under this same Config. Every sample whose copy path is
	// unchanged — same route, same link capacities on it, same nodes — is
	// copied from that model instead of measured; the other cells run, and
	// every target is classified again. Base shapes no result: the model
	// equals a fresh sweep's byte for byte, so it is excluded from model
	// cache keys. It is ignored under Faults.
	Base *Base
}

// Under a fault plan (Config.Faults) a cell's retries back off from
// faultRetryBackoff, doubling per attempt up to 64x, and a repeat whose
// modified z-score against the per-node median, 0.6745*|v-median|/MAD,
// exceeds faultOutlierMAD is rejected and counted (Sample.Outliers). Clean
// runs do neither, so their models are reproduced byte for byte.
const (
	faultRetryBackoff = time.Millisecond
	faultOutlierMAD   = 3.5
)

// Base is the machine a characterized machine was derived from, with its
// whole-host model (Config.Base).
type Base struct {
	Machine *topology.Machine
	Model   *MachineModel
}

func (c Config) withDefaults() Config {
	if c.Repeats == 0 {
		c.Repeats = 5
	}
	if c.BytesPerThread == 0 {
		c.BytesPerThread = 2 * units.GiB
	}
	if c.GapThreshold == 0 {
		c.GapThreshold = 0.2
	}
	if c.Sigma == 0 {
		c.Sigma = 0.02
	} else if c.Sigma < 0 {
		c.Sigma = 0
	}
	// Resilience knobs default on only under a fault plan, so clean runs
	// keep the exact historical behaviour (and bytes).
	chaos := c.Faults != nil
	if c.MeasureTimeout == 0 && chaos {
		c.MeasureTimeout = 250 * time.Millisecond
	} else if c.MeasureTimeout < 0 {
		c.MeasureTimeout = 0
	}
	if c.MaxRetries == 0 && chaos {
		c.MaxRetries = 5
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Clock == nil {
		c.Clock = resilience.SystemClock{}
	}
	return c
}

// Characterizer runs Algorithm 1 on a system.
type Characterizer struct {
	sys   *numa.System
	cfg   Config
	inj   *faults.Injector
	retry resilience.RetryPolicy

	// Runner pool. Building a runner is the expensive part of a sweep —
	// resource table, copy routes, private host — so runners are pooled
	// across sweeps and across CharacterizeAll calls instead of rebuilt per
	// worker. Each runner owns a private numa.System over the shared machine:
	// measured values never read host allocator state (memcpy buffer
	// placement is explicit), and private hosts mean parallel workers never
	// serialize on one allocator mutex. A runner is taken once per claimed
	// range of cells, so the freelist mutex is off the per-cell path.
	mu   sync.Mutex
	idle []*fio.Runner

	// allRows indexes every node of a sweep (0..n-1), the rows a sweep
	// without a base measures. reuse marks, for Config.Base, the ordered
	// (src, dst) copy pairs whose samples the base model supplies:
	// reuse[s*n+d] over the indices of the sorted node IDs; nil when
	// nothing can be reused.
	allRows []int
	reuse   []bool

	// names caches the per-sweep cell job names (see cellNames); fpOnce
	// caches the machine fingerprint for CharacterizeAll.
	nameMu sync.Mutex
	names  map[sweepKey][]string
	fpOnce sync.Once
	fp     string
	fpErr  error
}

// NewCharacterizer returns a characterizer for the system.
func NewCharacterizer(sys *numa.System, cfg Config) (*Characterizer, error) {
	cfg = cfg.withDefaults()
	if cfg.Threads < 0 {
		return nil, fmt.Errorf("core: negative thread count")
	}
	if cfg.Repeats < 1 {
		return nil, fmt.Errorf("core: repeats must be >= 1")
	}
	if cfg.GapThreshold <= 0 || cfg.GapThreshold >= 1 {
		return nil, fmt.Errorf("core: gap threshold %v out of (0,1)", cfg.GapThreshold)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("core: negative parallelism")
	}
	c := &Characterizer{sys: sys, cfg: cfg}
	c.allRows = make([]int, sys.Machine().NumNodes())
	for i := range c.allRows {
		c.allRows[i] = i
	}
	c.retry = resilience.RetryPolicy{MaxRetries: cfg.MaxRetries}
	if cfg.Faults != nil {
		c.retry.Base = faultRetryBackoff
		inj, err := faults.New(*cfg.Faults)
		if err != nil {
			return nil, err
		}
		// Resolve the plan's link faults now so an unknown link errors at
		// construction, not mid-sweep in a worker.
		if _, err := inj.LinkScales(sys.Machine()); err != nil {
			return nil, err
		}
		c.inj = inj
	}
	if b := cfg.Base; b != nil {
		if b.Machine == nil || b.Model == nil {
			return nil, fmt.Errorf("core: base needs both a machine and its model")
		}
		if cfg.Faults == nil {
			c.reuse = reusablePairs(b.Machine, sys.Machine())
		}
	}
	return c, nil
}

// reusablePairs decides, once per Characterizer, which samples of machine
// m the base machine's model can supply. A memcpy cell's value depends only
// on its route's links, the two memory controllers, the thread count and
// the jitter keyed by the machine name: so the machines must share their
// name, nodes (cores set the thread count and sigma, packages drive
// Classify) and link count, and an ordered (src, dst) pair is reusable when
// its route has the same links, with the same capacities, on both. It
// returns nil when the machines differ in anything else.
func reusablePairs(base, m *topology.Machine) []bool {
	if base.Name != m.Name || !slices.Equal(base.Nodes, m.Nodes) || base.NumLinks() != m.NumLinks() {
		return nil
	}
	nodes := m.NodeIDs()
	reuse := make([]bool, len(nodes)*len(nodes))
	for s, src := range nodes {
		for d, dst := range nodes {
			was, err1 := base.RouteNodes(src, dst)
			now, err2 := m.RouteNodes(src, dst)
			if err1 != nil || err2 != nil || !slices.Equal(was, now) {
				continue
			}
			reuse[s*len(nodes)+d] = !slices.ContainsFunc(now, func(li int) bool {
				return base.Link(li).Capacity != m.Link(li).Capacity
			})
		}
	}
	return reuse
}

// baseSweep returns the base model's (target, mode) model when its samples
// cover exactly the given nodes, in order; nil otherwise.
func (c *Characterizer) baseSweep(target topology.NodeID, mode Mode, nodes []topology.NodeID) *Model {
	bm, err := c.cfg.Base.Model.ModelFor(target, mode)
	if err != nil || len(bm.Samples) != len(nodes) {
		return nil
	}
	for i, s := range bm.Samples {
		if s.Node != nodes[i] {
			return nil
		}
	}
	return bm
}

// measureRows returns the indices into nodes of the (target, mode) samples
// the base model cannot supply. Sample (target, mode, node) is the copy
// pair (node, target) in write mode and (target, node) in read mode.
func (c *Characterizer) measureRows(target topology.NodeID, mode Mode, nodes []topology.NodeID) []int {
	n, t := len(nodes), slices.Index(nodes, target)
	var rows []int
	for i := range nodes {
		pair := i*n + t
		if mode == ModeRead {
			pair = t*n + i
		}
		if !c.reuse[pair] {
			rows = append(rows, i)
		}
	}
	return rows
}

// getRunner pops a pooled measurement runner (or builds one on a pool
// miss), rebound to the given trace track. Return it with putRunner.
func (c *Characterizer) getRunner(tid int) (*fio.Runner, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		runner := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		runner.Tracer, runner.TraceTID = c.cfg.Tracer, tid
		return runner, nil
	}
	c.mu.Unlock()
	sys, err := numa.NewSystem(c.sys.Machine())
	if err != nil {
		return nil, err
	}
	runner := fio.NewRunner(sys)
	runner.Sigma = c.cfg.Sigma
	if err := runner.SetFaults(c.inj); err != nil {
		return nil, err
	}
	runner.Tracer, runner.TraceTID = c.cfg.Tracer, tid
	return runner, nil
}

// putRunner parks a runner for reuse by later cells and sweeps.
func (c *Characterizer) putRunner(runner *fio.Runner) {
	runner.Tracer = nil
	c.mu.Lock()
	c.idle = append(c.idle, runner)
	c.mu.Unlock()
}

// Characterize runs Algorithm 1 for one target node and mode and returns
// the classified model. With Config.Parallelism > 1 the (node, repeat)
// measurement cells run concurrently, and with Config.Base only the cells a
// machine change can reach are measured; the model is identical either way.
func (c *Characterizer) Characterize(target topology.NodeID, mode Mode) (*Model, error) {
	return c.CharacterizeOn(target, mode, 0)
}

// CharacterizeOn is Characterize with the sweep's spans recorded on the
// given trace track. Callers that fan whole sweeps out over their own
// workers (the scenario grid runner) pass each worker's track so
// concurrent sweeps nest cleanly in the trace; the model is identical to
// Characterize's. Without a Config.Tracer the track is irrelevant.
func (c *Characterizer) CharacterizeOn(target topology.NodeID, mode Mode, track int) (*Model, error) {
	return c.characterize(target, mode, c.cfg.Parallelism, track)
}

// characterize is Characterize with an explicit cell worker count and trace
// track. CharacterizeAll passes one worker, so that fanning out over
// (target, mode) pairs does not multiply the worker count, and gives each
// sweep its worker's track.
func (c *Characterizer) characterize(target topology.NodeID, mode Mode, workers, tid int) (*Model, error) {
	// Span construction (name formatting, attr slice) is skipped outright
	// without a tracer — this sits on the sweep's hot path. All span methods
	// are nil-safe, so the untraced flow below is unchanged.
	var sweep *telemetry.Span
	if c.cfg.Tracer != nil {
		sweep = c.cfg.Tracer.StartSpanOn(tid,
			fmt.Sprintf("characterize t%d %v", int(target), mode), "characterize",
			telemetry.Int("target", int(target)), telemetry.String("mode", mode.String()))
	}
	defer sweep.End()

	m := c.sys.Machine()
	targetNode, ok := m.Node(target)
	if !ok {
		return nil, fmt.Errorf("core: unknown target node %d", int(target))
	}
	threads := c.cfg.Threads
	if threads == 0 || threads > targetNode.Cores {
		threads = targetNode.Cores
	}

	nodes := m.NodeIDs()
	// rows are the indices into nodes of the samples to measure, ascending;
	// with a base model, every other sample is copied from it.
	rows := c.allRows
	var base *Model
	if c.reuse != nil {
		if base = c.baseSweep(target, mode, nodes); base != nil {
			rows = c.measureRows(target, mode, nodes)
		}
		sweep.SetAttr(telemetry.Int("reused", len(nodes)-len(rows)))
	}
	var vals []float64
	var stats cellStats
	if len(rows) > 0 {
		var err error
		if vals, stats, err = c.measureCells(target, mode, threads, nodes, rows, workers, tid); err != nil {
			return nil, err
		}
	}
	model := &Model{Machine: m.Name, Target: target, Mode: mode}
	model.Samples = make([]Sample, 0, len(nodes))
	totalOutliers := 0
	reps := c.cfg.Repeats
	k := 0 // the next measured row
	for i, n := range nodes {
		if k == len(rows) || rows[k] != i {
			model.Samples = append(model.Samples, base.Samples[i])
			continue
		}
		row := vals[k*reps : (k+1)*reps]
		k++
		kept, rejected := row, 0
		if c.cfg.Faults != nil {
			kept, rejected = rejectOutliers(row, faultOutlierMAD)
			totalOutliers += rejected
		}
		if rejected > 0 {
			c.cfg.Tracer.InstantOn(tid, "outliers-rejected", "resilience",
				telemetry.Int("node", int(n)), telemetry.Int("rejected", rejected))
		}
		bw, sd := meanStddev(kept)
		model.Samples = append(model.Samples, Sample{Node: n, Bandwidth: bw, StdDev: sd, Outliers: rejected})
	}
	if c.cfg.Faults != nil {
		model.Resilience = &ResilienceReport{
			FaultPlan: c.cfg.Faults.Name,
			Seed:      c.cfg.Faults.Seed,
			Retries:   stats.retries,
			Timeouts:  stats.timeouts,
			Failures:  stats.failures,
			Outliers:  totalOutliers,
		}
	}
	clsSpan := sweep.StartSpan("classify", "classify")
	classes, err := Classify(m, target, model.Samples, c.cfg.GapThreshold)
	clsSpan.End()
	if err != nil {
		return nil, err
	}
	model.Classes = classes
	return model, nil
}

// cellStats counts what the retry machinery absorbed for one cell.
type cellStats struct {
	retries, timeouts, failures int
}

func (s *cellStats) add(o cellStats) {
	s.retries += o.retries
	s.timeouts += o.timeouts
	s.failures += o.failures
}

// measureScratch is one worker's reusable measurement state: the job slice
// handed to the fio runner and the src/dst nodes its pointer fields bind
// to. One per worker, so a cell allocates nothing to describe its job.
type measureScratch struct {
	jobs     [1]fio.Job
	src, dst topology.NodeID
}

// newScratch seeds the sweep-invariant job fields; per-cell fields (Name,
// src, dst) are filled by measureAttempt.
func (c *Characterizer) newScratch(target topology.NodeID, threads int) *measureScratch {
	sc := &measureScratch{}
	sc.jobs[0] = fio.Job{
		Engine:  device.EngineMemcpy,
		Node:    target, // all copy threads bound to the target node
		NumJobs: threads,
		Size:    c.cfg.BytesPerThread,
		SrcNode: &sc.src,
		DstNode: &sc.dst,
	}
	return sc
}

// sweepKey identifies one (target, mode) sweep's cached cell names.
type sweepKey struct {
	target topology.NodeID
	mode   Mode
}

// cellNames returns the attempt-0 job names of every (node, repeat) cell,
// row-indexed [nodeIdx*reps+rep], built once per (target, mode) and cached:
// the names carry the full cell coordinates (they key the jitter and fault
// draws), and formatting them per cell was a measurable slice of the sweep.
func (c *Characterizer) cellNames(target topology.NodeID, mode Mode, nodes []topology.NodeID, reps int) []string {
	key := sweepKey{target: target, mode: mode}
	c.nameMu.Lock()
	defer c.nameMu.Unlock()
	if row, ok := c.names[key]; ok && len(row) == len(nodes)*reps {
		return row
	}
	row := make([]string, len(nodes)*reps)
	for i, n := range nodes {
		for rep := 0; rep < reps; rep++ {
			row[i*reps+rep] = fmt.Sprintf("iomodel-%v-t%d-n%d-r%d", mode, int(target), int(n), rep)
		}
	}
	if c.names == nil {
		c.names = make(map[sweepKey][]string)
	}
	c.names[key] = row
	return row
}

// measureCells runs the (node, repeat) measurement cells of one sweep for
// the nodes at the given rows (indices into nodes, ascending) and returns
// vals[k*Repeats+rep] for rows[k] plus the summed resilience stats. A cell
// keeps the job name of its place in the full sweep, so its value does not
// depend on which rows are measured. Cells are independent, so they fan out
// over the given number of workers (internal/fanout), with one fio.Runner
// per claimed range; values and per-cell stats are indexed, not appended,
// so scheduling order cannot change the assembled model.
func (c *Characterizer) measureCells(target topology.NodeID, mode Mode, threads int, nodes []topology.NodeID, rows []int, workers, tid int) ([]float64, cellStats, error) {
	reps := c.cfg.Repeats
	vals := make([]float64, len(rows)*reps)
	perCell := make([]cellStats, len(vals))
	names := c.cellNames(target, mode, nodes, reps)
	// The busy-worker gauge is always maintained — two plain atomic adds
	// per cell — so /metrics reads true occupancy whether or not a trace
	// is running. The trace counter series built on it (a Sprintf and an
	// event append per sample) needs an active tracer, and is kept to
	// parallel runs so serial traces stay byte-deterministic.
	series := c.cfg.Tracer != nil && min(workers, len(vals)) > 1
	err := fanout.Run(len(vals), workers, tid, func(track, lo, hi int) error {
		runner, err := c.getRunner(track)
		if err != nil {
			return err
		}
		defer c.putRunner(runner)
		sc := c.newScratch(target, threads)
		for idx := lo; idx < hi; idx++ {
			i, rep := rows[idx/reps], idx%reps
			busy := activeWorkers.Add(1)
			if series {
				c.cfg.Tracer.Count("measure-workers-busy", float64(busy))
			}
			v, st, err := c.measureCell(runner, sc, names[i*reps+rep], target, nodes[i], mode, rep, track)
			busy = activeWorkers.Add(-1)
			if series {
				c.cfg.Tracer.Count("measure-workers-busy", float64(busy))
			}
			if err != nil {
				return err
			}
			vals[idx], perCell[idx] = v, st
		}
		return nil
	})
	if err != nil {
		return nil, cellStats{}, err
	}
	// Summed in index order, so the totals are schedule-independent.
	var sum cellStats
	for _, st := range perCell {
		sum.add(st)
	}
	return vals, sum, nil
}

// retryable reports whether a measurement error is worth another attempt:
// injected transient faults and abandoned (timed-out) attempts are; logic
// errors (unknown nodes, bad configs) are not.
func retryable(err error) bool {
	return resilience.IsTransient(err) || errors.Is(err, context.DeadlineExceeded)
}

// measureCell runs one (target, node, repeat) cell (one iteration of
// Algorithm 1 line 12) with the configured retry budget: a transient
// failure or timeout backs off exponentially and tries again under an
// attempt-suffixed job name, so the retry deterministically re-rolls its
// fault and jitter draws. The returned stats are a pure function of the
// cell and the fault-plan seed.
func (c *Characterizer) measureCell(runner *fio.Runner, sc *measureScratch, name string, target, n topology.NodeID, mode Mode, rep, tid int) (float64, cellStats, error) {
	var cell *telemetry.Span
	if c.cfg.Tracer != nil {
		cell = c.cfg.Tracer.StartSpanOn(tid,
			fmt.Sprintf("measure n%d r%d", int(n), rep), "measure",
			telemetry.Int("target", int(target)), telemetry.String("mode", mode.String()),
			telemetry.Int("node", int(n)), telemetry.Int("repeat", rep))
	}
	var st cellStats
	maxAttempts := c.cfg.MaxRetries + 1
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 0; ; attempt++ {
		v, err := c.measureAttempt(runner, sc, name, target, n, mode, attempt)
		if err == nil {
			cell.SetAttr(telemetry.Int("attempts", attempt+1))
			cell.End()
			return v, st, nil
		}
		if errors.Is(err, context.DeadlineExceeded) {
			st.timeouts++
			c.cfg.Tracer.InstantOn(tid, "measure-timeout", "resilience",
				telemetry.Int("node", int(n)), telemetry.Int("repeat", rep),
				telemetry.Int("attempt", attempt))
		} else {
			st.failures++
			c.cfg.Tracer.InstantOn(tid, "measure-failure", "resilience",
				telemetry.Int("node", int(n)), telemetry.Int("repeat", rep),
				telemetry.Int("attempt", attempt))
		}
		if attempt+1 >= maxAttempts || !retryable(err) {
			cell.SetAttr(telemetry.Int("attempts", attempt+1), telemetry.String("error", "failed"))
			cell.End()
			return 0, st, fmt.Errorf("core: node %d repeat %d failed after %d attempts: %w",
				int(n), rep, attempt+1, err)
		}
		st.retries++
		if d := c.retry.Delay(attempt); d > 0 {
			<-c.cfg.Clock.After(d)
		}
	}
}

// measureAttempt runs the memcpy engine once. The job name carries the
// full cell coordinates (plus the attempt number on retries), so the
// jitter and fault draws — and therefore the measured value — are a pure
// function of the cell, independent of which worker runs it. The job rides
// in the worker's scratch and the runner's aggregate-only path, so a clean
// attempt allocates nothing.
func (c *Characterizer) measureAttempt(runner *fio.Runner, sc *measureScratch, name string, target, n topology.NodeID, mode Mode, attempt int) (float64, error) {
	sc.src, sc.dst = n, target // device write: read from node i, store at target
	if mode == ModeRead {
		sc.src, sc.dst = target, n // device read: read at target, store to node i
	}
	if attempt > 0 {
		// Retries re-roll their draws under an attempt-suffixed name; the
		// rare path keeps the Sprintf.
		name = fmt.Sprintf("%s-a%d", name, attempt)
	}
	sc.jobs[0].Name = name
	ctx := context.Background()
	if c.cfg.MeasureTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = resilience.ContextWithTimeout(ctx, c.cfg.Clock, c.cfg.MeasureTimeout)
		defer cancel()
	}
	agg, err := runner.RunAggregate(ctx, sc.jobs[:])
	if err != nil {
		return 0, err
	}
	return float64(agg), nil
}

// rejectOutliers drops the values whose modified z-score against the
// median — 0.6745*|v-median|/MAD — exceeds the cutoff, preserving the
// order of the survivors (so the mean accumulates exactly like the serial
// loop). A zero MAD (at least half the repeats identical) keeps everything.
func rejectOutliers(vals []float64, cutoff float64) ([]float64, int) {
	if len(vals) < 3 {
		return vals, 0
	}
	med := median(vals)
	devs := make([]float64, len(vals))
	for i, v := range vals {
		devs[i] = math.Abs(v - med)
	}
	mad := median(devs)
	if mad == 0 {
		return vals, 0
	}
	kept := make([]float64, 0, len(vals))
	for _, v := range vals {
		if 0.6745*math.Abs(v-med)/mad <= cutoff {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		// Degenerate spread: keep the medianmost value rather than nothing.
		return []float64{med}, len(vals) - 1
	}
	return kept, len(vals) - len(kept)
}

// median returns the middle value (mean of the middle two for even
// lengths) without mutating vals.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// meanStddev averages the repeats of one cell row (Algorithm 1 line 12)
// and reports the sample spread. Accumulation runs in repeat order so the
// floats match the original serial loop bit for bit.
func meanStddev(vals []float64) (units.Bandwidth, units.Bandwidth) {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	var sq float64
	for _, v := range vals {
		sq += (v - mean) * (v - mean)
	}
	var sd float64
	if len(vals) > 1 {
		sd = math.Sqrt(sq / float64(len(vals)-1))
	}
	return units.Bandwidth(mean), units.Bandwidth(sd)
}

// Classify groups per-node bandwidths into performance classes. Following
// Sec. V-A, the target and its package neighbours always form class 1; the
// remote nodes are sorted by bandwidth and split wherever consecutive
// values gap by more than gapThreshold times the remote spread.
func Classify(m *topology.Machine, target topology.NodeID, samples []Sample, gapThreshold float64) ([]Class, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: no samples to classify")
	}
	byNode := make(map[topology.NodeID]units.Bandwidth, len(samples))
	for _, s := range samples {
		if _, ok := m.Node(s.Node); !ok {
			return nil, fmt.Errorf("core: sample for unknown node %d", int(s.Node))
		}
		if _, dup := byNode[s.Node]; dup {
			return nil, fmt.Errorf("core: duplicate sample for node %d", int(s.Node))
		}
		if s.Bandwidth <= 0 {
			return nil, fmt.Errorf("core: nonpositive bandwidth for node %d", int(s.Node))
		}
		byNode[s.Node] = s.Bandwidth
	}
	if _, ok := byNode[target]; !ok {
		return nil, fmt.Errorf("core: samples missing target node %d", int(target))
	}

	var first []Sample
	var remotes []Sample
	for _, s := range samples {
		if s.Node == target || m.Neighbors(target, s.Node) {
			first = append(first, s)
		} else {
			remotes = append(remotes, s)
		}
	}
	classes := []Class{newClass(1, first)}

	if len(remotes) > 0 {
		sort.Slice(remotes, func(i, j int) bool {
			if remotes[i].Bandwidth != remotes[j].Bandwidth {
				return remotes[i].Bandwidth > remotes[j].Bandwidth
			}
			return remotes[i].Node < remotes[j].Node
		})
		spread := float64(remotes[0].Bandwidth - remotes[len(remotes)-1].Bandwidth)
		cur := []Sample{remotes[0]}
		for i := 1; i < len(remotes); i++ {
			gap := float64(remotes[i-1].Bandwidth - remotes[i].Bandwidth)
			if spread > 0 && gap > gapThreshold*spread {
				classes = append(classes, newClass(len(classes)+1, cur))
				cur = nil
			}
			cur = append(cur, remotes[i])
		}
		classes = append(classes, newClass(len(classes)+1, cur))
	}
	return classes, nil
}

func newClass(rank int, samples []Sample) Class {
	c := Class{Rank: rank}
	var sum float64
	for i, s := range samples {
		c.Nodes = append(c.Nodes, s.Node)
		if i == 0 || s.Bandwidth < c.Min {
			c.Min = s.Bandwidth
		}
		if s.Bandwidth > c.Max {
			c.Max = s.Bandwidth
		}
		sum += float64(s.Bandwidth)
	}
	sort.Slice(c.Nodes, func(i, j int) bool { return c.Nodes[i] < c.Nodes[j] })
	if len(samples) > 0 {
		c.Avg = units.Bandwidth(sum / float64(len(samples)))
	}
	return c
}

// ClassOf returns the class containing the node.
func (m *Model) ClassOf(n topology.NodeID) (Class, error) {
	for _, c := range m.Classes {
		for _, id := range c.Nodes {
			if id == n {
				return c, nil
			}
		}
	}
	return Class{}, fmt.Errorf("core: node %d not in model", int(n))
}

// SampleOf returns the measured bandwidth of a node.
func (m *Model) SampleOf(n topology.NodeID) (units.Bandwidth, error) {
	for _, s := range m.Samples {
		if s.Node == n {
			return s.Bandwidth, nil
		}
	}
	return 0, fmt.Errorf("core: node %d not in model", int(n))
}

// NumClasses returns the number of performance classes.
func (m *Model) NumClasses() int { return len(m.Classes) }

// RepresentativeNodes returns one node per class (the lowest ID): to
// characterize actual I/O hardware it suffices to benchmark these nodes,
// the cost reduction of Sec. V-B.
func (m *Model) RepresentativeNodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(m.Classes))
	for _, c := range m.Classes {
		if len(c.Nodes) > 0 {
			out = append(out, c.Nodes[0])
		}
	}
	return out
}

// CostReduction is the fraction of benchmark runs saved by testing one node
// per class instead of every node (50% in the paper's Table V example).
func (m *Model) CostReduction() float64 {
	if len(m.Samples) == 0 {
		return 0
	}
	return 1 - float64(len(m.Classes))/float64(len(m.Samples))
}
