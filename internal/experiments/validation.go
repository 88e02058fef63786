package experiments

import (
	"fmt"
	"math"

	"numaio/internal/blocksim"
	"numaio/internal/core"
	"numaio/internal/fabric"
	"numaio/internal/report"
	"numaio/internal/simhost"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// CrossValRow compares the two simulators for one transfer.
type CrossValRow struct {
	ID     string
	Fluid  units.Bandwidth
	Blocks units.Bandwidth
	RelErr float64
}

// CrossValResult is experiment V1: agreement between the analytic fluid
// model and the discrete block-level simulation on a contended scenario.
type CrossValResult struct {
	Rows      []CrossValRow
	MaxRelErr float64
}

// Validation runs four concurrent copies toward node 7 (two per source
// class) through both simulators and compares per-transfer rates.
func (l *Lab) Validation() (*CrossValResult, error) {
	m := l.Sys.Machine()
	resources := fabric.MachineResources(m)
	srcs := []topology.NodeID{0, 1, 2, 6}

	var fluidTr []simhost.Transfer
	var blockTr []blocksim.Transfer
	for i, src := range srcs {
		usages, err := fabric.CopyFlowUsages(m, src, Target)
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("copy-n%d-%d", int(src), i)
		fluidTr = append(fluidTr, simhost.Transfer{ID: id, Bytes: 256 * units.MiB, Usages: usages})
		blockTr = append(blockTr, blocksim.Transfer{
			ID: id, Bytes: 256 * units.MiB, Stages: blocksim.FromUsages(usages), Window: 8,
		})
	}

	fluid, err := simhost.RunFluid(resources, fluidTr, nil, 0)
	if err != nil {
		return nil, err
	}
	blocks, err := blocksim.Run(resources, blockTr, blocksim.Config{})
	if err != nil {
		return nil, err
	}

	out := &CrossValResult{}
	for i, tr := range fluidTr {
		f := fluid.Transfers[i].InitialRate
		b := blocks[tr.ID].Throughput
		rel := math.Abs(float64(f-b)) / float64(f)
		out.Rows = append(out.Rows, CrossValRow{ID: tr.ID, Fluid: f, Blocks: b, RelErr: rel})
		if rel > out.MaxRelErr {
			out.MaxRelErr = rel
		}
	}
	return out, nil
}

// Table renders experiment V1.
func (r *CrossValResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("V1 — fluid model vs block-level simulation (max deviation %.0f%%)", r.MaxRelErr*100),
		"transfer", "fluid Gb/s", "block-sim Gb/s", "deviation")
	for _, row := range r.Rows {
		t.AddRow(row.ID, report.Gbps2(row.Fluid), report.Gbps2(row.Blocks),
			fmt.Sprintf("%.1f%%", row.RelErr*100))
	}
	return t
}

// ThresholdRow is one gap-threshold setting of ablation A6.
type ThresholdRow struct {
	Threshold    float64
	WriteClasses int
	ReadClasses  int
}

// ThresholdResult is ablation A6: how the classification reacts to the gap
// threshold, the one free parameter of the clustering.
type ThresholdResult struct {
	Rows []ThresholdRow
	// StableRange is the widest contiguous run of thresholds that yields
	// the paper's class counts (3 write, 4 read).
	StableLo, StableHi float64
}

// AblationGapThreshold sweeps the classification threshold.
func (l *Lab) AblationGapThreshold() (*ThresholdResult, error) {
	write, err := l.characterize(core.ModeWrite)
	if err != nil {
		return nil, err
	}
	read, err := l.characterize(core.ModeRead)
	if err != nil {
		return nil, err
	}
	m := l.Sys.Machine()
	out := &ThresholdResult{}
	inStable := false
	for _, th := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50} {
		wc, err := core.Classify(m, Target, write.Samples, th)
		if err != nil {
			return nil, err
		}
		rc, err := core.Classify(m, Target, read.Samples, th)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ThresholdRow{
			Threshold: th, WriteClasses: len(wc), ReadClasses: len(rc),
		})
		stable := len(wc) == 3 && len(rc) == 4
		if stable && !inStable {
			out.StableLo, inStable = th, true
		}
		if stable {
			out.StableHi = th
		} else if inStable && out.StableHi > 0 {
			inStable = false
		}
	}
	return out, nil
}

// Table renders ablation A6.
func (r *ThresholdResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Ablation A6 — gap-threshold sensitivity (paper's class counts stable over [%.2f, %.2f])",
			r.StableLo, r.StableHi),
		"threshold", "write classes", "read classes")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2f", row.Threshold),
			fmt.Sprintf("%d", row.WriteClasses), fmt.Sprintf("%d", row.ReadClasses))
	}
	return t
}
