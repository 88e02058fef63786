// Command numademo mirrors the numademo benchmark (Sec. II-B) on the
// simulated host, extended — exactly as the paper does (Sec. V-B) — with the
// iomodel test module implementing Algorithm 1.
//
// Modules:
//
//	memcpy   copy bandwidth between every node pair (DMA semantics)
//	memset   write-only bandwidth matrix (the numademo memset module)
//	stream   STREAM Copy matrix (PIO semantics, Fig. 3)
//	policies STREAM under local / remote / interleave affinity policies
//	iomodel  the proposed I/O model of a target node (Fig. 10, Tables IV/V)
//
// Usage:
//
//	numademo [-machine profile] [-target node] <module>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"numaio/internal/cli"
	"numaio/internal/core"
	"numaio/internal/device"
	"numaio/internal/fio"
	"numaio/internal/numa"
	"numaio/internal/report"
	"numaio/internal/stream"
	"numaio/internal/topology"
	"numaio/internal/units"
)

func main() {
	os.Exit(cli.Main("numademo", run(os.Args[1:], os.Stdout)))
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("numademo", flag.ContinueOnError)
	machine := fs.String("machine", "dl585g7", "machine profile")
	target := fs.Int("target", 7, "target node for the iomodel module")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("usage: numademo [flags] <memcpy|memset|stream|policies|iomodel>")
	}

	m, err := cli.Machine(*machine)
	if err != nil {
		return err
	}
	sys, err := numa.NewSystem(m)
	if err != nil {
		return err
	}

	switch fs.Arg(0) {
	case "memcpy":
		return demoMemcpy(sys, out)
	case "memset":
		return demoMemset(sys, out)
	case "stream":
		return demoStream(sys, out)
	case "policies":
		return demoPolicies(sys, out)
	case "iomodel":
		return demoIOModel(sys, topology.NodeID(*target), out)
	default:
		return fmt.Errorf("unknown module %q", fs.Arg(0))
	}
}

// demoMemset prints the write-only (memset) bandwidth matrix.
func demoMemset(sys *numa.System, out io.Writer) error {
	r, err := stream.New(sys, stream.Config{Kernel: stream.Fill})
	if err != nil {
		return err
	}
	mx, err := r.Matrix()
	if err != nil {
		return err
	}
	headers := []string{"CPU\\MEM"}
	for _, n := range mx.Nodes {
		headers = append(headers, fmt.Sprintf("%d", int(n)))
	}
	t := report.NewTable("memset bandwidth matrix (Gb/s)", headers...)
	for i, cpu := range mx.Nodes {
		row := []string{fmt.Sprintf("%d", int(cpu))}
		for j := range mx.Nodes {
			row = append(row, report.Gbps2(mx.BW[i][j]))
		}
		t.AddRow(row...)
	}
	_, err = fmt.Fprint(out, t.Render())
	return err
}

// demoPolicies compares the numademo affinity policies (local, remote,
// interleave) per CPU node.
func demoPolicies(sys *numa.System, out io.Writer) error {
	r, err := stream.New(sys, stream.Config{})
	if err != nil {
		return err
	}
	t := report.NewTable("STREAM Copy under affinity policies (Gb/s)",
		"CPU node", "local", "best remote", "worst remote", "interleave")
	for _, cpu := range sys.Machine().NodeIDs() {
		cmp, err := r.ComparePolicies(cpu)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", int(cpu)),
			report.Gbps2(cmp.Local), report.Gbps2(cmp.BestRemote),
			report.Gbps2(cmp.WorstRemote), report.Gbps2(cmp.Interleaved))
	}
	_, err = fmt.Fprint(out, t.Render())
	return err
}

// demoMemcpy prints the node-pair copy bandwidth matrix with DMA semantics.
func demoMemcpy(sys *numa.System, out io.Writer) error {
	runner := fio.NewRunner(sys)
	ids := sys.Machine().NodeIDs()
	headers := []string{"SRC\\DST"}
	for _, n := range ids {
		headers = append(headers, fmt.Sprintf("%d", int(n)))
	}
	t := report.NewTable("memcpy bandwidth matrix (4 threads, Gb/s)", headers...)
	for _, src := range ids {
		row := []string{fmt.Sprintf("%d", int(src))}
		for _, dst := range ids {
			s, d := src, dst
			rep, err := runner.Run([]fio.Job{{
				Name: fmt.Sprintf("demo-%d-%d", int(src), int(dst)), Engine: device.EngineMemcpy,
				Node: dst, NumJobs: 4, Size: 2 * units.GiB, SrcNode: &s, DstNode: &d,
			}})
			if err != nil {
				return err
			}
			row = append(row, report.Gbps2(rep.Aggregate))
		}
		t.AddRow(row...)
	}
	_, err := fmt.Fprint(out, t.Render())
	return err
}

// demoStream prints the STREAM Copy matrix (Fig. 3).
func demoStream(sys *numa.System, out io.Writer) error {
	r, err := stream.New(sys, stream.Config{})
	if err != nil {
		return err
	}
	mx, err := r.Matrix()
	if err != nil {
		return err
	}
	headers := []string{"CPU\\MEM"}
	for _, n := range mx.Nodes {
		headers = append(headers, fmt.Sprintf("%d", int(n)))
	}
	t := report.NewTable("STREAM Copy bandwidth matrix (Gb/s)", headers...)
	for i, cpu := range mx.Nodes {
		row := []string{fmt.Sprintf("%d", int(cpu))}
		for j := range mx.Nodes {
			row = append(row, report.Gbps2(mx.BW[i][j]))
		}
		t.AddRow(row...)
	}
	_, err = fmt.Fprint(out, t.Render())
	return err
}

// demoIOModel runs Algorithm 1 in both directions and prints the classified
// models.
func demoIOModel(sys *numa.System, target topology.NodeID, out io.Writer) error {
	c, err := core.NewCharacterizer(sys, core.Config{})
	if err != nil {
		return err
	}
	for _, mode := range []core.Mode{core.ModeWrite, core.ModeRead} {
		model, err := c.Characterize(target, mode)
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("iomodel: device %s model of node %d", mode, int(target)),
			"class", "nodes", "range (Gb/s)", "avg (Gb/s)")
		for _, cls := range model.Classes {
			nodes := ""
			for i, n := range cls.Nodes {
				if i > 0 {
					nodes += ","
				}
				nodes += fmt.Sprintf("%d", int(n))
			}
			t.AddRow(fmt.Sprintf("%d", cls.Rank), nodes,
				report.Range(cls.Min, cls.Max), report.Gbps(cls.Avg))
		}
		if _, err := fmt.Fprint(out, t.Render()); err != nil {
			return err
		}
		var chart report.BarChart
		for _, smp := range model.Samples {
			chart.Add(fmt.Sprintf("node%d", int(smp.Node)), smp.Bandwidth)
		}
		rendered, err := chart.Render()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprint(out, rendered); err != nil {
			return err
		}
		fmt.Fprintf(out, "cost reduction: %.0f%% (test %d of %d nodes)\n\n",
			model.CostReduction()*100, model.NumClasses(), len(model.Samples))
	}
	return nil
}
