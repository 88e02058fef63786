// Hot-path microbenchmarks: the characterization sweep (Algorithm 1), the
// fluid transfer executor and the fabric solver. scripts/bench.sh runs these
// with a fixed -benchtime and records the results as BENCH_<rev>.json so the
// speedup trajectory is pinned across revisions (see docs/PERFORMANCE.md).
package numaio

import (
	"fmt"
	"testing"

	"numaio/internal/core"
	"numaio/internal/fabric"
	"numaio/internal/numa"
	"numaio/internal/simhost"
	"numaio/internal/topology"
	"numaio/internal/units"
)

// benchSystem boots a fresh simulated DL585 G7 (the 8-node reference
// machine).
func benchSystem(b *testing.B) *numa.System {
	b.Helper()
	sys, err := numa.NewSystem(topology.DL585G7())
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkCharacterize runs Algorithm 1 for one target and mode.
func BenchmarkCharacterize(b *testing.B) {
	sys := benchSystem(b)
	c, err := core.NewCharacterizer(sys, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Characterize(7, core.ModeWrite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeAll runs the whole-host sweep (targets × modes ×
// nodes × repeats) at increasing worker-pool widths. The sub-benchmark at
// p1 is the serial reference; wall-clock gains above it require free cores,
// while the fast-path gains (cached resources and routes, reused solver)
// show at every width.
func BenchmarkCharacterizeAll(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			sys := benchSystem(b)
			c, err := core.NewCharacterizer(sys, core.Config{Parallelism: p})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.CharacterizeAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWhatif is one /v1/whatif characterization of the mutant as the
// daemon runs it: clone DL585 G7, degrade node0<->node7 to 0.35 (the A5
// change), boot a system and sweep the whole host at parallelism 4 —
// fresh, and with the base machine's model as Config.Base, which copies
// every sample the change cannot reach. scripts/bench.sh -check gates
// reuse against fresh within one run.
func BenchmarkWhatif(b *testing.B) {
	base := topology.DL585G7()
	baseSys, err := numa.NewSystem(base)
	if err != nil {
		b.Fatal(err)
	}
	bc, err := core.NewCharacterizer(baseSys, core.Config{Parallelism: 4})
	if err != nil {
		b.Fatal(err)
	}
	baseMM, err := bc.CharacterizeAll()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		base *core.Base
	}{
		{"fresh", nil},
		{"reuse", &core.Base{Machine: base, Model: baseMM}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mutant := base.Clone()
				if err := mutant.DegradeLinkBetween("node0", "node7", 0.35); err != nil {
					b.Fatal(err)
				}
				sys, err := numa.NewSystem(mutant)
				if err != nil {
					b.Fatal(err)
				}
				c, err := core.NewCharacterizer(sys, core.Config{Parallelism: 4, Base: tc.base})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.CharacterizeAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchTransfers builds a 32-transfer fluid workload over the DL585G7
// fabric: four copy streams from every node into node 7.
func benchTransfers(b *testing.B, m *topology.Machine) ([]fabric.Resource, []simhost.Transfer) {
	b.Helper()
	resources := fabric.MachineResources(m)
	var transfers []simhost.Transfer
	for n := topology.NodeID(0); n < 8; n++ {
		usages, err := fabric.CopyFlowUsages(m, n, 7)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			transfers = append(transfers, simhost.Transfer{
				ID:     fmt.Sprintf("t%d-%d", int(n), k),
				Bytes:  units.Size(1+int(n)) * units.GiB, // staggered completions
				Usages: usages,
			})
		}
	}
	return resources, transfers
}

// BenchmarkRunFluid measures the fluid executor: 32 staggered transfers,
// eight completion phases.
func BenchmarkRunFluid(b *testing.B) {
	m := topology.DL585G7()
	resources, transfers := benchTransfers(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simhost.RunFluid(resources, transfers, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver measures one max-min fair solve of 32 flows (the inner
// loop of every fluid phase): "fresh" pays full solver construction each
// round, "reused" keeps the resource table and Resets the flows — the
// pattern the fluid executor and the fio runner now use.
func BenchmarkSolver(b *testing.B) {
	m := topology.DL585G7()
	resources := fabric.MachineResources(m)
	var flows []fabric.Flow
	for n := topology.NodeID(0); n < 8; n++ {
		usages, err := fabric.CopyFlowUsages(m, n, 7)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			flows = append(flows, fabric.Flow{ID: fmt.Sprintf("f%d-%d", int(n), k), Usages: usages})
		}
	}
	addAndSolve := func(b *testing.B, s *fabric.Solver) {
		for _, f := range flows {
			if err := s.AddFlow(f); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := fabric.NewSolver()
			for _, r := range resources {
				if err := s.SetResource(r); err != nil {
					b.Fatal(err)
				}
			}
			addAndSolve(b, s)
		}
	})
	b.Run("reused", func(b *testing.B) {
		s := fabric.NewSolver()
		for _, r := range resources {
			if err := s.SetResource(r); err != nil {
				b.Fatal(err)
			}
		}
		addAndSolve(b, s) // grow the scratch once, so any b.N reads steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			addAndSolve(b, s)
		}
	})
}
