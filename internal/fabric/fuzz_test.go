package fabric

import (
	"testing"

	"numaio/internal/topology"
	"numaio/internal/units"
)

// FuzzIncrementalOps checks that a reused solver equals a fresh one. It
// decodes an arbitrary byte string into an add/remove/retune/solve op
// sequence against the DL585 G7 fabric and checks, at every solve and at the
// end, that the reused solver's allocation is bit-identical to a solver
// rebuilt from scratch. The seed corpus covers removals that split the
// flow/resource graph, back-to-back solves, capacity retunes, demand-frozen
// flows, interleaved add/remove bursts, batch removals and Reset rebuilds.
// `go test` runs the seeds as part of tier-1; `go test -fuzz
// FuzzIncrementalOps ./internal/fabric` explores further.
func FuzzIncrementalOps(f *testing.F) {
	const (
		opAdd     = 0 // + src, dst, demand selector
		opRemove  = 1 // + index selector
		opSolve   = 2
		opRetune  = 3 // + resource selector, factor selector
		opBatch   = 4 // + count selector, count index selectors (RemoveFlowsAt)
		opRebuild = 5 // Reset, then re-add every flow in order
		opModulus = 6
	)
	f.Add([]byte{opAdd, 0, 7, 0, opAdd, 3, 7, 0, opSolve, opRemove, 0, opSolve})
	f.Add([]byte{opAdd, 0, 0, 0, opAdd, 1, 1, 0, opAdd, 2, 2, 0, opSolve, opRemove, 1, opSolve, opSolve})
	f.Add([]byte{opAdd, 0, 3, 1, opAdd, 3, 0, 2, opSolve, opRetune, 5, 1, opSolve})
	f.Add([]byte{opAdd, 4, 5, 0, opAdd, 5, 6, 0, opAdd, 6, 7, 0, opSolve, opRemove, 1, opSolve, opAdd, 1, 2, 3, opSolve})
	f.Add([]byte{opSolve, opAdd, 7, 0, 0, opSolve, opRemove, 0, opSolve, opSolve})
	f.Add([]byte{
		opAdd, 0, 7, 0, opAdd, 1, 7, 0, opAdd, 2, 7, 0, opAdd, 3, 7, 0,
		opSolve, opRetune, 0, 0, opRemove, 2, opSolve, opRemove, 0, opRemove, 0, opSolve,
	})
	// Batch removal compacting a solved table, mid-run and to empty.
	f.Add([]byte{
		opAdd, 0, 7, 0, opAdd, 1, 7, 0, opAdd, 2, 7, 0, opAdd, 3, 7, 0,
		opSolve, opBatch, 2, 0, 2, opSolve, opBatch, 2, 0, 1, opSolve,
	})
	// Reset-and-re-add round trips: solved and unsolved tables, plus a
	// retune between rebuilds.
	f.Add([]byte{opAdd, 0, 7, 0, opAdd, 5, 2, 1, opSolve, opRebuild, opSolve, opRebuild, opRetune, 3, 2, opSolve})
	f.Add([]byte{opAdd, 2, 2, 0, opRebuild, opSolve, opRemove, 0, opSolve})

	machine := topology.DL585G7()
	nodes := machine.NodeIDs()
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := newIncrementalHarness(t, MachineResources(machine))
		const maxFlows = 24
		solves := 0
		for pc := 0; pc < len(ops) && solves < 64; {
			switch ops[pc] % opModulus {
			case opAdd:
				if pc+3 >= len(ops) || len(h.flows) >= maxFlows {
					pc++
					continue
				}
				src := nodes[int(ops[pc+1])%len(nodes)]
				dst := nodes[int(ops[pc+2])%len(nodes)]
				usages, err := CopyFlowUsages(machine, src, dst)
				if err != nil {
					t.Fatal(err)
				}
				fl := Flow{Usages: usages}
				if d := ops[pc+3] % 8; d > 0 {
					fl.Demand = units.Bandwidth(d) * units.Gbps
				}
				h.add(t, fl)
				pc += 4
			case opRemove:
				if pc+1 >= len(ops) || len(h.flows) == 0 {
					pc++
					continue
				}
				h.removeAt(int(ops[pc+1]) % len(h.flows))
				pc += 2
			case opSolve:
				assertSameAllocation(t, "fuzz solve", h.inc, h.fresh(t))
				solves++
				pc++
			case opRetune:
				if pc+2 >= len(ops) {
					pc++
					continue
				}
				factors := []float64{0.5, 0.75, 1.5, 2}
				h.scaleResource(t, int(ops[pc+1])%len(h.resources), factors[int(ops[pc+2])%len(factors)])
				pc += 3
			case opBatch:
				if pc+1 >= len(ops) || len(h.flows) == 0 {
					pc++
					continue
				}
				k := 1 + int(ops[pc+1])%4
				if pc+1+k >= len(ops) {
					pc += 2
					continue
				}
				pick := map[int]bool{}
				for j := 0; j < k; j++ {
					pick[int(ops[pc+2+j])%len(h.flows)] = true
				}
				var idx []int32
				for i := range h.flows {
					if pick[i] {
						idx = append(idx, int32(i))
					}
				}
				h.removeBatch(idx)
				pc += 2 + k
			case opRebuild:
				if len(h.flows) > 0 {
					h.rebuildCycle(t)
				}
				pc++
			}
		}
		if len(h.flows) > 0 {
			assertSameAllocation(t, "fuzz final", h.inc, h.fresh(t))
		}
	})
}
