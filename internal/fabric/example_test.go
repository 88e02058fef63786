package fabric_test

import (
	"fmt"
	"log"

	"numaio/internal/fabric"
	"numaio/internal/units"
)

// ExampleSolver shows the water-filling behaviour: a capped flow frees
// capacity for an unbounded competitor on the shared link.
func ExampleSolver() {
	s := fabric.NewSolver()
	if err := s.SetResource(fabric.Resource{ID: "link", Capacity: 30 * units.Gbps}); err != nil {
		log.Fatal(err)
	}
	if err := s.AddFlow(fabric.Flow{ID: "capped", Demand: 5 * units.Gbps,
		Usages: []fabric.Usage{{Resource: "link", Weight: 1}}}); err != nil {
		log.Fatal(err)
	}
	if err := s.AddFlow(fabric.Flow{ID: "greedy",
		Usages: []fabric.Usage{{Resource: "link", Weight: 1}}}); err != nil {
		log.Fatal(err)
	}
	alloc, err := s.Solve()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < alloc.NumFlows(); i++ {
		fmt.Printf("%s: %.0f Gb/s\n", alloc.FlowID(i), alloc.Rate(i).Gbps())
	}
	// Output:
	// capped: 5 Gb/s
	// greedy: 25 Gb/s
}
