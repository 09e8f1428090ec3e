// Quickstart: build a small heterogeneous platform by hand, place two
// services with METAHVPLIGHT, and inspect the resulting yields.
//
// This is the paper's Figure 1 example extended with a second service, run
// end-to-end through the public API.
package main

import (
	"fmt"
	"os"

	"vmalloc"
)

func main() {
	p := &vmalloc.Problem{
		Nodes: []vmalloc.Node{
			// Node A: four 0.8-capacity cores, large memory.
			{Name: "A", Elementary: vmalloc.Of(0.8, 1.0), Aggregate: vmalloc.Of(3.2, 1.0)},
			// Node B: two full-speed cores, small memory.
			{Name: "B", Elementary: vmalloc.Of(1.0, 0.5), Aggregate: vmalloc.Of(2.0, 0.5)},
		},
		Services: []vmalloc.Service{
			{
				// Two threads that must each saturate half a core, and can
				// each use a whole core at full performance.
				Name:    "web-frontend",
				ReqElem: vmalloc.Of(0.5, 0.5), ReqAgg: vmalloc.Of(1.0, 0.5),
				NeedElem: vmalloc.Of(0.5, 0.0), NeedAgg: vmalloc.Of(1.0, 0.0),
			},
			{
				// A single-threaded batch job with a modest footprint.
				Name:    "batch-worker",
				ReqElem: vmalloc.Of(0.1, 0.3), ReqAgg: vmalloc.Of(0.1, 0.3),
				NeedElem: vmalloc.Of(0.6, 0.0), NeedAgg: vmalloc.Of(0.6, 0.0),
			},
		},
	}

	res, err := vmalloc.Solve(vmalloc.AlgoMetaHVPLight, p, nil)
	if err != nil {
		fatal(err)
	}
	if !res.Solved {
		fatal("no feasible placement")
	}

	fmt.Printf("minimum yield: %.3f\n", res.MinYield)
	for j, h := range res.Placement {
		fmt.Printf("  %-14s -> node %-2s (yield %.3f)\n",
			p.Services[j].Name, p.Nodes[h].Name, res.Yields[j])
	}

	// The LP relaxation bounds how much better any placement could be.
	if ub, err := vmalloc.RelaxedUpperBound(p); err == nil {
		fmt.Printf("LP upper bound: %.3f\n", ub)
	}

	// For an instance this small the exact optimum, a search over every
	// placement, is cheap.
	exact, err := vmalloc.Solve(vmalloc.AlgoExact, p, nil)
	if err == nil && exact.Solved {
		fmt.Printf("exact optimum:  %.3f\n", exact.MinYield)
	}
}

// fatal reports err on stderr and exits nonzero; examples avoid the global
// log package, which the slogonly analyzer confines to cmd/.
func fatal(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(1)
}
