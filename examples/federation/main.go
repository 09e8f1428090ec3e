// Federation: three formerly independent clusters — each internally
// homogeneous but very different from one another — are federated into one
// hosting platform (the grid/sky-computing scenario from the paper's
// introduction). The example shows how heterogeneity-aware packing
// (METAHVPLIGHT) behaves as load grows, against the homogeneous METAVP.
//
// This is the offline, single-solve view of federation. The online
// equivalent is a sharded vmalloc.Cluster (vmalloc.NewShardedCluster, or
// `vmallocd -shards K`): it keeps each federated cluster as its own
// placement domain with its own engine and WAL, admits services by shard
// headroom and reallocates all domains scatter-gather — see the "Sharding"
// section of the README and `cmd/experiments -exp sharded`.
package main

import (
	"fmt"
	"os"

	"vmalloc"
)

func main() {
	p := &vmalloc.Problem{}

	// Cluster 1: 6 older quad-core machines (slow cores, modest memory).
	addCluster(p, "old", 6, 0.10, 0.40)
	// Cluster 2: 6 mid-generation machines.
	addCluster(p, "mid", 6, 0.17, 0.60)
	// Cluster 3: 4 recent machines (fast cores, large memory).
	addCluster(p, "new", 4, 0.25, 1.00)

	fmt.Printf("federated platform: %d nodes across 3 clusters\n\n", p.NumNodes())
	fmt.Println("services   METAVP     METAHVPLIGHT   (minimum yield; '-' = allocation failed)")

	for _, j := range []int{20, 40, 60, 80, 100, 120} {
		q := p.Clone()
		addServices(q, j)

		row := fmt.Sprintf("%8d", j)
		for _, algo := range []string{vmalloc.AlgoMetaVP, vmalloc.AlgoMetaHVPLight} {
			res, err := vmalloc.Solve(algo, q, nil)
			if err != nil {
				fatal(err)
			}
			if res.Solved {
				row += fmt.Sprintf("   %.4f", res.MinYield)
			} else {
				row += "        -"
			}
		}
		fmt.Println(row)
	}
}

// addCluster appends n identical quad-core nodes with the given per-core
// speed and memory size.
func addCluster(p *vmalloc.Problem, name string, n int, coreSpeed, mem float64) {
	for i := 0; i < n; i++ {
		p.Nodes = append(p.Nodes, vmalloc.Node{
			Name:       fmt.Sprintf("%s-%d", name, i),
			Elementary: vmalloc.Of(coreSpeed, mem),
			Aggregate:  vmalloc.Of(4*coreSpeed, mem),
		})
	}
}

// addServices appends j services with a simple deterministic mix of
// single-core and dual-core jobs.
func addServices(p *vmalloc.Problem, j int) {
	for i := 0; i < j; i++ {
		cores := 1 + i%2 // alternate 1- and 2-core services
		perCore := 0.12
		mem := 0.05 + 0.01*float64(i%5)
		p.Services = append(p.Services, vmalloc.Service{
			Name:    fmt.Sprintf("svc-%d", i),
			ReqElem: vmalloc.Of(0.001, mem), ReqAgg: vmalloc.Of(0.001, mem),
			NeedElem: vmalloc.Of(perCore, 0),
			NeedAgg:  vmalloc.Of(perCore*float64(cores), 0),
		})
	}
}

// fatal reports err on stderr and exits nonzero; examples avoid the global
// log package, which the slogonly analyzer confines to cmd/.
func fatal(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(1)
}
