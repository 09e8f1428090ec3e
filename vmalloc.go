// Package vmalloc is a Go implementation of the virtual-machine resource
// allocation system of Casanova, Stillwell and Vivien, "Virtual Machine
// Resource Allocation for Service Hosting on Heterogeneous Distributed
// Platforms" (IPDPS 2012 / INRIA RR-7772).
//
// The library places services (VM instances) with rigid requirements and
// fluid needs onto heterogeneous nodes so as to maximize the minimum yield,
// the paper's fairness-plus-performance objective. It provides:
//
//   - the problem model with elementary/aggregate capacity vectors
//     (core types re-exported here);
//   - the MILP formulation with a pure-Go simplex (rational upper bounds
//     for all instances) and EXACT, a search over placements that solves
//     small instances exactly;
//   - the heuristic roster of the paper: randomized rounding (RRND, RRNZ),
//     49 greedy algorithms and METAGREEDY, homogeneous vector packing and
//     METAVP, heterogeneous vector packing with METAHVP and METAHVPLIGHT;
//   - the §6 machinery for erroneous CPU-need estimates: work-conserving
//     proportional-share scheduling, ALLOCCAPS/ALLOCWEIGHTS/EQUALWEIGHTS,
//     and the minimum-threshold mitigation strategy;
//   - workload generation following §4 and the experiment harness that
//     regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	p := &vmalloc.Problem{ ... }
//	res, err := vmalloc.Solve(vmalloc.AlgoMetaHVPLight, p)
//	if err == nil && res.Solved {
//	    fmt.Println(res.MinYield, res.Placement)
//	}
package vmalloc

import (
	"vmalloc/internal/core"
	"vmalloc/internal/vec"
	"vmalloc/internal/workload"
)

// Re-exported model types. See the internal/core documentation for details.
type (
	// Problem is a complete allocation instance: nodes plus services.
	Problem = core.Problem
	// Node is one physical host with elementary and aggregate capacities.
	Node = core.Node
	// Service is one hosted VM with requirement and need vector pairs.
	Service = core.Service
	// Placement maps each service to a node index (or Unplaced).
	Placement = core.Placement
	// Result is an algorithm outcome: placement, per-service yields, and
	// the achieved minimum yield.
	Result = core.Result
	// Vec is a resource vector (one entry per dimension).
	Vec = vec.Vec
	// Scenario describes one generated instance (paper §4 parameters).
	Scenario = workload.Scenario
)

// Unplaced marks a service without a node in a Placement.
const Unplaced = core.Unplaced

// Of builds a resource vector from values (CPU first by convention).
func Of(vals ...float64) Vec { return vec.Of(vals...) }

// Generate builds the synthetic instance for a scenario using the §4
// distributions (Google-like marginals, truncated-normal capacities).
func Generate(s Scenario) *Problem { return workload.Generate(s) }

// EvaluatePlacement computes the result implied by a fixed placement: every
// node grants its services the node's maximum uniform yield.
func EvaluatePlacement(p *Problem, pl Placement) *Result {
	return core.EvaluatePlacement(p, pl)
}

// MaxUniformYield returns the largest common yield the given services can
// have on node h, or a negative value if their requirements do not fit.
func MaxUniformYield(p *Problem, h int, services []int) float64 {
	return core.MaxUniformYield(p, h, services)
}

// LoadProblem reads and validates a problem from a JSON file.
func LoadProblem(path string) (*Problem, error) { return core.LoadFile(path) }
