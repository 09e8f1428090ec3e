package vmalloc

import (
	"fmt"
	"math/rand"
	"sort"

	"vmalloc/internal/core"
	"vmalloc/internal/greedy"
	"vmalloc/internal/hvp"
	"vmalloc/internal/milp"
	"vmalloc/internal/opt"
	"vmalloc/internal/relax"
	"vmalloc/internal/sched"
	"vmalloc/internal/vp"
	"vmalloc/internal/workload"
)

// Algorithm names accepted by Solve.
const (
	// AlgoExact solves the MILP by branch and bound (small instances only).
	AlgoExact = "EXACT"
	// AlgoRRND is randomized rounding of the rational relaxation (§3.3.1).
	AlgoRRND = "RRND"
	// AlgoRRNZ is randomized rounding with epsilon-floored probabilities
	// (§3.3.2).
	AlgoRRNZ = "RRNZ"
	// AlgoMetaGreedy runs all 49 greedy algorithms and keeps the best
	// solution (§3.4).
	AlgoMetaGreedy = "METAGREEDY"
	// AlgoMetaVP runs the 33 homogeneous vector-packing strategies inside
	// the yield binary search (§3.5.3).
	AlgoMetaVP = "METAVP"
	// AlgoMetaHVP runs all 253 heterogeneous vector-packing strategies
	// (§3.5.5).
	AlgoMetaHVP = "METAHVP"
	// AlgoMetaHVPLight runs the engineered 60-strategy subset (§5.1).
	AlgoMetaHVPLight = "METAHVPLIGHT"
)

// Options tunes Solve.
type Options struct {
	// Tolerance is the yield binary-search tolerance for packing-based
	// algorithms; <= 0 selects the paper's 1e-4.
	Tolerance float64
	// Seed drives the randomized-rounding algorithms; ignored otherwise.
	Seed int64
	// Attempts caps rounding retries for RRND/RRNZ; <= 0 selects 20.
	Attempts int
	// MaxNodes caps branch-and-bound nodes for EXACT; <= 0 selects 100000.
	MaxNodes int
}

func (o *Options) attempts() int {
	if o == nil || o.Attempts <= 0 {
		return 20
	}
	return o.Attempts
}

func (o *Options) tol() float64 {
	if o == nil {
		return 0
	}
	return o.Tolerance
}

func (o *Options) seed() int64 {
	if o == nil {
		return 1
	}
	return o.Seed
}

// Algorithms returns the registered algorithm names in display order.
func Algorithms() []string {
	names := []string{AlgoExact, AlgoRRND, AlgoRRNZ, AlgoMetaGreedy, AlgoMetaVP, AlgoMetaHVP, AlgoMetaHVPLight}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	return names
}

// Solve runs the named algorithm on p. A nil opts selects paper defaults.
// The returned result has Solved=false when the algorithm cannot place all
// services (this is an outcome, not an error); errors indicate invalid input
// or solver breakdown. Every algorithm runs sequentially, so the same input
// and options always return the same placement.
func Solve(name string, p *Problem, opts *Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch name {
	case AlgoExact:
		var mo *milp.Options
		if opts != nil && opts.MaxNodes > 0 {
			mo = &milp.Options{MaxNodes: opts.MaxNodes}
		}
		return relax.SolveExact(p, mo)
	case AlgoRRND, AlgoRRNZ:
		rel, err := relax.SolveRelaxed(p)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(opts.seed()))
		if name == AlgoRRND {
			return relax.RRND(p, rel, opts.attempts(), rng), nil
		}
		return relax.RRNZ(p, rel, opts.attempts(), rng), nil
	case AlgoMetaGreedy:
		return greedy.MetaGreedy(p, false), nil
	case AlgoMetaVP:
		return vp.MetaVP(p, opts.tol()), nil
	case AlgoMetaHVP:
		return hvp.MetaHVP(p, opts.tol()), nil
	case AlgoMetaHVPLight:
		return hvp.MetaHVPLight(p, opts.tol()), nil
	default:
		return nil, fmt.Errorf("vmalloc: unknown algorithm %q (known: %v)", name, Algorithms())
	}
}

// RelaxedUpperBound returns the rational relaxation's optimal minimum yield,
// an upper bound on every feasible solution, or -1 when the instance is
// infeasible even fractionally.
func RelaxedUpperBound(p *Problem) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return relax.UpperBound(p)
}

// SchedPolicy selects a §6 CPU-sharing policy.
type SchedPolicy = sched.Policy

// Re-exported scheduling policies.
const (
	PolicyAllocCaps    = sched.AllocCaps
	PolicyAllocWeights = sched.AllocWeights
	PolicyEqualWeights = sched.EqualWeights
)

// EvaluateWithErrors computes the minimum achieved yield when the placement
// pl — computed from the estimates in est — runs against the true CPU needs
// in trueP under the given policy. cpuDim selects the CPU dimension
// (workload-generated problems use dimension 0).
func EvaluateWithErrors(trueP, est *Problem, pl Placement, policy SchedPolicy, cpuDim int) float64 {
	return sched.EvaluatePlacement(trueP, est, pl, policy, cpuDim)
}

// PerturbCPUNeeds returns an estimated copy of p whose aggregate CPU needs
// are shifted by uniform errors within ±maxErr (§6.2).
func PerturbCPUNeeds(p *Problem, maxErr float64, seed int64) *Problem {
	return workload.PerturbCPUNeeds(p, maxErr, rand.New(rand.NewSource(seed)))
}

// ApplyThreshold rounds every estimated CPU need up to at least threshold,
// the paper's mitigation strategy for bounded estimate errors.
func ApplyThreshold(est *Problem, cpuDim int, threshold float64) *Problem {
	return sched.ApplyThreshold(est, cpuDim, threshold)
}

// ZeroKnowledgePlacement spreads services evenly across feasible nodes, the
// baseline used when nothing is known about CPU needs.
func ZeroKnowledgePlacement(p *Problem) Placement {
	return sched.ZeroKnowledgePlacement(p)
}

// FeasibleAtYield reports whether the placement supports a uniform yield of
// at least y on every node.
func FeasibleAtYield(p *Problem, pl Placement, y float64) bool {
	return core.FeasibleAtYield(p, pl, y)
}

// Improve hill-climbs from a solved placement over single-service moves and
// pairwise swaps, never decreasing the minimum yield. Useful as a cheap
// post-pass after any Solve call.
func Improve(p *Problem, pl Placement) *Result {
	return opt.Improve(p, pl, nil)
}

// Repair adapts a previous placement to a changed workload: still-feasible
// services stay put, new or displaced services are re-placed by best fit,
// and at most budget previously-placed services move (negative = unlimited).
func Repair(p *Problem, prev Placement, budget int) *Result {
	return opt.Repair(p, prev, &opt.RepairOptions{Budget: budget, Improve: true})
}

// Migrations counts services whose node changed from prev to next (new
// arrivals, unplaced in prev, do not count).
func Migrations(prev, next Placement) int { return opt.Migrations(prev, next) }

// Materialize converts a solved result into explicit per-service allocation
// vectors (the §2 ordered pairs) with capacity checking available via
// Allocation.Check.
func Materialize(p *Problem, res *Result) (*Allocation, error) {
	return core.Materialize(p, res)
}

// Allocation re-exports the materialized allocation type.
type Allocation = core.Allocation
