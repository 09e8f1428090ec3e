// Package milp implements a best-first branch-and-bound solver for mixed
// integer linear programs whose integer variables are binary, layered on the
// pure-Go simplex in internal/lp. It provides exact optima for small
// instances of the paper's MILP (Eqs. 1–7), used both as a correctness oracle
// for the heuristics and to reproduce the §3.2 claim that the rational
// relaxation upper-bounds the mixed solution.
package milp

import (
	"errors"
	"fmt"
	"math"

	"vmalloc/internal/heapx"
	"vmalloc/internal/lp"
	"vmalloc/internal/presolve"
)

// Problem is an LP plus a set of variables restricted to {0, 1}.
type Problem struct {
	LP lp.Problem
	// Binary lists variable indices that must take value 0 or 1. Their Upper
	// bound must be >= 1 (it is tightened to 1 internally).
	Binary []int
}

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means the incumbent is proven optimal.
	Optimal Status = iota
	// Infeasible means no integral feasible point exists.
	Infeasible
	// NodeLimit means the search stopped early; the incumbent (if any) is
	// the best known feasible solution.
	NodeLimit
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Bound is the best proven upper bound on the optimum.
	Bound float64
	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int
	// Pruned is the number of open nodes discarded because their bound
	// could not beat the incumbent (before or after their relaxation
	// solved).
	Pruned int
	// HasIncumbent reports whether X/Objective hold a feasible solution.
	HasIncumbent bool
}

// Options tunes the search.
type Options struct {
	// MaxNodes caps the number of LP relaxations solved (0 = default 100000).
	MaxNodes int
	// IntTol is the integrality tolerance (0 = default 1e-6).
	IntTol float64
	// Gap is the relative optimality gap at which search stops early
	// (0 = prove exact optimality).
	Gap float64
	// DisableWarmStart turns off basis reuse between parent and child
	// nodes. Child relaxations differ from their parent only in variable
	// bounds, so by default each node is solved warm-started from its
	// parent's optimal basis (the solver falls back to a cold start when
	// the stale basis no longer fits).
	DisableWarmStart bool
	// DisablePresolve turns off per-node presolve. By default every node
	// LP is reduced before the simplex runs: branched binaries are fixed
	// purely by bound shrinking, so presolve's fixed-column and forcing-row
	// rules cascade (a placement fixed to 1 zeroes its siblings, which
	// empties their linked rows) and child nodes presolve smaller every
	// level down the tree. Integrality marks let presolve prune nodes whose
	// reductions force a binary to a fractional value.
	DisablePresolve bool
}

type node struct {
	fix0, fix1 []int
	bound      float64
	// warm is the optimal basis of the parent relaxation, shared by both
	// children; nil at the root or when warm starts are disabled.
	warm *lp.Basis
}

// newNodeQueue orders open nodes best bound first (max-heap on bound via the
// shared generic min-heap helper).
func newNodeQueue() *heapx.Heap[*node] {
	return heapx.New(func(a, b *node) bool { return a.bound > b.bound })
}

// Solve runs best-first branch and bound. The relaxation at each node is the
// LP with branched binaries fixed purely via bound changes (Upper = 0 for a
// 0-fix, Lower = Upper = 1 for a 1-fix), so every node shares the base
// constraint matrix and can be warm-started from its parent's basis.
func Solve(p *Problem, opts *Options) (*Solution, error) {
	if opts == nil {
		opts = &Options{}
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100000
	}
	intTol := opts.IntTol
	if intTol <= 0 {
		intTol = 1e-6
	}
	if err := p.LP.Validate(); err != nil {
		return nil, err
	}
	for _, j := range p.Binary {
		if j < 0 || j >= p.LP.NumVars() {
			return nil, fmt.Errorf("milp: binary index %d out of range", j)
		}
	}

	// Fixing binaries via bound changes keeps every node's LP the same
	// shape, which is what makes parent bases reusable; sparsify the matrix
	// once so node solves share one CSC instead of copying rows.
	base := p.LP
	if base.Cols == nil {
		base = *base.Sparsify()
	}
	var solver lp.Backend = lp.Simplex{}
	if !opts.DisablePresolve {
		integral := make([]bool, base.NumVars())
		for _, j := range p.Binary {
			integral[j] = true
		}
		solver = presolve.Backend{Opts: &presolve.Options{Integral: integral}}
	}

	sol := &Solution{Status: NodeLimit, Objective: math.Inf(-1), Bound: math.Inf(1)}
	q := newNodeQueue()
	q.Push(&node{bound: math.Inf(1)})

	for q.Len() > 0 {
		if sol.Nodes >= maxNodes {
			sol.Bound = q.Peek().bound
			return sol, nil
		}
		nd := q.Pop()
		if nd.bound <= sol.Objective+1e-12 && sol.HasIncumbent {
			sol.Pruned++
			continue // pruned by incumbent
		}
		if opts.Gap > 0 && sol.HasIncumbent &&
			nd.bound <= sol.Objective*(1+opts.Gap)+1e-12 {
			// Within the requested relative gap: accept the incumbent.
			sol.Status = Optimal
			sol.Bound = nd.bound
			return sol, nil
		}
		rel, err := solveRelaxation(solver, &base, nd)
		sol.Nodes++
		if err != nil {
			if errors.Is(err, lp.ErrIterLimit) {
				return nil, fmt.Errorf("milp: branch-and-bound node hit the simplex cap: %w", err)
			}
			return nil, err
		}
		switch rel.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			return nil, errors.New("milp: relaxation unbounded; bound the binary problem")
		}
		if rel.Objective <= sol.Objective+1e-12 && sol.HasIncumbent {
			sol.Pruned++
			continue
		}
		branch := pickBranchVar(rel.X, p.Binary, intTol)
		if branch < 0 {
			// Integral: new incumbent.
			if rel.Objective > sol.Objective {
				sol.Objective = rel.Objective
				sol.X = append([]float64(nil), rel.X...)
				sol.HasIncumbent = true
			}
			continue
		}
		var warm *lp.Basis
		if !opts.DisableWarmStart {
			warm = rel.Basis
		}
		lo := &node{fix0: append(append([]int(nil), nd.fix0...), branch), fix1: nd.fix1, bound: rel.Objective, warm: warm}
		hi := &node{fix0: nd.fix0, fix1: append(append([]int(nil), nd.fix1...), branch), bound: rel.Objective, warm: warm}
		q.Push(lo)
		q.Push(hi)
	}

	if sol.HasIncumbent {
		sol.Status = Optimal
		sol.Bound = sol.Objective
	} else {
		sol.Status = Infeasible
	}
	return sol, nil
}

// solveRelaxation solves the node LP through the configured backend: the
// base problem with branched binaries fixed purely through bound changes (0
// via Upper, 1 via Lower+Upper), so every node shares the base constraint
// matrix — and, through the parent's warm token, the presolving backend's
// one prepared copy of it: a child re-reduces only because its bounds moved.
// The bound fixings happen before reduction, so each level's fixings shrink
// the child's reduced model further; the parent's basis then only installs
// when parent and child reduce to the same shape, and costs a cheap cold
// fallback otherwise. Bound slices are copied only when the node fixes
// something through them, so fixings never leak across nodes.
func solveRelaxation(solver lp.Backend, base *lp.Problem, nd *node) (*lp.Solution, error) {
	q := *base
	if len(nd.fix0)+len(nd.fix1) > 0 {
		q.Upper = make([]float64, base.NumVars())
		if base.Upper != nil {
			copy(q.Upper, base.Upper)
		} else {
			for j := range q.Upper {
				q.Upper[j] = math.Inf(1)
			}
		}
		for _, j := range nd.fix0 {
			q.Upper[j] = 0
		}
	}
	if len(nd.fix1) > 0 {
		q.Lower = make([]float64, base.NumVars())
		if base.Lower != nil {
			copy(q.Lower, base.Lower)
		}
		for _, j := range nd.fix1 {
			if q.Upper[j] < 1 {
				// The variable cannot reach 1: the node is infeasible.
				return &lp.Solution{Status: lp.Infeasible}, nil
			}
			q.Lower[j] = 1
			q.Upper[j] = 1
		}
	}
	return solver.SolveWarm(&q, nd.warm)
}

// pickBranchVar returns the most fractional binary variable, or -1 if all
// binaries are integral within tol.
func pickBranchVar(x []float64, binary []int, tol float64) int {
	best, bestDist := -1, tol
	for _, j := range binary {
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			best, bestDist = j, dist
		}
	}
	return best
}
