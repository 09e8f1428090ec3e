// Backend wraps any lp.Backend with the reduction pipeline, making
// presolve+solve+postsolve a drop-in solver for relax (LPBOUND, RRND, RRNZ
// and the engine's bound bracket). The warm token it hands out is the REDUCED
// model's basis with the Reduction it belongs to attached. A re-solve of an
// element-for-element equal problem — the bound-then-RRND-then-RRNZ pattern
// internal/relax replays from its table of recent tokens — finds its
// reduction on the token, skips Reduce and installs the basis directly;
// anything else reduces from scratch. The comparison is against the
// reducer's own copy of the earlier problem, so editing a problem in place
// between solves can never revive a stale reduction. A basis that does not
// fit the new reduced model fails the install shape check inside the inner
// solver and costs only a cold start. Use Reduce/Postsolve directly when the
// full-space basis is needed instead.

package presolve

import "vmalloc/internal/lp"

// Backend is a presolving lp.Backend. The zero value wraps the in-tree
// sparse simplex.
type Backend struct {
	// Inner solves the reduced models; nil means lp.Simplex.
	Inner lp.Backend
	// Opts configures every reduction (nil = defaults).
	Opts *Options
}

func init() {
	lp.MustRegister(Backend{})
}

func (b Backend) inner() lp.Backend {
	if b.Inner == nil {
		return lp.Simplex{}
	}
	return b.Inner
}

// Name implements lp.Backend.
func (b Backend) Name() string { return "presolve+" + b.inner().Name() }

// Solve implements lp.Backend.
func (b Backend) Solve(p *lp.Problem) (*lp.Solution, error) { return b.SolveWarm(p, nil) }

// SolveWarm implements lp.Backend: reduce (or take the reduction off the
// token), solve the reduced model (warm when the token fits), postsolve the
// primal, and return the reduced basis, reduction attached, as the next warm
// token.
func (b Backend) SolveWarm(p *lp.Problem, warm *lp.Basis) (*lp.Solution, error) {
	var prev *Reduction
	if warm != nil {
		prev, _ = warm.Attachment().(*Reduction)
	}
	red, err := reduce(p, b.Opts, prev)
	if err != nil {
		return nil, err
	}
	switch red.Outcome() {
	case Infeasible:
		return &lp.Solution{Status: lp.Infeasible, Presolve: red.solutionStats()}, nil
	case Unbounded:
		return &lp.Solution{Status: lp.Unbounded, Presolve: red.solutionStats()}, nil
	case Solved:
		full, err := red.Postsolve(nil)
		if err != nil {
			return nil, err
		}
		full.Presolve = red.solutionStats()
		return full, nil
	}
	var sol *lp.Solution
	if b.Inner == nil {
		// emit built the reduced model valid; the simplex need not re-check it.
		sol, err = lp.SolveSparseTrusted(red.Problem(), warm)
	} else {
		sol, err = b.Inner.SolveWarm(red.Problem(), warm)
	}
	if err != nil {
		return sol, err
	}
	// Hand the reduced basis back as the warm token; the full-space basis
	// reconstruction is reachable via explicit Reduce+Postsolve.
	full, err := red.postsolve(sol, false)
	if err != nil {
		return nil, err
	}
	if sol.Basis != nil {
		full.Basis = sol.Basis.WithAttachment(red)
	}
	full.Refactorizations = sol.Refactorizations
	full.BlandActivations = sol.BlandActivations
	full.Presolve = red.solutionStats()
	return full, nil
}

// solutionStats converts the reduction's counters into the lp-space stats
// attached to the returned Solution.
func (r *Reduction) solutionStats() *lp.PresolveStats {
	st := r.Stats()
	return &lp.PresolveStats{
		RowsEliminated:  st.RowsBefore - st.RowsAfter,
		ColsEliminated:  st.ColsBefore - st.ColsAfter,
		FixedCols:       st.FixedCols,
		DroppedRows:     st.DroppedRows,
		SubstCols:       st.SubstCols,
		BoundsTightened: st.BoundsTightened,
		DoubletonSlacks: st.DoubletonSlacks,
	}
}
