// Backend is the presolving solve behind every relaxation solve relax runs
// (LPBOUND, RRND, RRNZ): reduce, solve the reduced model with the sparse
// simplex, postsolve the primal. The warm token it hands out is the REDUCED
// model's basis. Every solve reduces afresh — a repeat solve of an unedited
// problem never gets here, relax answers it from memory — and a token whose
// basis does not fit the new reduced model fails the simplex's install shape
// check and costs only a cold start.

package presolve

import "vmalloc/internal/lp"

// Backend solves linear programs through the reduction pipeline.
type Backend struct{}

// SolveWarm maximizes p: reduce, solve the reduced model (warm when the
// token fits), postsolve the primal, and return the reduced basis as the
// next warm token. A problem presolve decides outright hands out no token.
// One eliminated entirely is answered without the simplex; one found
// infeasible or unbounded is solved again, unreduced, by the simplex, whose
// answer carries the Farkas vector or ray that presolve's verdict lacks.
func (Backend) SolveWarm(p *lp.Problem, warm *lp.Basis) (*lp.Solution, error) {
	red, err := Reduce(p, nil)
	if err != nil {
		return nil, err
	}
	switch red.Outcome() {
	case Infeasible, Unbounded:
		sol, err := lp.Simplex{}.SolveWarm(p, nil)
		if err != nil {
			return sol, err
		}
		sol.Basis = nil
		return sol, nil
	case Solved:
		return red.Postsolve(nil)
	}
	sol, err := lp.Simplex{}.SolveWarm(red.Problem(), warm)
	if err != nil {
		return sol, err
	}
	full, err := red.Postsolve(sol)
	if err != nil {
		return nil, err
	}
	full.Basis = sol.Basis
	full.Refactorizations = sol.Refactorizations
	full.BlandActivations = sol.BlandActivations
	return full, nil
}
