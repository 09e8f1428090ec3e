package presolve

import "vmalloc/internal/lp"

// Solve maximizes p by the presolving solve behind every relaxation solve
// relax runs (LPBOUND, RRND, RRNZ): reduce, solve the reduced model cold
// with the sparse simplex, and postsolve the primal. It keeps nothing, so
// its answer is a function of p alone. A problem eliminated entirely is
// answered without the simplex; one found infeasible or unbounded is solved
// again, unreduced, by the simplex, whose answer carries the Farkas vector
// or ray that presolve's verdict lacks.
func Solve(p *lp.Problem) (*lp.Solution, error) {
	red, err := Reduce(p, nil)
	if err != nil {
		return nil, err
	}
	switch red.Outcome() {
	case Infeasible, Unbounded:
		return lp.Simplex{}.SolveWarm(p, nil)
	case Solved:
		return red.Postsolve(nil)
	}
	sol, err := lp.Simplex{}.SolveWarm(red.Problem(), nil)
	if err != nil {
		return sol, err
	}
	return red.Postsolve(sol)
}
