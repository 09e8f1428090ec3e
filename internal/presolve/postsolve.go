// Postsolve: translate a reduced-model solution back to the original
// variable space by unwinding the record stack in reverse.

package presolve

import (
	"fmt"

	"vmalloc/internal/lp"
)

// Postsolve maps a solution of the reduced model back to the original
// problem. For Outcome() == Solved pass nil. The result reports the
// original-space primal and the objective recomputed from the original
// coefficients (term order matches the solvers', so an unreduced solve of
// the same vertex produces the identical float). No basis and no dual
// values are reconstructed: Basis and Duals are nil.
func (r *Reduction) Postsolve(sol *lp.Solution) (*lp.Solution, error) {
	switch r.outcome {
	case Infeasible:
		return &lp.Solution{Status: lp.Infeasible}, nil
	case Unbounded:
		return &lp.Solution{Status: lp.Unbounded}, nil
	case Solved:
		if sol != nil {
			return nil, fmt.Errorf("presolve: Postsolve(non-nil) on a fully solved reduction")
		}
		full := &lp.Solution{Status: lp.Optimal}
		r.fillPrimal(full, nil)
		return full, nil
	}
	if sol == nil {
		return nil, fmt.Errorf("presolve: Postsolve(nil) on a reduced (not solved) model")
	}
	if sol.Status != lp.Optimal {
		// Infeasibility/unboundedness of the reduced model carries over:
		// every reduction preserves both directions.
		return &lp.Solution{Status: sol.Status}, nil
	}
	if len(sol.X) != len(r.colKeep) {
		return nil, fmt.Errorf("presolve: reduced solution has %d variables, want %d", len(sol.X), len(r.colKeep))
	}
	full := &lp.Solution{Status: lp.Optimal}
	r.fillPrimal(full, sol.X)
	return full, nil
}

// fillPrimal reconstructs the original-space primal and objective. The work
// vector covers the synthetic doubleton slacks too — substitution records
// may express an eliminated column in terms of one — but only the original
// n0 entries are reported.
func (r *Reduction) fillPrimal(full *lp.Solution, redX []float64) {
	x := make([]float64, r.nCols)
	for cr, j := range r.colKeep {
		x[j] = redX[cr]
	}
	// Unwind eliminations newest-first: a substitution's terms refer to
	// columns eliminated before it, which are restored after it.
	for k := len(r.records) - 1; k >= 0; k-- {
		rec := &r.records[k]
		switch rec.kind {
		case recFix:
			x[rec.col] = rec.val
		case recSubst:
			s := rec.b
			for _, t := range r.terms[rec.off : rec.off+rec.cnt] {
				s -= t.v * x[t.j]
			}
			x[rec.col] = s / rec.a
		}
	}
	full.X = x[:r.n0]
	for j, c := range r.obj {
		full.Objective += c * x[j]
	}
}
