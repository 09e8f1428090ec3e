package lp

import (
	"fmt"
	"math"
)

// gapTol is Check's rounding margin: the weak-duality bound of an optimal
// answer may exceed its Objective, and Objective may differ from Obj·X, by
// at most gapTol·(1 + |Objective|); a Farkas bound must lie below −gapTol.
const gapTol = 1e-9

// Check certifies sol as an answer to p without solving p again — one pass
// over the matrix per witness — and returns the bound it proves on p's
// optimum. Each status is checked through its witness:
//
//   - Optimal: X must satisfy every row and bound to within the primal
//     tolerance feasTol·(1 + |b_i|) for row i and feasTol·(1 + |l_j|) or
//     feasTol·(1 + |u_j|) for the bounds of x_j, and Objective must equal
//     Obj·X to within the rounding margin gapTol·(1 + |Objective|). Duals,
//     projected onto their signs (≥ 0 on LE rows, ≤ 0 on GE rows, free on
//     EQ rows), give the weak-duality bound b·y + Σ_j max(d_j·l_j, d_j·u_j)
//     with d = Obj − Aᵀy, which no feasible point exceeds; it must not
//     exceed Objective by more than the margin. A d_j > 0 against an
//     infinite upper bound would make the bound infinite: up to the dual
//     tolerance costTol, below which the simplex prices no column in, it is
//     priced at l_j instead. An answer without Duals fails.
//   - Infeasible: Duals holds a Farkas vector. Its bound with Obj = 0 must
//     lie below −gapTol, which no feasible point allows, since 0 = 0·x is
//     at most the bound.
//   - Unbounded: X must be feasible as for Optimal, and Ray a direction of
//     unbounded ascent: Obj·Ray > 0, (A·Ray)_i ≤ 0, ≥ 0 or = 0 on LE, GE
//     and EQ rows, Ray_j ≥ 0, and Ray_j ≤ 0 where u_j is finite, each to
//     within feasTol·|Ray|∞, times Σ_j |a_ij| for row i. The bound is +Inf.
//
// Any other status has no witness and fails.
func Check(p *Problem, sol *Solution) (bound float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n, m := p.NumVars(), p.NumRows()
	switch sol.Status {
	case Optimal:
		if len(sol.X) != n || len(sol.Duals) != m {
			return 0, fmt.Errorf("lp: optimal answer has |X|=%d, |Duals|=%d, want %d and %d", len(sol.X), len(sol.Duals), n, m)
		}
		if err := checkPoint(p, sol.X); err != nil {
			return 0, err
		}
		margin := gapTol * (1 + math.Abs(sol.Objective))
		if obj := dot(p.Obj, sol.X); math.Abs(obj-sol.Objective) > margin {
			return 0, fmt.Errorf("lp: Objective %.17g, but Obj·X = %.17g", sol.Objective, obj)
		}
		bound = dualBound(p, p.Obj, sol.Duals)
		if bound-sol.Objective > margin {
			return bound, fmt.Errorf("lp: dual bound %.17g exceeds Objective %.17g by more than %g", bound, sol.Objective, margin)
		}
		return bound, nil
	case Infeasible:
		if len(sol.Duals) != m {
			return 0, fmt.Errorf("lp: infeasible answer has |Duals|=%d, want a Farkas vector of %d", len(sol.Duals), m)
		}
		if bound = dualBound(p, nil, sol.Duals); bound >= -gapTol {
			return bound, fmt.Errorf("lp: Farkas bound %.17g is not below %g", bound, -gapTol)
		}
		return bound, nil
	case Unbounded:
		if len(sol.X) != n || len(sol.Ray) != n {
			return 0, fmt.Errorf("lp: unbounded answer has |X|=%d, |Ray|=%d, want %d", len(sol.X), len(sol.Ray), n)
		}
		if err := checkPoint(p, sol.X); err != nil {
			return 0, err
		}
		return math.Inf(1), checkRay(p, sol.Ray)
	}
	return 0, fmt.Errorf("lp: a %v answer carries no certificate", sol.Status)
}

// dualBound returns the weak-duality bound b·y + Σ_j max(d_j·l_j, d_j·u_j),
// d = c − Aᵀy, of y projected onto its signs, over every x in p's feasible
// set; c nil means zero. A d_j > costTol against an infinite upper bound
// makes it +Inf.
func dualBound(p *Problem, c, y []float64) float64 {
	proj := func(i int) float64 {
		if yi := y[i]; (p.Sense[i] != LE || yi >= 0) && (p.Sense[i] != GE || yi <= 0) {
			return yi
		}
		return 0
	}
	bound := 0.0
	for i, b := range p.B {
		bound += b * proj(i)
	}
	cols := p.Cols
	for j := 0; j < cols.N; j++ {
		d := 0.0
		if c != nil {
			d = c[j]
		}
		for k := cols.ColPtr[j]; k < cols.ColPtr[j+1]; k++ {
			d -= cols.Val[k] * proj(cols.RowIdx[k])
		}
		l, u := p.bounds(j)
		switch {
		case d <= 0 || (math.IsInf(u, 1) && d <= costTol):
			bound += d * l
		case math.IsInf(u, 1):
			return math.Inf(1)
		default:
			bound += d * u
		}
	}
	return bound
}

// checkPoint reports the first row or bound x violates beyond feasTol,
// relative to the right-hand side or the bound.
func checkPoint(p *Problem, x []float64) error {
	for j, v := range x {
		l, u := p.bounds(j)
		if v < l-feasTol*(1+math.Abs(l)) || v > u+feasTol*(1+math.Abs(u)) {
			return fmt.Errorf("lp: x[%d] = %g violates its bounds [%g, %g]", j, v, l, u)
		}
	}
	lhs, _ := rowProducts(p, x)
	for i, a := range lhs {
		if !senseHolds(p.Sense[i], a-p.B[i], feasTol*(1+math.Abs(p.B[i]))) {
			return fmt.Errorf("lp: row %d violated: activity %g, right-hand side %g", i, a, p.B[i])
		}
	}
	return nil
}

// checkRay reports whether r is a direction of unbounded ascent of p.
func checkRay(p *Problem, r []float64) error {
	if cr := dot(p.Obj, r); !(cr > 0) {
		return fmt.Errorf("lp: ray does not ascend: Obj·Ray = %g", cr)
	}
	scale := 0.0
	for _, v := range r {
		scale = math.Max(scale, math.Abs(v))
	}
	for j, v := range r {
		if _, u := p.bounds(j); v < -feasTol*scale || (!math.IsInf(u, 1) && v > feasTol*scale) {
			return fmt.Errorf("lp: ray leaves the box of x[%d]: Ray[%d] = %g", j, j, v)
		}
	}
	ar, norm := rowProducts(p, r)
	for i, a := range ar {
		if !senseHolds(p.Sense[i], a, feasTol*scale*norm[i]) {
			return fmt.Errorf("lp: ray leaves row %d: (A·Ray) = %g", i, a)
		}
	}
	return nil
}

// rowProducts returns A·x and, per row, Σ_j |a_ij|.
func rowProducts(p *Problem, x []float64) (ax, norm []float64) {
	m := p.NumRows()
	buf := make([]float64, 2*m)
	ax, norm = buf[:m], buf[m:]
	cols := p.Cols
	for j, v := range x {
		for k := cols.ColPtr[j]; k < cols.ColPtr[j+1]; k++ {
			ax[cols.RowIdx[k]] += cols.Val[k] * v
			norm[cols.RowIdx[k]] += math.Abs(cols.Val[k])
		}
	}
	return ax, norm
}

// senseHolds reports whether a row whose activity exceeds its right-hand
// side by excess satisfies sense to within tol.
func senseHolds(sense Sense, excess, tol float64) bool {
	switch sense {
	case LE:
		return excess <= tol
	case GE:
		return excess >= -tol
	default:
		return math.Abs(excess) <= tol
	}
}

// dot returns Σ_j a_j·b_j.
func dot(a, b []float64) float64 {
	s := 0.0
	for j, v := range a {
		s += v * b[j]
	}
	return s
}
