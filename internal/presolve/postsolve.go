// Postsolve: translate a reduced-model solution back to the original
// variable and row space. The primal comes from unwinding the record stack
// in reverse; the simplex basis is rebuilt wholesale from the reduced basis
// plus the reduction maps, so a warm start on the full model (or a verified
// optimal basis for it) survives presolve.

package presolve

import (
	"fmt"
	"math"

	"vmalloc/internal/lp"
)

// Postsolve maps a solution of the reduced model back to the original
// problem. For Outcome() == Solved pass nil. The result reports the
// original-space primal, the objective recomputed from the original
// coefficients (term order matches the solvers', so an unreduced solve of
// the same vertex produces the identical float), and a reconstructed
// full-space Basis when one exists (nil when an eliminated variable lands
// strictly between its bounds, where no nonbasic status is valid — callers
// treat a nil basis as a cold start). Dual values are not reconstructed:
// Duals and BoundDuals are nil on the presolved path.
func (r *Reduction) Postsolve(sol *lp.Solution) (*lp.Solution, error) {
	return r.postsolve(sol, true)
}

// postsolve is Postsolve with the full-space basis reconstruction optional:
// the backend hands the reduced basis back as its token and has no use for
// the full one.
func (r *Reduction) postsolve(sol *lp.Solution, withBasis bool) (*lp.Solution, error) {
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
		full.Basis = r.fullBasis(nil, full.X)
		return full, nil
	}
	if sol == nil {
		return nil, fmt.Errorf("presolve: Postsolve(nil) on a reduced (not solved) model")
	}
	if sol.Status != lp.Optimal {
		// Infeasibility/unboundedness of the reduced model carries over:
		// every reduction preserves both directions.
		return &lp.Solution{Status: sol.Status, Iters: sol.Iters, WarmStarted: sol.WarmStarted}, nil
	}
	if len(sol.X) != len(r.colKeep) {
		return nil, fmt.Errorf("presolve: reduced solution has %d variables, want %d", len(sol.X), len(r.colKeep))
	}
	full := &lp.Solution{Status: lp.Optimal, Iters: sol.Iters, WarmStarted: sol.WarmStarted}
	r.fillPrimal(full, sol.X)
	if withBasis {
		full.Basis = r.fullBasis(sol.Basis, full.X)
	}
	return full, nil
}

// fillPrimal reconstructs the original-space primal and objective. The work
// vector covers the synthetic doubleton slacks too — substitution records
// may express an eliminated column in terms of one — but only the original
// n0 entries are reported.
func (r *Reduction) fillPrimal(full *lp.Solution, redX []float64) {
	x := make([]float64, r.n0+len(r.synRow))
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
	for j, c := range r.src.obj {
		full.Objective += c * x[j]
	}
}

// fullBasis rebuilds a basis for the original problem from the reduced
// basis. Kept rows carry their reduced basic column over (structural
// columns via the keep map, slacks and artificials via the row maps);
// dropped inequality rows seat their slack, dropped equalities their
// artificial (value ~0, since the postsolved point satisfies them), and
// substitution rows seat the pivot column wherever the reduced slack that
// replaced it was basic. Nonbasic statuses for eliminated columns come from
// comparing the postsolved value against the original bounds; a strictly
// interior value has no valid status, making the whole reconstruction
// return nil (callers fall back to a cold start). Numerical fitness is not
// checked here — installBasis verifies nonsingularity and feasibility and
// likewise falls back cheaply.
func (r *Reduction) fullBasis(redBasis *lp.Basis, x []float64) *lp.Basis {
	if r.outcome == Reduced && redBasis == nil {
		return nil
	}
	fullSlackOf := lp.SlackColumns(r.src.sense, r.n0)
	nRealFull := r.n0
	for _, s := range r.src.sense {
		if s != lp.EQ {
			nRealFull++
		}
	}
	basicFull := make([]int, r.m0)
	for i := range basicFull {
		basicFull[i] = -1
	}
	nonbas := make([]lp.BasisVarStatus, nRealFull) // default BasisAtLower

	var basicRed []int
	var nonbasRed []lp.BasisVarStatus
	var slackRowRed []int
	nsRed, nRealRed := 0, 0
	if redBasis != nil {
		basicRed, nonbasRed = redBasis.Export()
		var mRed int
		mRed, nsRed, nRealRed = redBasis.Dims()
		if mRed != len(r.rowKeep) || nsRed != len(r.colKeep) {
			return nil // basis from a different model; cannot map
		}
		redSlackOf := lp.SlackColumns(r.reduced.Sense, nsRed)
		slackRowRed = make([]int, nRealRed-nsRed)
		for rr, sc := range redSlackOf {
			if sc >= 0 {
				slackRowRed[sc-nsRed] = rr
			}
		}
	}

	// fullColOf maps a reducer column id to the full model's: original
	// structural columns are themselves; synthetic doubleton slacks are the
	// slack of the inequality row they were created for. One exception has
	// no full column, reported as -1: the row began as an equality, morphed
	// into an inequality when its pivot was substituted out, and only then
	// lost a doubleton. A basis that would have to name such a slack does not
	// exist; -1 as a basic column is rejected by NewBasis below.
	fullColOf := func(j int) int {
		if j < r.n0 {
			return j
		}
		return fullSlackOf[r.synRow[j-r.n0]]
	}

	// mapRedCol translates a reduced equality-form column to the full one.
	mapRedCol := func(cr int) int {
		switch {
		case cr < nsRed:
			return fullColOf(r.colKeep[cr])
		case cr < nRealRed:
			i := r.rowKeep[slackRowRed[cr-nsRed]]
			if r.pivotOf[i] >= 0 {
				return fullColOf(r.pivotOf[i]) // morphed EQ row: slack stands in for the pivot
			}
			return fullSlackOf[i]
		default:
			return nRealFull + r.rowKeep[cr-nRealRed]
		}
	}

	// Row activities at the postsolved point: they decide whether a
	// converted doubleton row seats its pivot or its slack, and seatInterior
	// reuses them to find tight rows.
	act := r.rowActivities(x)

	isBasic := make(map[int]bool, r.m0)
	claim := func(i, col int) bool {
		if isBasic[col] {
			return false // two rows claimed one column; no coherent basis
		}
		isBasic[col] = true
		basicFull[i] = col
		return true
	}
	for rr, cr := range basicRed {
		if !claim(r.rowKeep[rr], mapRedCol(cr)) {
			return nil
		}
	}
	for i := 0; i < r.m0; i++ {
		if basicFull[i] >= 0 {
			continue // kept row, already mapped
		}
		switch {
		case r.rowMap != nil && r.rowMap[i] >= 0:
			// Kept row whose reduced basic column failed to map — cannot
			// happen given the maps above, but fail safe.
			return nil
		case r.pivotOf[i] >= 0:
			col := fullColOf(r.pivotOf[i]) // dropped substitution row: pivot basic
			if r.src.sense[i] != lp.EQ {
				// Converted doubleton row. When the original inequality is
				// slack at the postsolved point, the slack column — not the
				// pivot — must be the basic one here (nonbasic slacks pin
				// the row tight); the displaced pivot then rests at a bound
				// or is seated elsewhere by seatInterior.
				if fs := fullSlackOf[i]; !isBasic[fs] &&
					math.Abs(act[i]-r.src.b[i]) > feasTol*(1+math.Abs(r.src.b[i])) {
					col = fs
				}
			}
			if !claim(i, col) {
				return nil
			}
		case r.src.sense[i] != lp.EQ:
			if !claim(i, fullSlackOf[i]) { // dropped inequality: slack basic
				return nil
			}
		default:
			if !claim(i, nRealFull+i) { // dropped equality: artificial at ~0
				return nil
			}
		}
	}

	// Surviving synthetic slacks keep their reduced status (nonbasic means
	// the doubleton row is tight, value zero under either model). Original
	// structural columns — surviving or eliminated — are statused from
	// their postsolved value against the ORIGINAL bounds below instead of
	// copying the reduced status: the reduced model's bounds may have been
	// tightened by propagation, and a column nonbasic at a tightened bound
	// is strictly interior in full space. Surviving inequality rows' slacks
	// keep the status of the reduced slack.
	for cr, j := range r.colKeep {
		if j >= r.n0 {
			fc := fullColOf(j)
			if fc < 0 {
				return nil
			}
			nonbas[fc] = nonbasRed[cr]
		}
	}
	if redBasis != nil {
		redSlackOf := lp.SlackColumns(r.reduced.Sense, nsRed)
		for rr, sc := range redSlackOf {
			if sc < 0 {
				continue
			}
			i := r.rowKeep[rr]
			if r.pivotOf[i] >= 0 {
				// Morphed substitution row: the reduced slack stands in for
				// the pivot, whose status is derived from its value below —
				// it says nothing about the original row's own slack.
				continue
			}
			if fs := fullSlackOf[i]; fs >= 0 {
				nonbas[fs] = nonbasRed[sc]
			}
		}
	}

	// Nonbasic columns rest at whichever original bound their postsolved
	// value matches; a strictly interior value (a column held by a
	// tightened, non-original bound) has no nonbasic status and must be
	// seated basic in one of the tight dropped rows that determined it.
	var interior []int
	for j := 0; j < r.n0; j++ {
		if isBasic[j] {
			continue
		}
		switch {
		case math.Abs(x[j]-r.src.l[j]) <= feasTol*(1+math.Abs(r.src.l[j])):
			nonbas[j] = lp.BasisAtLower
		case !math.IsInf(r.src.u[j], 1) && math.Abs(x[j]-r.src.u[j]) <= feasTol*(1+math.Abs(r.src.u[j])):
			nonbas[j] = lp.BasisAtUpper
		default:
			interior = append(interior, j)
		}
	}
	if len(interior) > 0 && !r.seatInterior(interior, act, basicFull, isBasic, nonbas, fullSlackOf, nRealFull) {
		return nil
	}

	b, err := lp.NewBasis(r.src.sense, r.n0, basicFull, nonbas)
	if err != nil {
		return nil
	}
	return b
}

// rowActivities evaluates every original row's left-hand side at the
// postsolved point x.
func (r *Reduction) rowActivities(x []float64) []float64 {
	a := r.src.mat
	act := make([]float64, r.m0)
	for i := range act {
		for _, cl := range a.cells[a.rowPtr[i]:a.rowPtr[i+1]] {
			act[i] += cl.val * x[cl.col]
		}
	}
	return act
}

// seatInterior places columns whose postsolved value is strictly interior
// to their original bounds. Such a value always comes from a tightened
// bound, and a bound derived by propagation can only bind when its source
// row is tight with every other member at an extreme — so a tight row
// containing the column exists, and the column belongs basic in it. A row
// is eligible while its own slack or artificial holds the basic seat
// (their value at a tight row is 0, so displacing one to nonbasic-at-lower
// keeps the same point); rows whose seat holds a structural column or
// another row's slack are left alone. Reports whether every column found a
// row.
func (r *Reduction) seatInterior(interior []int, act []float64, basicFull []int, isBasic map[int]bool, nonbas []lp.BasisVarStatus, fullSlackOf []int, nRealFull int) bool {
	a := r.src.mat
	rowOfSlack := make(map[int]int, r.m0)
	for i, fs := range fullSlackOf {
		if fs >= 0 {
			rowOfSlack[fs] = i
		}
	}
	for _, j := range interior {
		seated := false
		for k := a.colHead[j]; k >= 0; k = a.cells[k].cNext {
			i := int(a.cells[k].row)
			bc := basicFull[i]
			if bc < r.n0 {
				continue // a structural column is already seated here
			}
			// bc is some row's slack or artificial; its value is that row's
			// own residual, which must be ~0 for the displacement to keep
			// the same point.
			src := bc - nRealFull
			if bc < nRealFull {
				src = rowOfSlack[bc]
			}
			if math.Abs(act[src]-r.src.b[src]) > feasTol*(1+math.Abs(r.src.b[src])) {
				continue // slack strictly positive: it must stay basic
			}
			delete(isBasic, bc)
			if bc < nRealFull {
				nonbas[bc] = lp.BasisAtLower // displaced slack sits at 0
			}
			basicFull[i] = j
			isBasic[j] = true
			seated = true
			break
		}
		if !seated {
			return false
		}
	}
	return true
}
