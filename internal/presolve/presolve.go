// Package presolve shrinks linear programs before the simplex ever runs: a
// reduction pipeline over the CSC form removes fixed variables, empty rows
// and columns, turns singleton rows into bound tightenings, substitutes
// columns out through equality rows (singleton columns are the zero-fill
// case), drops redundant rows, fixes whole rows when their activity bounds
// force every variable, and iterates bound propagation to a fixpoint. The
// reduced model is solved by the sparse simplex, and a postsolve stack then
// reconstructs the full primal solution; Solve runs the three steps.
//
// The paper's relaxation (Eqs. 1–7) is the design target: its per-service
// placement equalities (Eq. 3) and min-yield linking rows (Eq. 7) are what
// force the two-phase simplex into a long artificial-elimination phase 1.
// Equality substitution of Eq. 3 plus the >=-to-<= normalization performed
// at emit leave a reduced model whose initial slack basis is feasible, so
// a cold solve of the reduced model skips phase 1 entirely.
package presolve

import (
	"fmt"
	"math"

	"vmalloc/internal/lp"
	"vmalloc/internal/sliceutil"
)

// Options is the argument slot of Reduce; it has no fields, the pipeline
// is fixed.
type Options struct{}

// Outcome classifies a reduction.
type Outcome int

const (
	// Reduced means a nonempty model remains: solve Problem(), then pass
	// the solution to Postsolve.
	Reduced Outcome = iota
	// Solved means presolve eliminated everything; Postsolve(nil) yields
	// the full solution directly.
	Solved
	// Infeasible means presolve proved no feasible point exists.
	Infeasible
	// Unbounded means presolve proved the objective unbounded above.
	Unbounded
)

// String returns a human-readable outcome name.
func (o Outcome) String() string {
	switch o {
	case Reduced:
		return "reduced"
	case Solved:
		return "solved"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Stats counts what the pipeline removed.
type Stats struct {
	RowsBefore, RowsAfter int
	ColsBefore, ColsAfter int
	FixedCols             int // variables fixed (equal bounds, empty, forced)
	DroppedRows           int // empty + singleton + redundant + forcing rows
	SubstCols             int // columns substituted out through equality rows
	BoundsTightened       int // bound updates from singletons + propagation
	DoubletonSlacks       int // inequality doubletons eliminated via an explicit slack column
}

// Reduction is the result of Reduce: the reduced problem plus everything
// Postsolve needs to translate a reduced solution back to the original
// variable space. It is immutable once returned, so one Reduction
// may serve any number of Postsolve calls on any number of goroutines.
type Reduction struct {
	outcome Outcome
	stats   Stats

	obj []float64 // the original objective, which Postsolve re-evaluates
	// n0 is the number of original columns, nCols that plus the synthetic
	// doubleton slacks (reducer columns n0..nCols-1).
	n0, nCols int

	reduced *lp.Problem
	colKeep []int // reduced col -> reducer col

	records []record
	terms   []entry // backing store of the recSubst records' terms
}

// record is one postsolve step, undone in reverse application order.
type record struct {
	kind recKind
	col  int
	val  float64 // recFix: the fixed value
	a, b float64 // recSubst: pivot coefficient and host row rhs at subst time
	// recSubst: the row's other coefficients at subst time are
	// Reduction.terms[off : off+cnt].
	off, cnt int
}

type recKind int8

const (
	recFix recKind = iota
	recSubst
)

// entry is one matrix coefficient, indexed by original column id.
type entry struct {
	j int
	v float64
}

// Outcome reports how the reduction ended.
func (r *Reduction) Outcome() Outcome { return r.outcome }

// Stats reports what was removed.
func (r *Reduction) Stats() Stats { return r.stats }

// Problem returns the reduced model (valid only when Outcome() == Reduced).
// Its objective omits the constant contributed by eliminated variables;
// Postsolve recomputes the true objective from the original coefficients.
func (r *Reduction) Problem() *lp.Problem { return r.reduced }

// presolve tolerances. Reductions must never perturb the optimum beyond
// what the equivalence tests allow (1e-9 on the objective), so anything
// that cuts the feasible region (forcing, redundancy) uses tolerances well
// inside the solver's own feasTol while bound propagation — which only ever
// removes provably infeasible points — applies a looser improvement
// threshold purely to reach its fixpoint quickly.
const (
	feasTol     = 1e-7  // infeasibility detection, matching the solvers
	redTol      = 1e-9  // redundant-row slack margin
	forceTol    = 1e-12 // forcing-row activity margin
	propEps     = 1e-7  // minimum bound improvement worth recording
	dropCoefTol = 1e-12 // coefficients this small after cancellation vanish
)

// substitution limits: a pivot may appear in at most maxPivotRows other
// rows and the merge may create at most maxSubstFill new nonzeros, so
// substitution can never densify the model faster than it shrinks it.
const (
	maxPivotRows = 8
	maxSubstFill = 100
)

// Reduce runs the pipeline on a validated problem and returns the
// reduction; opts is ignored and may be nil.
func Reduce(p *lp.Problem, _ *Options) (*Reduction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ps := reducerPool.Get().(*reducer)
	defer reducerPool.Put(ps)

	ps.load(p)
	ps.run()

	r := &Reduction{obj: append([]float64(nil), p.Obj...), n0: ps.nOrig}
	switch {
	case ps.infeasible:
		r.outcome = Infeasible
		return ps.finish(r), nil
	case ps.unbounded:
		r.outcome = Unbounded
		return ps.finish(r), nil
	}

	// With no constraint rows left the remainder is a box LP: every column
	// moves to its objective-preferred bound (or proves unboundedness).
	if ps.aliveRows() == 0 {
		for j := 0; j < ps.n; j++ {
			if !ps.colAlive[j] {
				continue
			}
			if ps.c[j] > 0 {
				if math.IsInf(ps.u[j], 1) {
					r.outcome = Unbounded
					return ps.finish(r), nil
				}
				ps.fixCol(j, ps.u[j])
			} else {
				ps.fixCol(j, ps.l[j])
			}
		}
	}

	if ps.aliveCols() == 0 {
		// Rows may remain alive only if every one is satisfied by the
		// constants; the empty-row rule already verified that (or flagged
		// infeasibility) for rows it saw, so sweep any stragglers.
		for i := 0; i < ps.m; i++ {
			if ps.rowAlive[i] {
				ps.checkEmptyRow(i)
			}
		}
		if ps.infeasible {
			r.outcome = Infeasible
			return ps.finish(r), nil
		}
		r.outcome = Solved
		return ps.finish(r), nil
	}

	r.outcome = Reduced
	r.reduced, r.colKeep = ps.emit(p.MaxIter)
	ps.finish(r)
	r.stats.RowsAfter = r.reduced.NumRows()
	r.stats.ColsAfter = len(r.colKeep)
	return r, nil
}

// finish moves the run's results out of the pooled scratch into r.
func (ps *reducer) finish(r *Reduction) *Reduction {
	r.stats = ps.stats
	r.nCols = ps.n
	r.records = append([]record(nil), ps.records...)
	r.terms = append([]entry(nil), ps.terms...)
	return r
}

func (ps *reducer) aliveRows() int {
	c := 0
	for _, a := range ps.rowAlive {
		if a {
			c++
		}
	}
	return c
}

func (ps *reducer) aliveCols() int {
	c := 0
	for _, a := range ps.colAlive {
		if a {
			c++
		}
	}
	return c
}

// maxPasses caps the outer reduce-to-fixpoint loop.
const maxPasses = 10

// run iterates every rule to a fixpoint (or the pass cap).
func (ps *reducer) run() {
	for pass := 0; pass < maxPasses; pass++ {
		changed := ps.fixPass()
		changed = ps.rowPass() || changed
		changed = ps.vubPass() || changed
		changed = ps.substPass() || changed
		if ps.infeasible || ps.unbounded || !changed {
			return
		}
	}
}

// fixPass fixes columns whose bounds have collapsed and columns that appear
// in no alive row (set to their objective-preferred bound).
func (ps *reducer) fixPass() bool {
	changed := false
	for j := 0; j < ps.n; j++ {
		if !ps.colAlive[j] {
			continue
		}
		if ps.l[j] > ps.u[j]+feasTol {
			ps.infeasible = true
			return changed
		}
		if ps.u[j] <= ps.l[j] {
			v := ps.l[j]
			if ps.u[j] < v {
				v = (ps.l[j] + ps.u[j]) / 2 // tolerance overlap: split it
			}
			ps.fixCol(j, v)
			changed = true
			continue
		}
		if ps.colCnt[j] == 0 {
			// Empty column: only the objective cares about it.
			if ps.c[j] > 0 {
				if math.IsInf(ps.u[j], 1) {
					ps.unbounded = true
					return changed
				}
				ps.fixCol(j, ps.u[j])
			} else {
				ps.fixCol(j, ps.l[j])
			}
			changed = true
		}
	}
	return changed
}

// rowPass applies the row rules: empty rows, singleton rows, infeasibility
// and redundancy from activity bounds, forcing rows, and bound propagation.
// A row on which no rule fired and propagation tightened nothing is settled:
// the rules read only the row, its right-hand side and sense and its
// columns' bounds, so until one of those moves (which makes its activity
// stale) a later pass would find nothing again and skips it.
func (ps *reducer) rowPass() bool {
	changed := false
	for i := 0; i < ps.m; i++ {
		if !ps.rowAlive[i] {
			continue
		}
		switch ps.rowLen[i] {
		case 0:
			ps.checkEmptyRow(i)
			changed = true
			continue
		case 1:
			ps.singletonRow(i)
			changed = true
			continue
		}
		if ps.infeasible {
			return changed
		}
		if ps.act[i] == actSettled {
			continue // as it stood when the rules last found nothing to do
		}

		minAct, maxAct := ps.rowActivity(i)
		b, scale := ps.b[i], 1+math.Abs(ps.b[i])
		switch ps.sense[i] {
		case lp.LE:
			if minAct > b+feasTol*scale {
				ps.infeasible = true
				return changed
			}
			if maxAct <= b+redTol*scale {
				ps.dropRow(i)
				changed = true
				continue
			}
			if minAct >= b-forceTol*scale && !math.IsInf(minAct, 0) {
				ps.forceRow(i, true)
				changed = true
				continue
			}
		case lp.GE:
			if maxAct < b-feasTol*scale {
				ps.infeasible = true
				return changed
			}
			if minAct >= b-redTol*scale {
				ps.dropRow(i)
				changed = true
				continue
			}
			if maxAct <= b+forceTol*scale && !math.IsInf(maxAct, 0) {
				ps.forceRow(i, false)
				changed = true
				continue
			}
		case lp.EQ:
			if minAct > b+feasTol*scale || maxAct < b-feasTol*scale {
				ps.infeasible = true
				return changed
			}
			if minAct >= b-redTol*scale && maxAct <= b+redTol*scale {
				ps.dropRow(i)
				changed = true
				continue
			}
			if minAct >= b-forceTol*scale && !math.IsInf(minAct, 0) {
				ps.forceRow(i, true)
				changed = true
				continue
			}
			if maxAct <= b+forceTol*scale && !math.IsInf(maxAct, 0) {
				ps.forceRow(i, false)
				changed = true
				continue
			}
		}
		if !ps.propagate(i, minAct, maxAct) {
			ps.act[i] = actSettled
			continue
		}
		changed = true
		if ps.infeasible {
			return changed
		}
	}
	return changed
}

// checkEmptyRow verifies 0 {sense} b and drops the row (or flags
// infeasibility).
func (ps *reducer) checkEmptyRow(i int) {
	b, scale := ps.b[i], 1+math.Abs(ps.b[i])
	bad := false
	switch ps.sense[i] {
	case lp.LE:
		bad = b < -feasTol*scale
	case lp.GE:
		bad = b > feasTol*scale
	case lp.EQ:
		bad = math.Abs(b) > feasTol*scale
	}
	if bad {
		ps.infeasible = true
		return
	}
	ps.dropRow(i)
}

// singletonRow turns a one-entry row into a bound on its variable and drops
// the row.
func (ps *reducer) singletonRow(i int) {
	k := ps.rowHead[i]
	j, a := int(ps.cells[k].col), ps.cells[k].val
	if math.Abs(a) < dropCoefTol {
		ps.remove(k)
		ps.checkEmptyRow(i)
		return
	}
	v := ps.b[i] / a
	switch {
	case ps.sense[i] == lp.EQ:
		if v < ps.l[j]-feasTol || v > ps.u[j]+feasTol {
			ps.infeasible = true
			return
		}
		ps.tighten(j, v, v)
	case (ps.sense[i] == lp.LE) == (a > 0):
		// a·x <= b with a>0, or a·x >= b with a<0: upper bound.
		ps.tighten(j, math.Inf(-1), v)
	default:
		ps.tighten(j, v, math.Inf(1))
	}
	if !ps.infeasible {
		ps.dropRow(i)
	}
}

// forceRow fires when a row's activity bound meets its rhs exactly: every
// variable is fixed at the bound that produced the extreme activity.
// minSide selects the minimum-activity bounds (a>0 -> lower, a<0 -> upper);
// otherwise the maximum-activity ones.
func (ps *reducer) forceRow(i int, minSide bool) {
	ps.scan = ps.snapshot(ps.scan, i, none)
	ps.dropRow(i)
	for _, e := range ps.scan {
		if !ps.colAlive[e.j] {
			continue
		}
		atLower := (e.v > 0) == minSide
		if atLower {
			ps.fixCol(e.j, ps.l[e.j])
		} else {
			ps.fixCol(e.j, ps.u[e.j])
		}
	}
}

// propagate derives implied bounds for each variable from the row's
// residual activity and tightens when the improvement is material. The
// derived bounds hold for every feasible point, so propagation can never
// cut the optimum. Tightening edits bounds only, never the row, so the walk
// is safe; minAct and maxAct stay the activity the row had on entry.
func (ps *reducer) propagate(i int, minAct, maxAct float64) bool {
	changed := false
	b := ps.b[i]
	le := ps.sense[i] == lp.LE || ps.sense[i] == lp.EQ
	ge := ps.sense[i] == lp.GE || ps.sense[i] == lp.EQ
	for k := ps.rowHead[i]; k >= 0; k = ps.cells[k].rNext {
		j, a := int(ps.cells[k].col), ps.cells[k].val
		if math.Abs(a) < dropCoefTol {
			continue
		}
		// Residual activity with j's own contribution removed.
		var restMin, restMax float64
		if a > 0 {
			restMin, restMax = minAct-a*ps.l[j], maxAct-a*ps.u[j]
		} else {
			restMin, restMax = minAct-a*ps.u[j], maxAct-a*ps.l[j]
		}
		if le && !math.IsInf(restMin, 0) && !math.IsNaN(restMin) {
			// a_j x_j <= b - restMin
			bound := (b - restMin) / a
			if a > 0 {
				if bound < ps.u[j]-propEps*(1+math.Abs(bound)) {
					ps.tighten(j, math.Inf(-1), bound)
					changed = true
				}
			} else if bound > ps.l[j]+propEps*(1+math.Abs(bound)) {
				ps.tighten(j, bound, math.Inf(1))
				changed = true
			}
		}
		if ge && !math.IsInf(restMax, 0) && !math.IsNaN(restMax) {
			// a_j x_j >= b - restMax
			bound := (b - restMax) / a
			if a > 0 {
				if bound > ps.l[j]+propEps*(1+math.Abs(bound)) {
					ps.tighten(j, bound, math.Inf(1))
					changed = true
				}
			} else if bound < ps.u[j]-propEps*(1+math.Abs(bound)) {
				ps.tighten(j, math.Inf(-1), bound)
				changed = true
			}
		}
		if ps.infeasible {
			return changed
		}
	}
	return changed
}

// tighten intersects [lo,hi] into column j's bounds.
func (ps *reducer) tighten(j int, lo, hi float64) {
	if lo > ps.l[j] {
		ps.l[j] = lo
		ps.stats.BoundsTightened++
		ps.touchCol(j)
	}
	if hi < ps.u[j] {
		ps.u[j] = hi
		ps.stats.BoundsTightened++
		ps.touchCol(j)
	}
	if ps.l[j] > ps.u[j]+feasTol {
		ps.infeasible = true
	}
}

// fixCol substitutes the constant v for column j everywhere and records the
// fix for postsolve.
func (ps *reducer) fixCol(j int, v float64) {
	for k := ps.colHead[j]; k >= 0; k = ps.colHead[j] {
		ps.b[ps.cells[k].row] -= ps.cells[k].val * v
		ps.remove(k)
	}
	ps.colAlive[j] = false
	ps.records = append(ps.records, record{kind: recFix, col: j, val: v})
	ps.stats.FixedCols++
}

// substPass eliminates columns through equality rows. For each alive EQ row
// it picks the pivot with the fewest other appearances (a singleton column
// is the zero-fill case) under stability and fill caps, replaces the pivot
// by its row-implied expression in every other row and the objective, and
// converts the host row into whichever of the pivot's bound constraints is
// not already implied by the remaining variables' bounds — dropping the row
// outright when both are (the implied-free case).
func (ps *reducer) substPass() bool {
	changed := false
	for i := 0; i < ps.m; i++ {
		if !ps.rowAlive[i] || ps.sense[i] != lp.EQ || ps.rowLen[i] < 2 {
			continue
		}
		ps.scan = ps.snapshot(ps.scan, i, none)
		row := ps.scan
		maxAbs := 0.0
		for _, e := range row {
			if a := math.Abs(e.v); a > maxAbs {
				maxAbs = a
			}
		}
		// Scan pivot candidates starting at a row-dependent offset so ties
		// rotate: structured models (e.g. the paper's per-service Eq. 3
		// rows, whose candidates all tie) then spread their fill across
		// many rows instead of piling it into the first few columns' rows,
		// which would densify them and slow the basis factorization.
		best, bestCnt := -1, maxPivotRows+1
		start := i % len(row)
		for t := 0; t < len(row); t++ {
			e := row[(start+t)%len(row)]
			a := math.Abs(e.v)
			if a < 1e-7 || a < 1e-2*maxAbs {
				continue // numerically weak pivot
			}
			cnt := int(ps.colCnt[e.j]) - 1
			if cnt > maxPivotRows || cnt*(len(row)-1) > maxSubstFill {
				continue
			}
			if cnt < bestCnt {
				best, bestCnt = e.j, cnt
			}
		}
		if best < 0 {
			continue
		}
		if ps.substitute(i, best) {
			changed = true
		}
		if ps.infeasible {
			return changed
		}
	}
	return changed
}

// impliedSides reports, for x = (b - others·x)/a confined to [l,u], which of
// x >= l and x <= u already follow from the bounds behind others' activity
// range, and the right-hand sides the two constraints on others would carry.
func impliedSides(a, b, l, u, minAct, maxAct float64) (lowImplied, upImplied bool, rhsLow, rhsUp float64) {
	// Side 1, x >= l:  a>0: others <= b - a*l ;  a<0: others >= b - a*l.
	rhsLow = b - a*l
	if a > 0 {
		lowImplied = maxAct <= rhsLow+redTol*(1+math.Abs(rhsLow))
	} else {
		lowImplied = minAct >= rhsLow-redTol*(1+math.Abs(rhsLow))
	}
	// Side 2, x <= u: vacuous when u is infinite.
	upImplied = math.IsInf(u, 1)
	if !upImplied {
		rhsUp = b - a*u
		if a > 0 {
			upImplied = minAct >= rhsUp-redTol*(1+math.Abs(rhsUp))
		} else {
			upImplied = maxAct <= rhsUp+redTol*(1+math.Abs(rhsUp))
		}
	}
	return lowImplied, upImplied, rhsLow, rhsUp
}

// substitute eliminates column piv through EQ row i. Returns false when the
// pivot's bound constraints would both survive (a range row, which the
// Problem form cannot express), leaving the row untouched.
func (ps *reducer) substitute(i, piv int) bool {
	pk := none
	for k := ps.rowHead[i]; k >= 0; k = ps.cells[k].rNext {
		if int(ps.cells[k].col) == piv {
			pk = k
			break
		}
	}
	if pk < 0 {
		return false
	}
	a, b := ps.cells[pk].val, ps.b[i]
	ps.others = ps.snapshot(ps.others, i, pk)
	others := ps.others

	// x_piv = (b - others·x) / a must stay within [l,u]: each side is a
	// linear constraint on the others, kept only if not already implied by
	// their bounds.
	lPiv, uPiv := ps.l[piv], ps.u[piv]
	lowImplied, upImplied := true, true
	rhsLow, rhsUp := b-a*lPiv, 0.0
	if ps.assumeImplied {
		// vubPass has already proven both sides; skip the derivation.
		ps.assumeImplied = false
	} else {
		minAct, maxAct := ps.activity(others)
		lowImplied, upImplied, rhsLow, rhsUp = impliedSides(a, b, lPiv, uPiv, minAct, maxAct)
		lowImplied, upImplied = ps.impliedByRows(piv, i, lowImplied, upImplied)
		if !lowImplied && !upImplied {
			return false
		}
	}

	// Rewrite every other row containing the pivot.
	for k := ps.colHead[piv]; k >= 0; {
		next := ps.cells[k].cNext
		if r := int(ps.cells[k].row); r != i {
			f := ps.cells[k].val / a
			ps.remove(k)
			ps.addToRow(r, others, -f)
			ps.b[r] -= f * b
		}
		k = next
	}
	// And the objective (the constant c_piv*b/a drops; Postsolve recomputes
	// the true objective from the original coefficients).
	if ps.c[piv] != 0 { //vmalloc:nondet-ok structural zero test on stored objective coefficient
		f := ps.c[piv] / a
		for _, e := range others {
			ps.c[e.j] -= f * e.v
		}
		ps.c[piv] = 0
	}
	ps.colAlive[piv] = false
	ps.records = append(ps.records, record{
		kind: recSubst, col: piv, a: a, b: b,
		off: len(ps.terms), cnt: len(others),
	})
	ps.terms = append(ps.terms, others...)
	ps.stats.SubstCols++

	// The host row lives on as the pivot's one unimplied bound constraint on
	// the others — the row minus its pivot cell — or not at all.
	switch {
	case lowImplied && upImplied:
		ps.dropRow(i)
	case lowImplied:
		// Keep x_piv <= u:  a>0: others >= rhsUp ;  a<0: others <= rhsUp.
		ps.remove(pk)
		ps.b[i] = rhsUp
		if a > 0 {
			ps.sense[i] = lp.GE
		} else {
			ps.sense[i] = lp.LE
		}
	default:
		// Keep x_piv >= l:  a>0: others <= rhsLow ;  a<0: others >= rhsLow.
		ps.remove(pk)
		ps.b[i] = rhsLow
		if a > 0 {
			ps.sense[i] = lp.LE
		} else {
			ps.sense[i] = lp.GE
		}
	}
	return true
}

// vubPass eliminates doubleton inequality rows — variable-bound rows like
// the paper's Eq. 4 (y_jh - e_jh <= 0) — by introducing the row's slack as
// an explicit column, converting the row to an equality, and substituting
// the bounded variable out through it. Conversion is only paid when both of
// the pivot's bound constraints are implied (by the remaining variables'
// activity or by other rows), so the substitution deletes the row outright
// instead of morphing it back into an inequality. On the paper's encoding
// this removes all H*J Eq. 4 rows: the placement fraction's [0,1] range is
// implied by y,s >= 0 below and the Eq. 3 convexity row above, shrinking
// the 8x64 relaxation from 656 rows to under 150 and with it every
// per-iteration btran/ftran the simplex performs.
func (ps *reducer) vubPass() bool {
	changed := false
	for i := 0; i < ps.m; i++ {
		if !ps.rowAlive[i] || ps.sense[i] == lp.EQ || ps.rowLen[i] != 2 {
			continue
		}
		k0 := ps.rowHead[i]
		k1 := ps.cells[k0].rNext
		row := [2]entry{{int(ps.cells[k0].col), ps.cells[k0].val}, {int(ps.cells[k1].col), ps.cells[k1].val}}
		if row[0].j == row[1].j {
			continue // degenerate duplicate-column row
		}
		sigma := 1.0 // slack sign: LE gains a slack, GE a surplus
		if ps.sense[i] == lp.GE {
			sigma = -1
		}
		maxAbs := math.Max(math.Abs(row[0].v), math.Abs(row[1].v))
		// Try the lower-fill candidate first and stop at the first that
		// qualifies: the implication check reads the rows containing the
		// pivot, so the second candidate is only worth testing when the
		// first fails.
		first := 0
		if ps.colCnt[row[1].j] < ps.colCnt[row[0].j] {
			first = 1
		}
		best := -1
		for _, t := range [2]int{first, 1 - first} {
			piv, part := row[t], row[1-t]
			if a := math.Abs(piv.v); a < 1e-7 || a < 1e-2*maxAbs {
				continue // numerically weak pivot
			}
			if int(ps.colCnt[piv.j])-1 > maxPivotRows {
				continue
			}
			if ps.vubBothImplied(i, piv, part, sigma) {
				best = t
				break
			}
		}
		if best < 0 {
			continue
		}
		piv := row[best].j
		ps.addSlackCol(i, sigma)
		ps.sense[i] = lp.EQ
		// The substitution reuses the implications just proven (via
		// assumeImplied) and deletes the row; the converted row would remain
		// an exact reformulation of the inequality even if it survived.
		ps.assumeImplied = true
		ps.substitute(i, piv)
		changed = true
		if ps.infeasible {
			return changed
		}
	}
	return changed
}

// vubBothImplied reports whether, once doubleton row i gains its slack
// column, substituting piv out would leave both of piv's bound constraints
// implied — the only case worth paying a synthetic column for. This mirrors
// substitute's two-sided test with the prospective slack's [0, inf) range
// folded into the residual activity.
func (ps *reducer) vubBothImplied(i int, piv, part entry, sigma float64) bool {
	minAct, maxAct := ps.activity([]entry{part})
	if sigma > 0 {
		maxAct = math.Inf(1)
	} else {
		minAct = math.Inf(-1)
	}
	lowImplied, upImplied, _, _ := impliedSides(piv.v, ps.b[i], ps.l[piv.j], ps.u[piv.j], minAct, maxAct)
	lowImplied, upImplied = ps.impliedByRows(piv.j, i, lowImplied, upImplied)
	return lowImplied && upImplied
}

// addSlackCol appends a fresh column holding row i's slack (sigma=+1) or
// surplus (sigma=-1): bounds [0, inf), zero objective, a single entry in
// row i.
func (ps *reducer) addSlackCol(i int, sigma float64) {
	j := ps.n
	ps.n++
	ps.l = append(ps.l, 0)
	ps.u = append(ps.u, math.Inf(1))
	ps.c = append(ps.c, 0)
	ps.colAlive = append(ps.colAlive, true)
	ps.colHead = append(ps.colHead, none)
	ps.colCnt = append(ps.colCnt, 0)
	ps.insert(i, none, j, sigma) // j exceeds every id: the row stays sorted
	ps.stats.DoubletonSlacks++
}

// impliedByRows completes an implied-free test. The host row is not the only
// source of implied pivot bounds: any other alive row containing the pivot
// constrains it too, through the other variables' residual activity (the
// derivation propagate uses, without committing the bound). When one of them
// forces a side the host row leaves open, that side's residual constraint is
// redundant — on the paper's encoding this is what fully deletes the Eq. 3
// rows, since y <= e implies every placement pivot's lower bound of zero.
// Given which sides are already implied, it returns both with the rows'
// contribution; a side is implied when the tightest row-derived bound on it
// is, so the walk stops at the first row that settles the last open side
// and skips rows that cannot speak to an open one.
func (ps *reducer) impliedByRows(piv, skipRow int, lowImplied, upImplied bool) (bool, bool) {
	lPiv, uPiv := ps.l[piv], ps.u[piv]
	lowT := lPiv - redTol*(1+math.Abs(lPiv)) // implied lower bounds at or above this settle the low side
	upT := uPiv + redTol*(1+math.Abs(uPiv))
	for k := ps.colHead[piv]; k >= 0 && !(lowImplied && upImplied); k = ps.cells[k].cNext {
		r, v := int(ps.cells[k].row), ps.cells[k].val
		if r == skipRow || math.Abs(v) < dropCoefTol {
			continue
		}
		le := ps.sense[r] == lp.LE || ps.sense[r] == lp.EQ
		ge := ps.sense[r] == lp.GE || ps.sense[r] == lp.EQ
		// A <= row bounds the pivot above through a positive coefficient and
		// below through a negative one; a >= row the other way round.
		leOpen := le && ((v > 0 && !upImplied) || (v < 0 && !lowImplied))
		geOpen := ge && ((v > 0 && !lowImplied) || (v < 0 && !upImplied))
		if !leOpen && !geOpen {
			continue
		}
		minAct, maxAct := ps.rowActivity(r)
		var restMin, restMax float64
		if v > 0 {
			restMin, restMax = minAct-v*lPiv, maxAct-v*uPiv
		} else {
			restMin, restMax = minAct-v*uPiv, maxAct-v*lPiv
		}
		b := ps.b[r]
		if leOpen && !math.IsInf(restMin, 0) && !math.IsNaN(restMin) {
			bound := (b - restMin) / v
			if v > 0 {
				upImplied = upImplied || bound <= upT
			} else {
				lowImplied = lowImplied || bound >= lowT
			}
		}
		if geOpen && !math.IsInf(restMax, 0) && !math.IsNaN(restMax) {
			bound := (b - restMax) / v
			if v > 0 {
				lowImplied = lowImplied || bound >= lowT
			} else {
				upImplied = upImplied || bound <= upT
			}
		}
	}
	return lowImplied, upImplied
}

// emit builds the reduced lp.Problem. GE rows are normalized to LE by
// negation here: with a nonnegative right-hand side a LE slack enters the
// initial basis directly, while the equivalent GE row would demand a
// phase-1 artificial — the normalization is what lets fully-presolved
// models start phase 2 immediately. Slack values are identical either way
// (s = |a·x - b|). The CSC is laid out by counting sort over the surviving
// rows, so entries within a column sit in row order; structural zeros are
// not stored. colKeep maps each reduced column to its reducer column.
func (ps *reducer) emit(maxIter int) (red *lp.Problem, colKeep []int) {
	colKeep = make([]int, 0, ps.aliveCols())
	colMap := sliceutil.Grow(ps.colMap, ps.n) // reducer column -> reduced column, or -1
	for j := range colMap {
		colMap[j] = -1
		if ps.colAlive[j] {
			colMap[j] = len(colKeep)
			colKeep = append(colKeep, j)
		}
	}
	rowKeep := ps.rowKeep[:0]
	for i := 0; i < ps.m; i++ {
		if ps.rowAlive[i] {
			rowKeep = append(rowKeep, i)
		}
	}
	ps.colMap, ps.rowKeep = colMap, rowKeep

	nr, mr := len(colKeep), len(rowKeep)
	csc := &lp.CSC{M: mr, N: nr, ColPtr: make([]int, nr+1)}
	for _, i := range rowKeep {
		for k := ps.rowHead[i]; k >= 0; k = ps.cells[k].rNext {
			if ps.cells[k].val != 0 { //vmalloc:nondet-ok structural zero left out of the sparse matrix; exact by construction
				csc.ColPtr[colMap[ps.cells[k].col]+1]++
			}
		}
	}
	for j := 0; j < nr; j++ {
		csc.ColPtr[j+1] += csc.ColPtr[j]
	}
	nnz := csc.ColPtr[nr]
	csc.RowIdx = make([]int, nnz)
	csc.Val = make([]float64, nnz)
	senses := make([]lp.Sense, mr)
	f := make([]float64, mr+3*nr) // one block: b, obj, lower, upper
	bs, obj, lower, upper := f[:mr:mr], f[mr:mr+nr:mr+nr], f[mr+nr:mr+2*nr:mr+2*nr], f[mr+2*nr:]
	for rr, i := range rowKeep {
		sgn := 1.0
		senses[rr] = ps.sense[i]
		if ps.sense[i] == lp.GE {
			sgn = -1
			senses[rr] = lp.LE
		}
		bs[rr] = sgn * ps.b[i]
		for k := ps.rowHead[i]; k >= 0; k = ps.cells[k].rNext {
			cl := &ps.cells[k]
			if cl.val != 0 { //vmalloc:nondet-ok structural zero left out of the sparse matrix; exact by construction
				cr := colMap[cl.col]
				at := csc.ColPtr[cr] // the column's fill cursor until the shift below
				csc.ColPtr[cr]++
				csc.RowIdx[at] = rr
				csc.Val[at] = sgn * cl.val
			}
		}
	}
	copy(csc.ColPtr[1:], csc.ColPtr[:nr]) // every cursor ended at the next column's start
	csc.ColPtr[0] = 0
	for cr, j := range colKeep {
		obj[cr] = ps.c[j]
		lower[cr] = ps.l[j]
		upper[cr] = ps.u[j]
	}
	red = &lp.Problem{
		Obj:     obj,
		Cols:    csc,
		Sense:   senses,
		B:       bs,
		Upper:   upper,
		Lower:   lower,
		MaxIter: maxIter,
	}
	return red, colKeep
}
