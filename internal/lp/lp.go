// Package lp solves linear programs with bounded variables. It stands in for
// the GLPK/CPLEX back-ends used in the paper (§3.2): the resource-allocation
// relaxation (Eqs. 1–7) only needs a correct optimum, not an
// industrial-strength solver.
//
// The model maximizes c·x subject to A x {<=,>=,=} b and l <= x <= u, where
// upper bounds may be +Inf, with A held in compressed-sparse-column form.
// Bounds are handled implicitly (bounded-variable simplex with bound flips)
// so the [0,1] box constraints of the relaxation do not inflate the row
// count. The production solver is the sparse revised simplex with LU
// factorization and warm starts: Simplex.SolveWarm for a one-shot solve,
// Workspace.Solve for a sequence of solves on one caller-owned workspace.
// Solve, a dense two-phase tableau, is kept as the differential oracle the
// tests check the revised simplex against.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the relational operator of one constraint row.
type Sense int

const (
	// LE is a <= constraint.
	LE Sense = iota
	// GE is a >= constraint.
	GE
	// EQ is an equality constraint.
	EQ
)

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no feasible point exists.
	Infeasible
	// Unbounded means the objective is unbounded above.
	Unbounded
	// IterLimit means the iteration cap was hit before convergence.
	IterLimit
)

// ErrIterLimit is returned (wrapped) by Simplex.SolveWarm and Workspace.Solve
// when the simplex hits its iteration cap before reaching optimality; the
// accompanying Solution still reports Status == IterLimit and the iteration
// count. Test with errors.Is.
var ErrIterLimit = errors.New("lp: simplex iteration limit reached")

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is a linear program in the solver's canonical form: maximize Obj·x
// subject to the rows of the constraint matrix, with every variable bounded
// to [Lower[j], Upper[j]] (Lower defaults to 0).
type Problem struct {
	// Obj holds the objective coefficients (length = number of variables).
	Obj []float64
	// Cols holds the constraint matrix in compressed-sparse-column form; a
	// hand-written dense matrix converts with NewCSCFromDense.
	Cols *CSC
	// Sense holds the relational operator of each row.
	Sense []Sense
	// B holds the right-hand side of each row.
	B []float64
	// Upper holds per-variable upper bounds; math.Inf(1) means unbounded
	// above. A nil Upper means all variables are unbounded above.
	Upper []float64
	// Lower holds per-variable lower bounds; nil means all zero. Lower
	// bounds must be finite and not exceed the matching upper bound. The
	// solvers handle them by variable shifting, so nonzero lower bounds do
	// not inflate the row count (internal/milp fixes binaries to 1 this way).
	Lower []float64
	// MaxIter caps the total simplex iterations across both phases. Zero
	// selects the automatic cap 200*(rows+columns+10), which is generous
	// enough that only genuinely degenerate instances hit it (the solvers
	// switch to Bland's rule after a degenerate stall, so the cap bounds
	// slow convergence, not cycling). When the cap is hit the sparse
	// solvers return ErrIterLimit alongside a Status == IterLimit solution.
	MaxIter int
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.Obj) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return p.Cols.M }

// Validate checks dimensional consistency and that every objective
// coefficient, right-hand side, matrix entry and bound is a number the
// simplex can pivot on: all finite, except that an upper bound may be +Inf.
func (p *Problem) Validate() error {
	n := p.NumVars()
	if n == 0 {
		return errors.New("lp: no variables")
	}
	if p.Cols == nil {
		return errors.New("lp: no constraint matrix")
	}
	if err := p.Cols.validate(); err != nil {
		return err
	}
	if p.Cols.N != n {
		return fmt.Errorf("lp: Cols has %d columns, want %d", p.Cols.N, n)
	}
	if len(p.B) != p.Cols.M || len(p.Sense) != p.Cols.M {
		return fmt.Errorf("lp: rows mismatch: |Cols|=%d |B|=%d |Sense|=%d", p.Cols.M, len(p.B), len(p.Sense))
	}
	for j, c := range p.Obj {
		if !finite(c) {
			return fmt.Errorf("lp: non-finite objective coefficient %g for variable %d", c, j)
		}
	}
	for i, b := range p.B {
		if !finite(b) {
			return fmt.Errorf("lp: non-finite right-hand side %g in row %d", b, i)
		}
	}
	for k, v := range p.Cols.Val {
		if !finite(v) {
			return fmt.Errorf("lp: non-finite coefficient %g in row %d", v, p.Cols.RowIdx[k])
		}
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("lp: |Upper|=%d, want %d", len(p.Upper), n)
	}
	if p.Lower != nil && len(p.Lower) != n {
		return fmt.Errorf("lp: |Lower|=%d, want %d", len(p.Lower), n)
	}
	for j := 0; j < n; j++ {
		l, u := 0.0, math.Inf(1)
		if p.Lower != nil {
			l = p.Lower[j]
		}
		if p.Upper != nil {
			u = p.Upper[j]
		}
		if math.IsNaN(u) || u < l {
			return fmt.Errorf("lp: invalid bounds [%g,%g] for variable %d", l, u, j)
		}
		if math.IsInf(l, 0) || math.IsNaN(l) {
			return fmt.Errorf("lp: invalid lower bound %g for variable %d", l, j)
		}
		if p.Lower == nil && u < 0 {
			return fmt.Errorf("lp: invalid upper bound %g for variable %d", u, j)
		}
	}
	if p.MaxIter < 0 {
		return fmt.Errorf("lp: negative MaxIter %d", p.MaxIter)
	}
	return nil
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// Solution holds the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // values of the structural variables
	Objective float64   // objective value at X (valid when Status == Optimal)
	Iters     int       // simplex iterations performed across both phases
	// Duals holds one dual value per constraint row (valid when Status ==
	// Optimal). For this maximization form, LE rows have Duals[i] >= 0 and
	// GE rows Duals[i] <= 0 at optimality; together with the upper-bound
	// duals they satisfy strong duality:
	// Objective = Duals·B + Σ_j BoundDuals[j]·Upper[j].
	Duals []float64
	// BoundDuals holds the dual value of each variable's upper bound
	// (nonzero only for variables at their upper bound). For problems with
	// nonzero lower bounds the strong-duality identity additionally involves
	// lower-bound duals, which are not reported.
	BoundDuals []float64
	// Basis is the optimal simplex basis, populated by the revised simplex
	// when Status == Optimal. Pass it back to the solver that returned it to
	// warm-start the next solve of a same-shaped problem.
	Basis *Basis
	// WarmStarted reports whether a supplied warm basis was actually used
	// (a stale or mismatched basis makes the solver fall back to a cold
	// start rather than fail).
	WarmStarted bool
	// Refactorizations counts LU rebuilds of the basis (sparse/revised
	// solver only; the dense tableau never factorizes).
	Refactorizations int
	// BlandActivations counts switches from Dantzig pricing into Bland's
	// anti-cycling rule after a degenerate stall.
	BlandActivations int
	// Presolve carries the reduction counters when the problem was solved
	// through presolve.Backend; nil for a direct simplex solve.
	Presolve *PresolveStats
}

// PresolveStats summarizes what presolve eliminated before the simplex ran.
// It lives in this package (not internal/presolve) so Solution can carry it
// without an import cycle; presolve.Backend fills it in.
type PresolveStats struct {
	RowsEliminated  int `json:"rows_eliminated"`
	ColsEliminated  int `json:"cols_eliminated"`
	FixedCols       int `json:"fixed_cols"`
	DroppedRows     int `json:"dropped_rows"`
	SubstCols       int `json:"subst_cols"`
	BoundsTightened int `json:"bounds_tightened"`
	DoubletonSlacks int `json:"doubleton_slacks"`
}

const (
	pivotTol   = 1e-9
	costTol    = 1e-9
	feasTol    = 1e-7
	zeroClampT = 1e-11
)

// iterCap resolves the effective iteration limit: a caller-supplied
// Problem.MaxIter when positive, else the automatic cap.
func iterCap(maxIter, m, n int) int {
	if maxIter > 0 {
		return maxIter
	}
	return 200 * (m + n + 10)
}

// variable status within the simplex dictionary.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
)

// tableau is the mutable simplex state: T = B^{-1} * [A | I_slack | I_art],
// the reduced-cost row, current basic values, and variable metadata.
type tableau struct {
	m, n    int // rows, total columns (structural + slack + artificial)
	nStruct int
	nReal   int // structural + slack (artificials are columns >= nReal)
	t       [][]float64
	rhs     []float64 // current values of basic variables, per row
	obj     []float64 // reduced costs d_j for the current objective
	upper   []float64 // per-column upper bound (lower bounds are all 0)
	status  []varStatus
	basis   []int // basis[i] = column basic in row i
	banned  []bool
	rowSign []float64 // +1/-1 applied to each row during normalization
	iters   int
	maxIter int

	blandActs int // Dantzig -> Bland switches, surfaced on the Solution
}

// Solve maximizes the problem with the two-phase bounded simplex method on a
// dense tableau, densifying the constraint matrix first. It is the reference
// the tests hold the revised simplex to; production solves go through
// Simplex.SolveWarm or Workspace.Solve.
func Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	orig := p
	p, lower := p.shiftLower()
	tb := newTableau(p, p.Cols.Dense())

	// Phase 1: maximize -(sum of artificials). Feasible iff optimum is ~0.
	if tb.needPhase1() {
		for j := tb.nReal; j < tb.n; j++ {
			tb.setPhaseCost(j, -1)
		}
		tb.priceOut()
		st := tb.iterate()
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iters: tb.iters, BlandActivations: tb.blandActs}, nil
		}
		if tb.phase1Objective() < -feasTol {
			return &Solution{Status: Infeasible, Iters: tb.iters, BlandActivations: tb.blandActs}, nil
		}
		tb.driveOutArtificials()
	}
	for j := tb.nReal; j < tb.n; j++ {
		tb.banned[j] = true
		tb.upper[j] = 0
	}

	// Phase 2: true objective.
	tb.loadObjective(p.Obj)
	st := tb.iterate()
	sol := &Solution{Status: st, Iters: tb.iters, BlandActivations: tb.blandActs}
	if st != Optimal {
		return sol, nil
	}
	x := tb.extract()
	sol.X = x[:tb.nStruct]
	for j, c := range p.Obj {
		sol.Objective += c * sol.X[j]
	}
	sol.Duals = tb.duals()
	sol.BoundDuals = tb.boundDuals()
	unshiftSolution(sol, orig.Obj, lower)
	return sol, nil
}

// shiftLower returns an equivalent problem whose lower bounds are all zero,
// plus the per-variable offsets applied (nil when no shifting was needed).
// Substituting x = l + x' leaves the matrix untouched: only B and Upper move.
func (p *Problem) shiftLower() (*Problem, []float64) {
	if p.Lower == nil {
		return p, nil
	}
	shifted := false
	for _, l := range p.Lower {
		if l != 0 { //vmalloc:nondet-ok structural zero test: only exactly-zero lower bounds skip the shift
			shifted = true
			break
		}
	}
	if !shifted {
		q := *p
		q.Lower = nil
		return &q, nil
	}
	n := p.NumVars()
	q := *p
	q.Lower = nil
	q.Upper = make([]float64, n)
	for j := 0; j < n; j++ {
		u := math.Inf(1)
		if p.Upper != nil {
			u = p.Upper[j]
		}
		q.Upper[j] = u - p.Lower[j] // Inf stays Inf
	}
	q.B = append([]float64(nil), p.B...)
	c := p.Cols
	for j := 0; j < n; j++ {
		l := p.Lower[j]
		if l == 0 { //vmalloc:nondet-ok structural zero test: only exactly-zero lower bounds skip the shift
			continue
		}
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			q.B[c.RowIdx[k]] -= c.Val[k] * l
		}
	}
	return &q, p.Lower
}

// unshiftSolution translates a solution of the lower-shifted problem back to
// the original variable space. Row duals and upper-bound duals are unchanged
// by the shift.
func unshiftSolution(sol *Solution, obj, lower []float64) {
	if lower == nil || sol.X == nil {
		return
	}
	for j := range sol.X {
		sol.X[j] += lower[j]
		sol.Objective += obj[j] * lower[j]
	}
}

// duals recovers the constraint duals y = c_B·B^{-1} from the reduced costs
// of the artificial columns: artificial i entered the sign-normalized system
// as the identity column e_i, so d_{art_i} = -y'_i, and the dual of the
// original row is rowSign_i · y'_i.
func (tb *tableau) duals() []float64 {
	y := make([]float64, tb.m)
	for i := 0; i < tb.m; i++ {
		y[i] = tb.rowSign[i] * -tb.obj[tb.nReal+i]
	}
	return y
}

// boundDuals returns the dual of each structural variable's upper bound:
// the reduced cost of variables resting at their upper bound (clamped at 0),
// zero elsewhere.
func (tb *tableau) boundDuals() []float64 {
	w := make([]float64, tb.nStruct)
	for j := 0; j < tb.nStruct; j++ {
		if tb.status[j] == atUpper && tb.obj[j] > 0 {
			w[j] = tb.obj[j]
		}
	}
	return w
}

// newTableau converts the problem, whose constraint matrix a holds densified,
// to equality form with slack variables and one artificial per row,
// sign-normalized so every right-hand side is >= 0, and seeds the basis with
// slacks where possible, artificials elsewhere.
func newTableau(p *Problem, a [][]float64) *tableau {
	m, ns := p.NumRows(), p.NumVars()
	nSlack := 0
	slackOf := make([]int, m)
	for i, s := range p.Sense {
		if s == EQ {
			slackOf[i] = -1
		} else {
			slackOf[i] = ns + nSlack
			nSlack++
		}
	}
	nReal := ns + nSlack
	n := nReal + m // one artificial per row; unused ones stay nonbasic at 0

	tb := &tableau{
		m: m, n: n, nStruct: ns, nReal: nReal,
		t:       make([][]float64, m),
		rhs:     make([]float64, m),
		obj:     make([]float64, n),
		upper:   make([]float64, n),
		status:  make([]varStatus, n),
		basis:   make([]int, m),
		banned:  make([]bool, n),
		rowSign: make([]float64, m),
		// Generous cap: phase transitions and degeneracy need headroom.
		maxIter: iterCap(p.MaxIter, m, n),
	}
	for j := 0; j < ns; j++ {
		if p.Upper != nil {
			tb.upper[j] = p.Upper[j]
		} else {
			tb.upper[j] = math.Inf(1)
		}
	}
	for j := ns; j < n; j++ {
		tb.upper[j] = math.Inf(1)
	}

	for i := 0; i < m; i++ {
		row := make([]float64, n)
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		tb.rowSign[i] = sign
		for j := 0; j < ns; j++ {
			row[j] = sign * a[i][j]
		}
		rhs := sign * p.B[i]
		if sj := slackOf[i]; sj >= 0 {
			// LE gets +slack, GE gets -slack (before sign normalization).
			c := 1.0
			if p.Sense[i] == GE {
				c = -1
			}
			row[sj] = sign * c
		}
		aj := nReal + i
		row[aj] = 1
		tb.t[i] = row
		tb.rhs[i] = rhs

		// Prefer the slack as the initial basic variable when its
		// coefficient is +1 (so the basis starts as an identity without
		// artificials for that row).
		if sj := slackOf[i]; sj >= 0 && row[sj] == 1 { //vmalloc:nondet-ok slack coefficients are exactly 1 by construction
			tb.basis[i] = sj
			tb.status[sj] = basic
			tb.upper[aj] = 0 // artificial never needed for this row
		} else {
			tb.basis[i] = aj
			tb.status[aj] = basic
		}
	}
	return tb
}

// needPhase1 reports whether any artificial variable is basic.
func (tb *tableau) needPhase1() bool {
	for _, b := range tb.basis {
		if b >= tb.nReal {
			return true
		}
	}
	return false
}

// setPhaseCost assigns raw cost c to column j (used for phase 1).
func (tb *tableau) setPhaseCost(j int, c float64) { tb.obj[j] = c }

// priceOut recomputes reduced costs assuming tb.obj currently holds raw
// costs: d = c - c_B^T B^{-1} A, using the tableau rows as B^{-1}A.
func (tb *tableau) priceOut() {
	raw := make([]float64, tb.n)
	copy(raw, tb.obj)
	for i := 0; i < tb.m; i++ {
		cb := raw[tb.basis[i]]
		if cb == 0 { //vmalloc:nondet-ok structural zero test on stored cost coefficient
			continue
		}
		row := tb.t[i]
		for j := 0; j < tb.n; j++ {
			tb.obj[j] -= cb * row[j]
		}
	}
	for i := 0; i < tb.m; i++ {
		tb.obj[tb.basis[i]] = 0
	}
}

// loadObjective installs the phase-2 objective (raw costs over structural
// variables) and prices it out against the current basis.
func (tb *tableau) loadObjective(c []float64) {
	for j := range tb.obj {
		tb.obj[j] = 0
	}
	copy(tb.obj, c)
	tb.priceOut()
}

// phase1Objective returns -(sum of basic artificial values): 0 iff feasible.
func (tb *tableau) phase1Objective() float64 {
	s := 0.0
	for i, b := range tb.basis {
		if b >= tb.nReal {
			s -= tb.rhs[i]
		}
	}
	return s
}

// driveOutArtificials pivots basic artificials (all at value ~0 after a
// feasible phase 1) onto any real column with a nonzero tableau entry; rows
// with no such entry are redundant and keep a zero-fixed artificial.
func (tb *tableau) driveOutArtificials() {
	for i := 0; i < tb.m; i++ {
		if tb.basis[i] < tb.nReal {
			continue
		}
		row := tb.t[i]
		piv := -1
		for j := 0; j < tb.nReal; j++ {
			if tb.status[j] != basic && math.Abs(row[j]) > 1e-7 {
				piv = j
				break
			}
		}
		if piv >= 0 {
			tb.pivot(i, piv, tb.statusAfterZeroPivot(piv))
		}
	}
}

// statusAfterZeroPivot decides where the (degenerate, value-0) incoming
// variable sits: entering from lower keeps value 0 which is its lower bound.
func (tb *tableau) statusAfterZeroPivot(j int) float64 {
	if tb.status[j] == atUpper {
		return tb.upper[j]
	}
	return 0
}

// value returns the current value of column j.
func (tb *tableau) value(j int) float64 {
	switch tb.status[j] {
	case basic:
		for i, b := range tb.basis {
			if b == j {
				return tb.rhs[i]
			}
		}
		return 0
	case atUpper:
		return tb.upper[j]
	default:
		return 0
	}
}

// extract returns the values of all columns.
func (tb *tableau) extract() []float64 {
	x := make([]float64, tb.n)
	for j := 0; j < tb.n; j++ {
		if tb.status[j] == atUpper {
			x[j] = tb.upper[j]
		}
	}
	for i, b := range tb.basis {
		v := tb.rhs[i]
		if v < 0 && v > -feasTol {
			v = 0
		}
		x[b] = v
	}
	return x
}

// iterate runs primal simplex iterations until optimality, unboundedness, or
// the iteration cap. It uses Dantzig pricing and switches to Bland's rule
// after a long degenerate stall to guarantee termination.
func (tb *tableau) iterate() Status {
	stall := 0
	bland := false
	for ; tb.iters < tb.maxIter; tb.iters++ {
		enter := tb.chooseEntering(bland)
		if enter < 0 {
			return Optimal
		}
		gain := math.Abs(tb.obj[enter]) // per-unit objective improvement
		leaveRow, bound, delta := tb.ratioTest(enter)
		if leaveRow == -2 {
			return Unbounded
		}
		tb.apply(enter, leaveRow, bound, delta)

		// Anti-cycling: the objective strictly increases by gain*delta on a
		// non-degenerate pivot; a long run of zero-progress pivots switches
		// pricing to Bland's rule, which cannot cycle.
		if gain*delta > 1e-12 {
			stall = 0
			bland = false
		} else if stall++; stall > 2*(tb.m+10) {
			if !bland {
				tb.blandActs++
			}
			bland = true
		}
	}
	return IterLimit
}

// chooseEntering picks an improving nonbasic column, or -1 at optimality.
func (tb *tableau) chooseEntering(bland bool) int {
	best, bestScore := -1, costTol
	for j := 0; j < tb.n; j++ {
		if tb.status[j] == basic || tb.banned[j] || tb.upper[j] == 0 { //vmalloc:nondet-ok upper bound exactly 0 means fixed-at-zero variable; exact by construction
			continue
		}
		d := tb.obj[j]
		var score float64
		if tb.status[j] == atLower && d > costTol {
			score = d
		} else if tb.status[j] == atUpper && d < -costTol {
			score = -d
		} else {
			continue
		}
		if bland {
			return j
		}
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// ratioTest finds how far the entering variable can move. It returns the
// leaving row (-1 for a bound flip of the entering variable itself, -2 for
// unbounded), the bound the leaving basic variable reaches ("lower"/"upper"
// as a varStatus), and the step length.
func (tb *tableau) ratioTest(enter int) (row int, leaveTo varStatus, delta float64) {
	dir := 1.0
	if tb.status[enter] == atUpper {
		dir = -1
	}
	limit := math.Inf(1)
	if u := tb.upper[enter]; !math.IsInf(u, 1) {
		limit = u // bound-flip distance
	}
	row, leaveTo = -1, atLower
	for i := 0; i < tb.m; i++ {
		a := tb.t[i][enter] * dir
		if math.Abs(a) < pivotTol {
			continue
		}
		b := tb.basis[i]
		var ratio float64
		var to varStatus
		if a > 0 {
			// basic value decreases toward its lower bound 0
			ratio = tb.rhs[i] / a
			to = atLower
		} else {
			u := tb.upper[b]
			if math.IsInf(u, 1) {
				continue
			}
			ratio = (u - tb.rhs[i]) / -a
			to = atUpper
		}
		if ratio < -1e-9 {
			ratio = 0
		}
		if ratio < limit-1e-12 {
			limit = ratio
			row, leaveTo = i, to
		}
	}
	if math.IsInf(limit, 1) {
		return -2, atLower, 0
	}
	return row, leaveTo, limit
}

// apply performs either a bound flip (row == -1) or a pivot.
func (tb *tableau) apply(enter, row int, leaveTo varStatus, delta float64) {
	dir := 1.0
	if tb.status[enter] == atUpper {
		dir = -1
	}
	// Update all basic values along the step.
	if delta != 0 { //vmalloc:nondet-ok structural zero test: an exactly-zero step is a no-op update
		for i := 0; i < tb.m; i++ {
			tb.rhs[i] -= tb.t[i][enter] * dir * delta
			if tb.rhs[i] < 0 && tb.rhs[i] > -zeroClampT {
				tb.rhs[i] = 0
			}
		}
	}
	if row == -1 {
		// Bound flip: entering variable jumps to its opposite bound.
		if tb.status[enter] == atLower {
			tb.status[enter] = atUpper
		} else {
			tb.status[enter] = atLower
		}
		return
	}
	newVal := 0.0
	if tb.status[enter] == atLower {
		newVal = delta
	} else {
		newVal = tb.upper[enter] - delta
	}
	_ = leaveTo // the leaving bound is recovered from the updated rhs in pivot
	tb.pivot(row, enter, newVal)
}

// pivot makes column enter basic in the given row, with the entering
// variable taking value newVal. The previously basic column becomes nonbasic
// at whichever bound its (already updated) value matches.
func (tb *tableau) pivot(row, enter int, newVal float64) {
	old := tb.basis[row]
	p := tb.t[row][enter]
	inv := 1 / p
	r := tb.t[row]
	for j := 0; j < tb.n; j++ {
		r[j] *= inv
	}
	r[enter] = 1 // crush roundoff
	for i := 0; i < tb.m; i++ {
		if i == row {
			continue
		}
		f := tb.t[i][enter]
		if f == 0 { //vmalloc:nondet-ok structural zero test on stored coefficient
			continue
		}
		ri := tb.t[i]
		for j := 0; j < tb.n; j++ {
			ri[j] -= f * r[j]
		}
		ri[enter] = 0
	}
	if f := tb.obj[enter]; f != 0 { //vmalloc:nondet-ok structural zero test on stored objective coefficient
		for j := 0; j < tb.n; j++ {
			tb.obj[j] -= f * r[j]
		}
		tb.obj[enter] = 0
	}

	// Old basic variable leaves at the bound closest to its final value.
	if old != enter {
		u := tb.upper[old]
		leftVal := tb.rhs[row] // value it would have reached; rhs updated in apply
		if !math.IsInf(u, 1) && math.Abs(leftVal-u) < math.Abs(leftVal) {
			tb.status[old] = atUpper
		} else {
			tb.status[old] = atLower
		}
	}
	tb.basis[row] = enter
	tb.status[enter] = basic
	tb.rhs[row] = newVal
}
