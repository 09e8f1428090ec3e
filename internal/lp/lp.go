// Package lp solves linear programs with bounded variables. It stands in for
// the GLPK/CPLEX back-ends used in the paper (§3.2): the resource-allocation
// relaxation (Eqs. 1–7) only needs a correct optimum, not an
// industrial-strength solver.
//
// The model maximizes c·x subject to A x {<=,>=,=} b and l <= x <= u, where
// upper bounds may be +Inf, with A held in compressed-sparse-column form.
// Bounds are handled implicitly (bounded-variable simplex with bound flips)
// so the [0,1] box constraints of the relaxation do not inflate the row
// count. The solver is the sparse revised simplex with LU factorization and
// warm starts: Simplex.SolveWarm for a one-shot solve, Workspace.Solve for a
// sequence of solves on one caller-owned workspace. Every answer carries a
// witness for its status — row duals, a Farkas vector or a ray — and Check
// verifies it in one pass over the matrix, without solving again.
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

// Status reports the outcome of a solve.
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
	// solver handles them by variable shifting, so nonzero lower bounds do
	// not inflate the row count (internal/milp fixes binaries to 1 this way).
	Lower []float64
	// MaxIter caps the total simplex iterations across both phases. Zero
	// selects the automatic cap 200*(rows+columns+10), which is generous
	// enough that only genuinely degenerate instances hit it (the solver
	// switches to Bland's rule after a degenerate stall, so the cap bounds
	// slow convergence, not cycling). When the cap is hit the solver
	// returns ErrIterLimit alongside a Status == IterLimit solution.
	MaxIter int
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.Obj) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return p.Cols.M }

// bounds returns the box [l, u] of variable j.
func (p *Problem) bounds(j int) (l, u float64) {
	l, u = 0, math.Inf(1)
	if p.Lower != nil {
		l = p.Lower[j]
	}
	if p.Upper != nil {
		u = p.Upper[j]
	}
	return l, u
}

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
		l, u := p.bounds(j)
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

// Solution holds the result of a solve, with the witness Check verifies for
// its status.
type Solution struct {
	Status Status
	// X holds the values of the structural variables: the optimum, or when
	// Status == Unbounded a feasible point from which Ray ascends.
	X         []float64
	Objective float64 // objective value at X (valid when Status == Optimal)
	Iters     int     // simplex iterations performed across both phases
	// Duals holds one value per constraint row. When Status == Optimal they
	// are the row duals: for this maximization form LE rows have Duals[i] >=
	// 0 and GE rows Duals[i] <= 0, and their weak-duality bound (see Check)
	// meets Objective. When Status == Infeasible they are a Farkas vector,
	// whose bound with a zero objective is negative: the phase-1 duals of a
	// cold solve, or the row of the basis inverse that the dual simplex of a
	// warm solve found it could not repair.
	Duals []float64
	// Ray, when Status == Unbounded, is the direction the ratio test failed
	// to block: the objective grows along it from X without bound.
	Ray []float64
	// Basis is the optimal simplex basis, populated by the revised simplex
	// when Status == Optimal. Pass it back to the solver that returned it to
	// warm-start the next solve of a same-shaped problem.
	Basis *Basis
	// WarmStarted reports whether a supplied warm basis was actually used
	// (a stale or mismatched basis makes the solver fall back to a cold
	// start rather than fail).
	WarmStarted bool
	// Refactorizations counts LU rebuilds of the basis.
	Refactorizations int
	// BlandActivations counts switches from Dantzig pricing into Bland's
	// anti-cycling rule after a degenerate stall.
	BlandActivations int
}

const (
	pivotTol   = 1e-9
	costTol    = 1e-9
	feasTol    = 1e-7
	zeroClampT = 1e-11
)

// stalePick marks revised.pick as unknown: the next pivot scans for its
// entering column.
const stalePick = -2

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
