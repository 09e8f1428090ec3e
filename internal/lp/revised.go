package lp

import (
	"fmt"
	"math"
	"sync"
)

// Simplex is the sparse revised simplex as a one-shot solver: the constraint
// matrix is stored column-sparse and the basis is held as sparse LU factors,
// so memory is O(m² + nnz) at worst. Each solve validates its problem and
// borrows a pooled Workspace.
type Simplex struct{}

// SolveWarm maximizes p, warm-started from the basis of a previous solve of
// a same-shaped problem when it fits (bounds, objective and right-hand side
// may differ; nil starts cold). When the basis still fits, the two simplex
// phases collapse into a refactorization plus the few pivots the
// perturbation requires: primal simplex pivots when the basis is still
// primal feasible, dual simplex pivots first when only the bounds or
// right-hand side moved (the basis is then still dual feasible). A basis
// that fits neither way, or that is singular or mismatched, costs only the
// failed checks before a cold start.
//
// When the iteration cap (Problem.MaxIter, or the automatic cap) is hit the
// returned error wraps ErrIterLimit and the Solution — still returned —
// carries Status == IterLimit plus the iteration count.
func (Simplex) SolveWarm(p *Problem, warm *Basis) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := workspacePool.Get().(*Workspace)
	defer workspacePool.Put(w)
	return w.Solve(p, warm)
}

// Workspace is the sparse revised simplex's state: the sign-normalized
// columns, their row-wise mirror, the LU factors and eta file, and every
// per-column and per-row vector a solve needs, in arenas that grow to fit
// the largest problem solved and are reused by the next solve. A solve on a
// warmed-up workspace allocates only the Solution it returns. The zero value
// is ready to use; a Workspace must not be used by two goroutines at once.
//
// One-shot solves (Simplex) borrow a pooled workspace; a caller that solves a
// sequence of related problems, such as the nodes of a branch-and-bound
// tree, owns one.
type Workspace struct {
	rv revised
}

var workspacePool = sync.Pool{New: func() any { return new(Workspace) }}

// Solve maximizes p, warm-started from warm when it fits (see
// Simplex.SolveWarm). Unlike Simplex.SolveWarm it does not validate p: an
// invalid problem is a bug in the caller and may panic. The workspace keeps
// no reference to p or to the returned Solution.
func (w *Workspace) Solve(p *Problem, warm *Basis) (*Solution, error) {
	sol := w.rv.solve(p, warm)
	if sol.Status == IterLimit {
		return sol, fmt.Errorf("%w (after %d iterations)", ErrIterLimit, sol.Iters)
	}
	return sol, nil
}

// solve runs one solve of p on the workspace. A warm basis that installs
// (see installBasis) and is primal feasible goes straight to the primal
// simplex; one that is primal infeasible but dual feasible — a bound change,
// such as a branch-and-bound child's fixing — is first finished by the dual
// simplex. Anything else starts cold through phase 1.
func (rv *revised) solve(p *Problem, warm *Basis) *Solution {
	rv.load(p)
	warmed, priced := false, false
	if warm != nil && rv.installBasis(warm) {
		rv.setObjective(p.Obj)
		switch {
		case rv.primalFeasible():
			warmed = true
		case rv.dualFeasible():
			switch rv.dualSimplex() {
			case Optimal:
				// The dual carried the reduced costs across its pivots.
				warmed, priced = true, true
			case Infeasible:
				return rv.result(p, Infeasible, true)
			}
		}
	}
	if !warmed {
		rv.coldBasis()
		if rv.needPhase1() {
			for i := 0; i < rv.m; i++ {
				rv.cost[rv.nReal+i] = -1
			}
			rv.priceAll()
			st := rv.iterate()
			if st == IterLimit {
				return rv.result(p, IterLimit, false)
			}
			if rv.phase1Objective() < -feasTol {
				return rv.result(p, Infeasible, false)
			}
			rv.driveOutArtificials()
		}
		rv.banArtificials()
		rv.setObjective(p.Obj)
	}
	if !priced {
		rv.priceAll()
	}
	return rv.result(p, rv.iterate(), warmed)
}

// columns is the sign-normalized equality-form matrix in compressed-sparse-
// column form over reusable arenas: column j's entries sit in rows and vals
// at start[j]:start[j+1]. Offsets rather than per-column slices keep a
// reload free of pointer writes.
type columns struct {
	start []int
	rows  []int
	vals  []float64
}

// col returns column j's row indices and values.
func (c *columns) col(j int) (rows []int, vals []float64) {
	a, b := c.start[j], c.start[j+1]
	return c.rows[a:b:b], c.vals[a:b:b]
}

// revised is the revised-simplex state. The basis is represented by a
// sparse LU factorization plus an eta file (see factor.go), never by an
// explicit inverse.
type revised struct {
	m, n     int
	nStruct  int
	nReal    int
	cols     columns   // all n columns: structural, slack, artificial
	slackOf  []int     // row -> its slack column, or -1 for an EQ row
	lower    []float64 // the problem's lower bounds, nil when all are zero
	lowerBuf []float64
	b        []float64 // sign-normalized, lower-shifted rhs
	rowSign  []float64
	lu       basisLU
	xB       []float64 // values of basic variables per row
	basis    []int
	inBasis  []int // column -> row, or -1
	status   []varStatus
	upper    []float64 // lower-shifted upper bounds
	cost     []float64 // raw costs of the current phase
	banned   []bool
	// dir is each column's entering direction, kept in step with status,
	// banned and upper: +1 nonbasic at its lower bound, -1 at its upper
	// bound, 0 when it cannot enter (basic, banned or fixed at zero).
	dir []float64
	// nPrice ends the columns that can enter: n while the artificials may
	// (phase 1), nReal once they are banned. Pricing, the pivot-row scatter
	// and every pass over d, dir and alpha stop there; a banned artificial's
	// d is left stale and its alpha stays zero.
	nPrice int
	// pick is the entering column the last pricing pass chose on its way
	// (see gatherDuals), -1 when it found none, or stalePick when d has
	// changed since in a way the pass did not see and the next pivot must
	// scan for its column.
	pick     int
	broken   bool // the basis stayed singular after repair; abort with IterLimit
	repaired bool // a refactorization repaired the basis; feasibility may be lost
	// rayCol is the entering column of an Unbounded exit; its FTRAN stays
	// in scratch for result to read the ray off.
	rayCol int

	// Work counters surfaced on the Solution for observability.
	refactors int // LU rebuilds
	blandActs int // Dantzig -> Bland switches after degenerate stalls

	// d holds the reduced costs, maintained incrementally across pivots via
	// the pivot row (alpha = rho·A computed row-wise through the CSR mirror)
	// and recomputed exactly at refactorizations and before any optimality
	// claim, so pricing drift can steer pivot choice but never the result.
	d []float64
	// CSR mirror of the sign-normalized equality-form matrix (structural,
	// slack and artificial columns), for row-wise pricing.
	rowPtr []int
	rowCol []int
	rowVal []float64
	// alpha holds the pivot row of B^{-1}A by column between pivotRow and
	// the gatherDuals or clearAlpha that zeroes it; zero everywhere else.
	alpha     []float64
	cand      []int     // dual ratio test scratch: candidate columns
	ratio     []float64 // and their ratios
	iters     int
	maxIter   int
	scratch   []float64
	yScratch  []float64
	cbScratch []float64
	rhs       []float64 // row-space scratch
	costSave  []float64 // column-space scratch
}

// load sizes the workspace for p and builds its sign-normalized columns,
// bounds and right-hand side, with lower bounds shifted to zero (x = l + x'
// moves only the right-hand side and the upper bounds). The basis is left
// for installBasis or coldBasis to set.
func (rv *revised) load(p *Problem) {
	m, ns := p.NumRows(), p.NumVars()
	rv.slackOf = grow(rv.slackOf, m)
	nSlack := 0
	for i, s := range p.Sense {
		if s == EQ {
			rv.slackOf[i] = -1
		} else {
			rv.slackOf[i] = ns + nSlack
			nSlack++
		}
	}
	nReal := ns + nSlack
	n := nReal + m
	rv.m, rv.n, rv.nStruct, rv.nReal, rv.nPrice = m, n, ns, nReal, n
	rv.iters, rv.refactors, rv.blandActs = 0, 0, 0
	rv.broken, rv.repaired = false, false
	rv.maxIter = iterCap(p.MaxIter, m, n)
	rv.pick = stalePick

	rv.cols.start = grow(rv.cols.start, n+1)
	rv.inBasis = grow(rv.inBasis, n)
	rv.status = grow(rv.status, n)
	rv.upper = grow(rv.upper, n)
	rv.cost = grow(rv.cost, n)
	rv.banned = grow(rv.banned, n)
	rv.dir = grow(rv.dir, n)
	rv.d = grow(rv.d, n)
	rv.alpha = grow(rv.alpha, n)
	clear(rv.alpha)
	rv.b = grow(rv.b, m)
	rv.rowSign = grow(rv.rowSign, m)
	rv.xB = grow(rv.xB, m)
	rv.basis = grow(rv.basis, m)
	rv.scratch = grow(rv.scratch, m)
	rv.yScratch = grow(rv.yScratch, m)
	rv.cbScratch = grow(rv.cbScratch, m)
	rv.rhs = grow(rv.rhs, m)
	rv.costSave = grow(rv.costSave, n)
	rv.lu.reset(m)

	rv.lower = nil
	for _, l := range p.Lower {
		if l != 0 { //vmalloc:nondet-ok structural zero test: only exactly-zero lower bounds skip the shift
			rv.lower = append(rv.lowerBuf[:0], p.Lower...)
			rv.lowerBuf = rv.lower
			break
		}
	}
	for j := 0; j < ns; j++ {
		u := math.Inf(1)
		if p.Upper != nil {
			u = p.Upper[j]
		}
		if rv.lower != nil {
			u -= rv.lower[j] // Inf stays Inf
		}
		rv.upper[j] = u
	}
	for j := ns; j < n; j++ {
		rv.upper[j] = math.Inf(1)
	}

	// Shift the right-hand side by the lower bounds, column by column.
	rhs := rv.rhs
	copy(rhs, p.B)
	pc := p.Cols
	if rv.lower != nil {
		for j := 0; j < ns; j++ {
			l := rv.lower[j]
			if l == 0 { //vmalloc:nondet-ok structural zero test: only exactly-zero lower bounds skip the shift
				continue
			}
			for k := pc.ColPtr[j]; k < pc.ColPtr[j+1]; k++ {
				rhs[pc.RowIdx[k]] -= pc.Val[k] * l
			}
		}
	}
	for i := 0; i < m; i++ {
		rv.rowSign[i] = 1
		if rhs[i] < 0 {
			rv.rowSign[i] = -1
		}
		rv.b[i] = rv.rowSign[i] * rhs[i]
	}

	// Sign-normalized columns in one arena: structural columns in input
	// order, then a singleton per slack and per artificial.
	nnz := nSlack + m + pc.NNZ()
	c := &rv.cols
	c.rows = grow(c.rows, nnz)
	c.vals = grow(c.vals, nnz)
	sign := rv.rowSign
	at := 0
	for j := 0; j < ns; j++ {
		c.start[j] = at
		for k := pc.ColPtr[j]; k < pc.ColPtr[j+1]; k++ {
			r := pc.RowIdx[k]
			c.rows[at], c.vals[at] = r, sign[r]*pc.Val[k]
			at++
		}
	}
	for i := 0; i < m; i++ {
		if sj := rv.slackOf[i]; sj >= 0 {
			v := 1.0
			if p.Sense[i] == GE {
				v = -1
			}
			c.start[sj] = at
			c.rows[at], c.vals[at] = i, sign[i]*v
			at++
		}
	}
	for i := 0; i < m; i++ {
		c.start[nReal+i] = at
		c.rows[at], c.vals[at] = i, 1
		at++
	}
	c.start[n] = at
	rv.buildCSR()
}

// coldBasis installs the crash basis of a cold start: per row the slack
// when its coefficient is +1, else the artificial, every other column at
// its lower bound, all costs zero.
func (rv *revised) coldBasis() {
	rv.nPrice = rv.n
	for j := 0; j < rv.n; j++ {
		rv.status[j] = atLower
		rv.inBasis[j] = -1
		rv.banned[j] = false
		rv.cost[j] = 0
		rv.d[j] = 0
	}
	for j := rv.nReal; j < rv.n; j++ {
		rv.upper[j] = math.Inf(1)
	}
	for i := 0; i < rv.m; i++ {
		rv.xB[i] = rv.b[i]
		col := rv.nReal + i
		if sj := rv.slackOf[i]; sj >= 0 && rv.cols.vals[rv.cols.start[sj]] == 1 { //vmalloc:nondet-ok slack coefficients are exactly 1 by construction
			col = sj
			rv.upper[rv.nReal+i] = 0
		}
		rv.basis[i] = col
		rv.inBasis[col] = i
		rv.status[col] = basic
	}
	for j := 0; j < rv.n; j++ {
		rv.setDir(j)
	}
	// The crash basis is all singleton ±1 columns; factorization is
	// trivial and cannot fail.
	rv.lu.factorize(rv.basis, &rv.cols)
}

// banArtificials disables the artificial columns for phase 2, as after a
// completed phase 1: fixed at zero, zero cost, never entering. A basic
// artificial (a redundant row) stays basic at ~0.
func (rv *revised) banArtificials() {
	for j := rv.nReal; j < rv.n; j++ {
		rv.banned[j] = true
		rv.upper[j] = 0
		rv.cost[j] = 0
		rv.dir[j] = 0
	}
	rv.nPrice = rv.nReal
}

// setObjective installs the phase-2 costs: the objective on the structural
// columns, zero on the slacks.
func (rv *revised) setObjective(obj []float64) {
	copy(rv.cost, obj)
	for j := rv.nStruct; j < rv.nReal; j++ {
		rv.cost[j] = 0
	}
}

// setDir recomputes column j's entering direction from its status, ban and
// upper bound.
func (rv *revised) setDir(j int) {
	switch {
	case rv.status[j] == basic || rv.banned[j] || rv.upper[j] == 0: //vmalloc:nondet-ok upper bound exactly 0 means fixed-at-zero variable; exact by construction
		rv.dir[j] = 0
	case rv.status[j] == atLower:
		rv.dir[j] = 1
	default:
		rv.dir[j] = -1
	}
}

// result packages the outcome of a solve with the witness Check verifies,
// translating the lower-shifted point back to the problem's variables. Each
// witness costs one allocation beside the Solution: X and Duals of an
// optimum, or X and Ray of an unbounded answer, in one backing array; the
// Farkas vector of an infeasible one. An optimal Solution shares its
// allocation with its Basis and costs a third for the basis contents.
//
// An optimal answer is read off a fresh factorization of the final basis —
// the two calls installBasis makes, then exact duals — not off the values
// the pivots updated along the way. It is then a function of the problem and
// its final basis alone: a warm re-solve from that basis, which takes no
// pivot, returns the same X, Objective and duals bit for bit. With no pivot
// since the last factorization (an empty eta file) the factors already are
// that fresh factorization, factorize being deterministic, and iterate
// priced against them; only the basic values are recomputed.
func (rv *revised) result(p *Problem, st Status, warmed bool) *Solution {
	head := Solution{Status: st, Iters: rv.iters, WarmStarted: warmed,
		Refactorizations: rv.refactors, BlandActivations: rv.blandActs}
	if st != Optimal {
		sol := new(Solution)
		*sol = head
		rv.witness(sol)
		return sol
	}
	ns, m := rv.nStruct, rv.m
	switch {
	case len(rv.lu.etaSlot) == 0:
		rv.refreshXB()
	case rv.lu.factorize(rv.basis, &rv.cols):
		rv.refreshXB()
		rv.dualVector() // y alone: no reduced cost is read after the solve
	}
	out := &struct {
		sol   Solution
		basis Basis
	}{sol: head}
	sol := &out.sol
	vals := make([]float64, ns+m)
	sol.X = vals[:ns:ns]
	sol.Duals = vals[ns:]
	rv.point(sol.X)
	for j, c := range p.Obj {
		sol.Objective += c * sol.X[j]
	}
	// y is exact: iterate priced it to confirm optimality.
	rv.rowDuals(sol.Duals)
	rv.captureBasis(&out.basis)
	sol.Basis = &out.basis
	if rv.lower != nil {
		for j := range sol.X {
			sol.X[j] += rv.lower[j]
			sol.Objective += p.Obj[j] * rv.lower[j]
		}
	}
	return sol
}

// witness fills the witness of an infeasible or unbounded answer: the
// Farkas vector in yScratch (the phase-1 duals, or the row dualSimplex
// oriented), or the ray of entering column rayCol — which moves by dir, each
// basic variable by −w·dir — with the point it starts from.
func (rv *revised) witness(sol *Solution) {
	ns, m := rv.nStruct, rv.m
	switch sol.Status {
	case Infeasible:
		sol.Duals = make([]float64, m)
		rv.rowDuals(sol.Duals)
	case Unbounded:
		vals := make([]float64, 2*ns)
		sol.X, sol.Ray = vals[:ns:ns], vals[ns:]
		dir := 1.0
		if rv.status[rv.rayCol] == atUpper {
			dir = -1
		}
		if rv.rayCol < ns {
			sol.Ray[rv.rayCol] = dir
		}
		for i, b := range rv.basis[:m] {
			if b < ns {
				sol.Ray[b] = -rv.scratch[i] * dir
			}
		}
		rv.refreshXB() // overwrites the FTRAN in scratch
		rv.point(sol.X)
		if rv.lower != nil {
			for j := range sol.X {
				sol.X[j] += rv.lower[j]
			}
		}
	}
}

// point writes the current point of the structural columns, in the
// lower-shifted space, into x: upper bounds for columns resting there, basic
// values with roundoff below zero clamped, zero elsewhere.
func (rv *revised) point(x []float64) {
	for j := range x {
		x[j] = 0
		if rv.status[j] == atUpper {
			x[j] = rv.upper[j]
		}
	}
	for i, b := range rv.basis[:rv.m] {
		if b >= rv.nStruct {
			continue
		}
		v := rv.xB[i]
		if v < 0 && v > -feasTol {
			v = 0
		}
		x[b] = v
	}
}

// rowDuals writes y in yScratch, mapped back through the row signs, into
// duals.
func (rv *revised) rowDuals(duals []float64) {
	for i, y := range rv.yScratch[:rv.m] {
		duals[i] = rv.rowSign[i] * y
	}
}

// buildCSR mirrors the sign-normalized columns row-wise for pricing.
func (rv *revised) buildCSR() {
	nnz := len(rv.cols.rows)
	rv.rowPtr = grow(rv.rowPtr, rv.m+1)
	clear(rv.rowPtr)
	for _, r := range rv.cols.rows {
		rv.rowPtr[r+1]++
	}
	for i := 0; i < rv.m; i++ {
		rv.rowPtr[i+1] += rv.rowPtr[i]
	}
	rv.rowCol = grow(rv.rowCol, nnz)
	rv.rowVal = grow(rv.rowVal, nnz)
	// cand is idle outside a pivot: borrow it for the row cursors.
	next := grow(rv.cand, rv.m)
	copy(next, rv.rowPtr[:rv.m])
	for j := 0; j < rv.n; j++ {
		rows, vals := rv.cols.col(j)
		for k, r := range rows {
			at := next[r]
			next[r]++
			rv.rowCol[at] = j
			rv.rowVal[at] = vals[k]
		}
	}
	rv.cand = next[:0]
}

func (rv *revised) needPhase1() bool {
	for _, b := range rv.basis {
		if b >= rv.nReal {
			return true
		}
	}
	return false
}

func (rv *revised) phase1Objective() float64 {
	s := 0.0
	for i, b := range rv.basis {
		if b >= rv.nReal {
			s -= rv.xB[i]
		}
	}
	return s
}

// dualVector returns y = c_B^T · B^{-1} (a sparse BTRAN through the LU
// factors and eta file). The returned slice is scratch storage overwritten
// by the next call.
func (rv *revised) dualVector() []float64 {
	cb := rv.cbScratch
	for i, b := range rv.basis {
		cb[i] = rv.cost[b]
	}
	rv.lu.btran(rv.yScratch, cb)
	return rv.yScratch
}

// ftran computes w = B^{-1} · A_j into rv.scratch (a sparse FTRAN through
// the LU factors and eta file).
func (rv *revised) ftran(j int) []float64 {
	rows, vals := rv.cols.col(j)
	rv.lu.ftran(rv.scratch, rows, vals)
	return rv.scratch
}

// iterate runs primal simplex pivots from the reduced costs in d, which the
// caller must have priced for the current costs, until optimality,
// unboundedness or the iteration cap. Optimal is only ever returned right
// after priceAll confirmed it, so y (in yScratch) and d are then exact.
func (rv *revised) iterate() Status {
	stall := 0
	bland := false
	for ; rv.iters < rv.maxIter; rv.iters++ {
		if rv.broken {
			return IterLimit
		}
		if rv.repaired {
			rv.repaired = false
			if !rv.primalFeasible() && !rv.restoreFeasibility() {
				return IterLimit
			}
		}
		if rv.iters%256 == 255 {
			rv.refreshXB() // limit incremental drift
		}
		if bland {
			// Bland's anti-cycling guarantee needs exact reduced-cost
			// signs, not incrementally maintained ones.
			rv.priceAll()
		}
		enter := rv.pick
		if enter == stalePick || bland {
			enter = rv.chooseEntering(bland)
		}
		rv.pick = stalePick
		if enter < 0 {
			// Confirm against exact prices: the incremental reduced costs
			// may have drifted since the last refactorization.
			rv.priceAll()
			if enter = rv.chooseEntering(bland); enter < 0 {
				return Optimal
			}
		}
		dq := rv.d[enter]
		w := rv.ftran(enter)
		row, leaveTo, delta := rv.ratioTest(enter, w)
		if row == -2 {
			rv.rayCol = enter
			return Unbounded
		}
		leave := -1
		if row >= 0 {
			leave = rv.basis[row]
			rv.updateDuals(enter, row, w)
		}
		rv.apply(enter, w, row, leaveTo, delta)
		if rv.pick != stalePick {
			// The pass saw the leaving column while it was still basic; it
			// competes now, at rest on its bound.
			rv.pick = rv.rivalPick(leave)
		}
		if math.Abs(dq)*delta > 1e-12 {
			stall = 0
			bland = false
		} else if stall++; stall > 2*(rv.m+10) {
			if !bland {
				rv.blandActs++
			}
			bland = true
		}
	}
	return IterLimit
}

// priceAll recomputes every priced reduced cost exactly from y = c_B·B^{-1}
// (left in yScratch), so the next pivot scans for its column.
func (rv *revised) priceAll() {
	y := rv.dualVector()
	d := rv.d[:rv.nPrice]
	status, cost, c := rv.status[:len(d)], rv.cost[:len(d)], &rv.cols
	for j := range d {
		if status[j] == basic {
			d[j] = 0
			continue
		}
		// d_j = c_j - y·A_j
		dj := cost[j]
		a, b := c.start[j], c.start[j+1]
		vals := c.vals[a:b:b]
		for k, r := range c.rows[a:b:b] {
			dj -= y[r] * vals[k]
		}
		d[j] = dj
	}
	rv.pick = stalePick
}

// pivotRow computes row r of B^{-1}A into alpha, by column: rho =
// e_rᵀB^{-1} by BTRAN, then alpha = rhoᵀA scattered row-wise through the
// CSR mirror over the rows where rho is nonzero, each entry accumulating
// over those rows in ascending order. A row's artificial is its last CSR
// entry, so once the artificials are banned each row's scatter stops one
// entry short. alpha must be zero on entry; the caller zeroes it again
// (gatherDuals or clearAlpha).
func (rv *revised) pivotRow(r int) {
	rho := rv.yScratch
	rv.lu.btranRow(rho, r)
	alpha := rv.alpha[:rv.n]
	short := 0
	if rv.nPrice < rv.n {
		short = 1
	}
	for i, ri := range rho[:rv.m] {
		if ri == 0 { //vmalloc:nondet-ok structural zero test on a stored eta value
			continue
		}
		a, b := rv.rowPtr[i], rv.rowPtr[i+1]-short
		vals := rv.rowVal[a:b:b]
		for k, j := range rv.rowCol[a:b:b] {
			alpha[j] += ri * vals[k]
		}
	}
}

// updateDuals carries the reduced costs across the coming pivot (enter
// becomes basic in row) using the pivot row of B^{-1}A, and leaves in pick
// the next entering column among those whose direction the pivot does not
// change: enter is out of pricing from here on, and the leaving column is
// still basic. Must run before the pivot's eta is appended.
func (rv *revised) updateDuals(enter, row int, w []float64) {
	ratio := rv.d[enter] / w[row]
	rv.dir[enter] = 0
	if ratio != 0 { //vmalloc:nondet-ok structural zero test on a stored ratio entry
		rv.pivotRow(row)
		rv.pick = rv.gatherDuals(ratio)
	}
	rv.d[enter] = 0
}

// gatherDuals applies d_j -= ratio·alpha_j over the priced columns, zeroing
// alpha behind it, and returns what chooseEntering's Dantzig scan would pick
// from the updated d: the improving column with the largest score, lowest
// index on ties, -1 for none. A zero alpha_j leaves d_j's value alone (at
// most the sign of a zero d_j, which no test reads, changes), so the pass
// needs no zero test.
func (rv *revised) gatherDuals(ratio float64) int {
	alpha := rv.alpha[:rv.nPrice]
	d, dir := rv.d[:len(alpha)], rv.dir[:len(alpha)]
	best, bestScore := -1, costTol
	for j, a := range alpha {
		v := d[j] - ratio*a
		d[j] = v
		alpha[j] = 0
		if score := dir[j] * v; score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// rivalPick returns pick or column j, whichever chooseEntering's Dantzig
// scan would take: the larger improving score, the lower index on a tie.
func (rv *revised) rivalPick(j int) int {
	s := rv.dir[j] * rv.d[j]
	if !(s > costTol) {
		return rv.pick
	}
	if rv.pick < 0 {
		return j
	}
	if ps := rv.dir[rv.pick] * rv.d[rv.pick]; s > ps || s == ps && j < rv.pick { //vmalloc:nondet-ok exact tie on stored scores, broken by index as the scan breaks it
		return j
	}
	return rv.pick
}

// chooseEntering picks the improving column with the largest reduced cost
// (Dantzig), lowest index on ties, or under Bland's rule the lowest-index
// improving column; -1 at optimality.
func (rv *revised) chooseEntering(bland bool) int {
	dir := rv.dir[:rv.nPrice]
	d := rv.d[:len(dir)]
	if bland {
		for j, s := range dir {
			if s*d[j] > costTol {
				return j
			}
		}
		return -1
	}
	best, bestScore := -1, costTol
	for j, s := range dir {
		if score := s * d[j]; score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// ratioTest is the bounded ratio test over the direction w = B^{-1}A_enter:
// it returns the leaving row (-1 for a bound flip of the entering column,
// -2 when nothing blocks it), the bound the leaving variable comes to rest
// at, and the step length.
func (rv *revised) ratioTest(enter int, w []float64) (row int, leaveTo varStatus, delta float64) {
	dir := 1.0
	if rv.status[enter] == atUpper {
		dir = -1
	}
	limit := math.Inf(1)
	if u := rv.upper[enter]; !math.IsInf(u, 1) {
		limit = u
	}
	row, leaveTo = -1, atLower
	xB, upper := rv.xB[:rv.m], rv.upper
	w, basis := w[:len(xB)], rv.basis[:len(xB)]
	for i, wi := range w {
		a := wi * dir
		if math.Abs(a) < pivotTol {
			continue
		}
		var ratio float64
		var to varStatus
		if a > 0 {
			ratio = xB[i] / a
			to = atLower
		} else {
			u := upper[basis[i]]
			if math.IsInf(u, 1) {
				continue
			}
			ratio = (u - xB[i]) / -a
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

func (rv *revised) apply(enter int, w []float64, row int, leaveTo varStatus, delta float64) {
	dir := 1.0
	if rv.status[enter] == atUpper {
		dir = -1
	}
	if delta != 0 { //vmalloc:nondet-ok structural zero test: an exactly-zero step is a no-op update
		xB := rv.xB[:rv.m]
		w := w[:len(xB)]
		for i, x := range xB {
			x -= w[i] * dir * delta
			if x < 0 && x > -zeroClampT {
				x = 0
			}
			xB[i] = x
		}
	}
	if row == -1 {
		if rv.status[enter] == atLower {
			rv.status[enter] = atUpper
		} else {
			rv.status[enter] = atLower
		}
		rv.setDir(enter)
		return
	}
	newVal := delta
	if rv.status[enter] == atUpper {
		newVal = rv.upper[enter] - delta
	}
	rv.swap(row, enter, newVal, leaveTo, w)
}

// swap makes enter basic in row at value val in place of the column there,
// which comes to rest at leaveTo, and records the change in the eta file (w
// is the entering column's FTRAN), refactorizing once the file is due.
func (rv *revised) swap(row, enter int, val float64, leaveTo varStatus, w []float64) {
	old := rv.basis[row]
	rv.status[old] = leaveTo
	rv.inBasis[old] = -1
	rv.setDir(old)
	rv.lu.appendEta(row, w)
	rv.basis[row] = enter
	rv.inBasis[enter] = row
	rv.status[enter] = basic
	rv.dir[enter] = 0
	rv.xB[row] = val
	if rv.lu.dueForRefactor() {
		rv.refactorize()
	}
}

// refactorize rebuilds the LU factors from the current basis and resets the
// incrementally maintained reduced costs against the fresh factors. A basis
// the factorization finds singular is repaired (repairBasis); one that stays
// singular marks the solver broken so the solve aborts instead of diverging.
func (rv *revised) refactorize() {
	rv.refactors++
	if !rv.lu.factorize(rv.basis, &rv.cols) && !rv.repairBasis() {
		rv.broken = true
		return
	}
	rv.priceAll()
}

// repairBasis swaps every slot the last factorization found dependent for
// the slack of a row it left without a pivot — the row's artificial when it
// has none — and factorizes again. The swapped-out columns come to rest at
// the bound nearer their value and the basic values are recomputed, which
// can leave them primal infeasible: the pivot loops see rv.repaired and
// restore feasibility. It reports false if the basis stays singular.
func (rv *revised) repairBasis() bool {
	lu := &rv.lu
	for attempt := 0; attempt < 3; attempt++ {
		for _, slot := range lu.singular {
			old := rv.basis[slot]
			st := atLower
			if v, u := rv.xB[slot], rv.upper[old]; !math.IsInf(u, 1) && math.Abs(v-u) < math.Abs(v) {
				st = atUpper
			}
			rv.status[old] = st
			rv.inBasis[old] = -1
			rv.setDir(old)
		}
		row := 0
		for _, slot := range lu.singular {
			for lu.pivoted[row] {
				row++
			}
			col := rv.slackOf[row]
			if col < 0 || rv.status[col] == basic {
				col = rv.nReal + row
			}
			rv.basis[slot] = col
			rv.inBasis[col] = slot
			rv.status[col] = basic
			rv.dir[col] = 0
			row++
		}
		if lu.factorize(rv.basis, &rv.cols) {
			rv.repaired = true
			rv.refreshXB()
			return true
		}
	}
	return false
}

// primalFeasible reports whether every basic value lies within its bounds
// up to feasTol and, if so, clamps the roundoff so pivoting starts from
// clean values.
func (rv *revised) primalFeasible() bool {
	for i, col := range rv.basis {
		if v := rv.xB[i]; v < -feasTol || v > rv.upper[col]+feasTol {
			return false
		}
	}
	for i, col := range rv.basis {
		if v := rv.xB[i]; v < 0 {
			rv.xB[i] = 0
		} else if v > rv.upper[col] {
			rv.xB[i] = rv.upper[col]
		}
	}
	return true
}

// dualFeasible prices every column exactly and reports whether no nonbasic
// column could improve the objective by more than feasTol per unit: the
// precondition of the dual simplex.
func (rv *revised) dualFeasible() bool {
	rv.priceAll()
	for j, s := range rv.dir[:rv.nPrice] {
		if s*rv.d[j] > feasTol {
			return false
		}
	}
	return true
}

// dualSimplex runs the bounded dual simplex from a dual feasible basis: each
// iteration the basic variable furthest outside its bounds leaves to the
// bound it violates, and the entering column is the one whose reduced cost
// reaches zero first along the pivot row (a textbook ratio test with Harris'
// tolerance, preferring the largest pivot among near-ties). It returns
// Optimal once the basis is primal feasible (the primal simplex then
// confirms optimality), Infeasible when a violated row provably cannot be
// repaired within the bounds of its nonbasic columns, and IterLimit when it
// gives up — a long dual-degenerate stall, a vanishing pivot, a violation it
// cannot certify — so that the caller starts cold instead.
func (rv *revised) dualSimplex() Status {
	stall := 0
	for ; rv.iters < rv.maxIter; rv.iters++ {
		if rv.broken {
			return IterLimit
		}
		rv.repaired = false // the dual needs no primal feasibility
		if rv.iters%256 == 255 {
			rv.refreshXB()
		}
		r, s := rv.chooseLeaving()
		if r < 0 {
			rv.primalFeasible()
			return Optimal
		}
		rv.pivotRow(r)
		q := rv.dualRatioTest(s)
		if q < 0 {
			infeasible := rv.rowInfeasible(r, s)
			rv.clearAlpha()
			if infeasible {
				// Row r of B⁻¹ (in yScratch), oriented by s, is the Farkas
				// vector result reports.
				for i := range rv.yScratch[:rv.m] {
					rv.yScratch[i] *= s
				}
				return Infeasible
			}
			return IterLimit
		}
		w := rv.ftran(q)
		if math.Abs(w[r]) < pivotTol {
			rv.clearAlpha()
			return IterLimit
		}
		target, leaveTo := 0.0, atLower
		if s < 0 {
			target, leaveTo = rv.upper[rv.basis[r]], atUpper
		}
		delta := (rv.xB[r] - target) / (w[r] * rv.dir[q])
		if delta < 0 {
			delta = 0
		}
		theta := rv.d[q] / w[r]
		rv.gatherDuals(theta)
		rv.d[q] = 0
		rv.apply(q, w, r, leaveTo, delta)
		if theta != 0 { //vmalloc:nondet-ok structural zero test: an exactly-zero dual step is a degenerate pivot
			stall = 0
		} else if stall++; stall > 2*(rv.m+10) {
			return IterLimit
		}
	}
	return IterLimit
}

// chooseLeaving returns the row whose basic value lies furthest outside its
// bounds (lowest row on ties), with s = +1 when it must rise to its lower
// bound and -1 when it must fall to its upper bound; row -1 when every
// basic value is within feasTol.
func (rv *revised) chooseLeaving() (row int, s float64) {
	row, worst := -1, feasTol
	for i, col := range rv.basis {
		v := rv.xB[i]
		if -v > worst {
			row, worst, s = i, -v, 1
		} else if e := v - rv.upper[col]; e > worst {
			row, worst, s = i, e, -1
		}
	}
	return row, s
}

// dualRatioTest picks the entering column for the pivot row in alpha, whose
// basic variable must move in direction s. A nonbasic column is a candidate
// when moving it away from its bound moves the leaving variable that way;
// its ratio is its dual slack over |alpha|. Harris' two passes: the
// smallest ratio with the slacks relaxed by costTol bounds the step, and
// the largest |alpha| within that bound enters (lowest index on ties).
func (rv *revised) dualRatioTest(s float64) int {
	cand, ratio := rv.cand[:0], rv.ratio[:0]
	bound := math.Inf(1)
	alpha := rv.alpha[:rv.nPrice]
	dir, d := rv.dir[:len(alpha)], rv.d[:len(alpha)]
	for j, aj := range alpha {
		a := aj * dir[j] * s
		if a >= -pivotTol {
			continue
		}
		slack := -dir[j] * d[j]
		if slack < 0 {
			slack = 0
		}
		if r := (slack + costTol) / -a; r < bound {
			bound = r
		}
		cand, ratio = append(cand, j), append(ratio, slack/-a)
	}
	rv.cand, rv.ratio = cand, ratio
	q, best := -1, 0.0
	for k, j := range cand {
		if ratio[k] > bound {
			continue
		}
		if a := math.Abs(rv.alpha[j]); a > best || (a == best && j < q) { //vmalloc:nondet-ok exact tie on a stored pivot magnitude, broken by index
			q, best = j, a
		}
	}
	return q
}

// rowInfeasible certifies that row r's basic variable cannot reach the
// bound it violates (in direction s) however the nonbasic columns move
// within their bounds: its violation exceeds, by more than feasTol, the
// most the pivot row in alpha lets them repair. An entry below pivotTol —
// roundoff of a zero, which no pivot would use — counts only through a
// finite bound.
func (rv *revised) rowInfeasible(r int, s float64) bool {
	gap := -rv.xB[r]
	if s < 0 {
		gap = rv.xB[r] - rv.upper[rv.basis[r]]
	}
	room := 0.0
	for j, aj := range rv.alpha[:rv.nPrice] {
		a := aj * s
		if math.Abs(a) < pivotTol && math.IsInf(rv.upper[j], 1) {
			continue
		}
		switch {
		case rv.status[j] == atLower && a < 0:
			room -= a * rv.upper[j]
		case rv.status[j] == atUpper && a > 0:
			room += a * rv.upper[j]
		}
	}
	return gap-room > feasTol
}

// clearAlpha zeroes the pivot-row scatter left by pivotRow.
func (rv *revised) clearAlpha() {
	clear(rv.alpha[:rv.nPrice])
}

// restoreFeasibility makes a primal infeasible basis — a repaired one —
// feasible again without leaving it: the costs of nonbasic columns whose
// reduced costs have the wrong sign are shifted to zero them, which makes
// the basis dual feasible, the dual simplex runs to primal feasibility, and
// the true costs come back. It reports whether feasibility was restored.
func (rv *revised) restoreFeasibility() bool {
	copy(rv.costSave, rv.cost)
	rv.priceAll()
	for j, s := range rv.dir[:rv.nPrice] {
		if s*rv.d[j] > 0 {
			rv.cost[j] -= rv.d[j]
			rv.d[j] = 0
		}
	}
	st := rv.dualSimplex()
	copy(rv.cost, rv.costSave)
	rv.priceAll()
	return st == Optimal
}

// driveOutArtificials pivots each basic artificial (at value ~0 after a
// feasible phase 1) out in favour of the lowest-index real nonbasic column
// with a nonzero entry in its row of B^{-1}A; a row with none is redundant
// and keeps its artificial.
func (rv *revised) driveOutArtificials() {
	for i := 0; i < rv.m; i++ {
		if rv.basis[i] < rv.nReal {
			continue
		}
		rv.pivotRow(i)
		piv := -1
		for j, a := range rv.alpha[:rv.nReal] {
			if rv.status[j] != basic && math.Abs(a) > 1e-7 {
				piv = j
				break
			}
		}
		rv.clearAlpha()
		if piv < 0 {
			continue // redundant row: artificial stays basic at ~0
		}
		// Degenerate pivot at value 0 (or the variable's current bound).
		val := 0.0
		if rv.status[piv] == atUpper {
			val = rv.upper[piv]
		}
		rv.swap(i, piv, val, atLower, rv.ftran(piv))
	}
}

// refreshXB recomputes the basic values from scratch:
// x_B = B^{-1}·(b − Σ_{j at upper} A_j·u_j), countering incremental drift.
func (rv *revised) refreshXB() {
	r := rv.rhs
	copy(r, rv.b)
	for j := 0; j < rv.n; j++ {
		if rv.status[j] == atUpper && rv.upper[j] != 0 { //vmalloc:nondet-ok structural zero test on a stored bound
			rows, vals := rv.cols.col(j)
			u := rv.upper[j]
			for k, row := range rows {
				r[row] -= vals[k] * u
			}
		}
	}
	rv.lu.ftranDense(rv.scratch, r)
	for i := 0; i < rv.m; i++ {
		s := rv.scratch[i]
		if s < 0 && s > -feasTol {
			s = 0
		}
		rv.xB[i] = s
	}
}
