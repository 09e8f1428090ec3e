// Sparse-matrix support for the revised simplex: compressed-sparse-column
// (CSC) constraint storage, a triplet builder for row-oriented encoders such
// as internal/relax, and warm-started solve entry points that reuse the
// optimal basis of a previous solve. The allocation LP of the paper (Eqs.
// 1–7) touches only a handful of variables per constraint, so the CSC form
// cuts both memory and per-iteration cost from O(m·n) to O(m² + nnz), and
// warm starts collapse re-solves of perturbed instances (rounding retries,
// branch-and-bound children) to a refactorization plus a few pivots.

package lp

import (
	"fmt"
	"math"
)

// CSC is a constraint matrix in compressed-sparse-column form: the nonzeros
// of column j are Val[ColPtr[j]:ColPtr[j+1]], sitting in rows
// RowIdx[ColPtr[j]:ColPtr[j+1]].
type CSC struct {
	M, N   int
	ColPtr []int
	RowIdx []int
	Val    []float64
}

// NNZ returns the number of stored entries.
func (c *CSC) NNZ() int { return len(c.Val) }

// validate checks structural consistency.
func (c *CSC) validate() error {
	if len(c.ColPtr) != c.N+1 {
		return fmt.Errorf("lp: CSC ColPtr has length %d, want %d", len(c.ColPtr), c.N+1)
	}
	if c.ColPtr[0] != 0 || c.ColPtr[c.N] != len(c.Val) || len(c.RowIdx) != len(c.Val) {
		return fmt.Errorf("lp: CSC pointer/entry mismatch: ColPtr ends at %d with %d rows, %d values",
			c.ColPtr[c.N], len(c.RowIdx), len(c.Val))
	}
	for j := 0; j < c.N; j++ {
		if c.ColPtr[j] > c.ColPtr[j+1] {
			return fmt.Errorf("lp: CSC ColPtr decreases at column %d", j)
		}
	}
	for k, r := range c.RowIdx {
		if r < 0 || r >= c.M {
			return fmt.Errorf("lp: CSC row index %d out of range [0,%d) at entry %d", r, c.M, k)
		}
	}
	return nil
}

// Dense materializes the matrix as one dense row per constraint.
func (c *CSC) Dense() [][]float64 {
	a := make([][]float64, c.M)
	for i := range a {
		a[i] = make([]float64, c.N)
	}
	for j := 0; j < c.N; j++ {
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			a[c.RowIdx[k]][j] = c.Val[k]
		}
	}
	return a
}

// NewCSCFromDense compresses a dense row-major matrix with numVars columns,
// dropping zeros.
func NewCSCFromDense(a [][]float64, numVars int) *CSC {
	b := NewSparseBuilder(numVars)
	for i, row := range a {
		for j, v := range row {
			b.Add(i, j, v)
		}
	}
	return b.Build(len(a))
}

// Sparsify returns a copy of the problem with the constraint matrix in CSC
// form (the copy shares everything else). Problems already sparse are
// returned unchanged.
func (p *Problem) Sparsify() *Problem {
	if p.Cols != nil {
		return p
	}
	q := *p
	q.Cols = NewCSCFromDense(p.A, p.NumVars())
	q.A = nil
	return &q
}

// SparseBuilder accumulates matrix entries in any order (typically row by
// row, the natural order for constraint encoders) and compresses them into
// CSC form. Zero entries are dropped at Add time.
type SparseBuilder struct {
	n    int
	rows []int
	cols []int
	vals []float64
}

// NewSparseBuilder returns a builder for a matrix with numVars columns.
func NewSparseBuilder(numVars int) *SparseBuilder {
	return &SparseBuilder{n: numVars}
}

// Add records entry (row, col) = val; zero values are ignored. Each
// (row, col) position must be added at most once — duplicates are not
// summed.
func (b *SparseBuilder) Add(row, col int, val float64) {
	if val == 0 { //vmalloc:nondet-ok structural zero dropped when building the sparse matrix; exact by construction
		return
	}
	b.rows = append(b.rows, row)
	b.cols = append(b.cols, col)
	b.vals = append(b.vals, val)
}

// Build compresses the recorded triplets into a CSC matrix with numRows
// rows. Entries within a column keep their insertion order.
func (b *SparseBuilder) Build(numRows int) *CSC {
	c := &CSC{
		M:      numRows,
		N:      b.n,
		ColPtr: make([]int, b.n+1),
		RowIdx: make([]int, len(b.vals)),
		Val:    make([]float64, len(b.vals)),
	}
	for _, j := range b.cols {
		c.ColPtr[j+1]++
	}
	for j := 0; j < b.n; j++ {
		c.ColPtr[j+1] += c.ColPtr[j]
	}
	next := append([]int(nil), c.ColPtr[:b.n]...)
	for k, j := range b.cols {
		at := next[j]
		next[j]++
		c.RowIdx[at] = b.rows[k]
		c.Val[at] = b.vals[k]
	}
	return c
}

// Basis is a snapshot of the simplex basis at the end of a solve: which
// column is basic in each row, and at which bound every nonbasic column
// rests. It is opaque to callers and valid for warm-starting any problem
// with the same constraint-matrix shape (same rows, variables and senses);
// objective, right-hand side and bounds may differ.
type Basis struct {
	m, nStruct, nReal int
	// data holds, in one allocation, the column basic in each of the m rows
	// followed by the varStatus of each of the nReal real columns.
	data     []int32
	attached any
}

// cols returns the column basic in each row.
func (b *Basis) cols() []int32 { return b.data[:b.m] }

// status returns the varStatus of each real column.
func (b *Basis) status() []int32 { return b.data[b.m:] }

// WithAttachment returns a copy of the basis (sharing its immutable
// contents) that carries v, an opaque value of the backend that handed the
// basis out: a backend whose warm token is more than a basis — the
// presolving backend's token also names the reduction the basis belongs to —
// stores the rest here and reads it back with Attachment when the token
// returns. The solvers never look at it. v lives as long as the token does
// and, like the basis, may be read from several goroutines at once, so it
// must be immutable.
func (b *Basis) WithAttachment(v any) *Basis {
	c := *b
	c.attached = v
	return &c
}

// Attachment returns the value WithAttachment stored, or nil.
func (b *Basis) Attachment() any { return b.attached }

// BasisVarStatus is the exported view of a simplex variable's position in a
// Basis: resting at its lower bound, resting at its upper bound, or basic.
type BasisVarStatus int8

const (
	// BasisAtLower marks a nonbasic variable at its lower bound.
	BasisAtLower BasisVarStatus = BasisVarStatus(atLower)
	// BasisAtUpper marks a nonbasic variable at its upper bound.
	BasisAtUpper BasisVarStatus = BasisVarStatus(atUpper)
	// BasisBasic marks a basic variable.
	BasisBasic BasisVarStatus = BasisVarStatus(basic)
)

// SlackColumns returns, for each row, the equality-form column index of its
// slack variable, or -1 for EQ rows (which have none). This is the column
// convention shared by the solvers and Basis: structural variables occupy
// columns 0..numStruct-1, slacks are assigned to non-EQ rows in row order
// starting at numStruct, and the artificial of row i is numReal+i where
// numReal = numStruct + (number of non-EQ rows).
func SlackColumns(senses []Sense, numStruct int) []int {
	slackOf := make([]int, len(senses))
	next := numStruct
	for i, s := range senses {
		if s == EQ {
			slackOf[i] = -1
		} else {
			slackOf[i] = next
			next++
		}
	}
	return slackOf
}

// Dims returns the basis shape: constraint rows, structural columns, and
// real (structural + slack) columns. Artificial columns are numReal..
// numReal+m-1, with the artificial of row i at numReal+i.
func (b *Basis) Dims() (m, numStruct, numReal int) {
	return b.m, b.nStruct, b.nReal
}

// Export returns the basis contents in the equality-form column convention
// documented on SlackColumns: basicByRow[i] is the column basic in row i
// (possibly an artificial >= numReal for a redundant row), and nonbasic[j]
// is the resting status of every real column j < numReal. Both slices are
// fresh copies.
func (b *Basis) Export() (basicByRow []int, nonbasic []BasisVarStatus) {
	basicByRow = make([]int, b.m)
	for i, col := range b.cols() {
		basicByRow[i] = int(col)
	}
	nonbasic = make([]BasisVarStatus, b.nReal)
	for j, st := range b.status() {
		nonbasic[j] = BasisVarStatus(st)
	}
	return basicByRow, nonbasic
}

// NewBasis assembles a Basis from explicit contents, the inverse of Export:
// senses give the row senses of the target problem (fixing the slack-column
// layout per SlackColumns), basicByRow names the column basic in each row,
// and nonbasic gives the resting status of every real column (entries for
// basic columns are ignored). It validates shape and duplicates only;
// numerical fitness (nonsingularity, primal feasibility) is checked when the
// basis is installed, where a failure falls back to a cold start.
func NewBasis(senses []Sense, numStruct int, basicByRow []int, nonbasic []BasisVarStatus) (*Basis, error) {
	m := len(senses)
	if len(basicByRow) != m {
		return nil, fmt.Errorf("lp: NewBasis: %d basic columns for %d rows", len(basicByRow), m)
	}
	nSlack := 0
	for _, s := range senses {
		if s != EQ {
			nSlack++
		}
	}
	nReal := numStruct + nSlack
	if len(nonbasic) != nReal {
		return nil, fmt.Errorf("lp: NewBasis: %d statuses for %d real columns", len(nonbasic), nReal)
	}
	b := &Basis{m: m, nStruct: numStruct, nReal: nReal, data: make([]int32, m+nReal)}
	status := b.status()
	for j, st := range nonbasic {
		switch st {
		case BasisAtLower, BasisAtUpper, BasisBasic:
			status[j] = int32(st)
		default:
			return nil, fmt.Errorf("lp: NewBasis: invalid status %d for column %d", st, j)
		}
	}
	seen := make(map[int]bool, m)
	for i, col := range basicByRow {
		if col < 0 || col >= nReal+m || seen[col] {
			return nil, fmt.Errorf("lp: NewBasis: invalid or duplicate basic column %d in row %d", col, i)
		}
		seen[col] = true
		b.cols()[i] = int32(col)
		if col < nReal {
			status[col] = int32(basic)
		}
	}
	return b, nil
}

// captureBasis snapshots the solver's current basis into b.
func (rv *revised) captureBasis(b *Basis) {
	*b = Basis{m: rv.m, nStruct: rv.nStruct, nReal: rv.nReal, data: make([]int32, rv.m+rv.nReal)}
	for i, col := range rv.basis {
		b.data[i] = int32(col)
	}
	for j, st := range rv.status[:rv.nReal] {
		b.data[rv.m+j] = int32(st)
	}
}

// installBasis seeds the solver from a previously captured basis: nonbasic
// statuses are clamped to the new bounds, artificials are banned as after a
// completed phase 1, the basis matrix is refactorized from scratch and the
// implied basic values are computed; whether they are feasible is the
// caller's question. It reports false — leaving the state for coldBasis to
// overwrite — when the basis does not fit the problem shape or is singular.
func (rv *revised) installBasis(wb *Basis) bool {
	if wb == nil || wb.m != rv.m || wb.nStruct != rv.nStruct || wb.nReal != rv.nReal {
		return false
	}
	for j, ws := range wb.status() {
		st := varStatus(ws)
		if st == basic || (st == atUpper && math.IsInf(rv.upper[j], 1)) {
			st = atLower
		}
		rv.status[j] = st
		rv.banned[j] = false
	}
	// Artificials are disabled exactly as after a completed phase 1; a
	// basic artificial (redundant row) is allowed but must sit at ~0.
	for j := rv.nReal; j < rv.n; j++ {
		rv.status[j] = atLower
		rv.banned[j] = true
		rv.upper[j] = 0
		rv.cost[j] = 0
	}
	for j := range rv.inBasis[:rv.n] {
		rv.inBasis[j] = -1
	}
	for i, c := range wb.cols() {
		col := int(c)
		if col < 0 || col >= rv.n || rv.inBasis[col] >= 0 {
			return false
		}
		rv.basis[i] = col
		rv.inBasis[col] = i
		rv.status[col] = basic
	}
	for j := 0; j < rv.n; j++ {
		rv.setDir(j)
	}
	if !rv.lu.factorize(rv.basis, &rv.cols) {
		return false
	}
	rv.refreshXB()
	return true
}

// SolveSparse maximizes the problem with the sparse revised simplex. It
// shares the Problem/Solution API with Solve and accepts either matrix form,
// but never densifies: column-sparse problems run directly on their CSC
// storage. The returned Solution carries the optimal Basis for
// warm-starting.
func SolveSparse(p *Problem) (*Solution, error) {
	return SolveSparseWarm(p, nil)
}

// SolveSparseWarm is SolveSparse warm-started from the basis of a previous
// solve of a same-shaped problem (bounds, objective and right-hand side may
// differ). When the basis still fits, the two simplex phases collapse into a
// refactorization plus the few pivots the perturbation requires: primal
// simplex pivots when the basis is still primal feasible, dual simplex
// pivots first when only the bounds or right-hand side moved (the basis is
// then still dual feasible). A basis that fits neither way, or that is
// singular or mismatched, costs only the failed checks before a cold start.
//
// When the iteration cap (Problem.MaxIter, or the automatic cap) is hit the
// returned error wraps ErrIterLimit and the Solution — still returned —
// carries Status == IterLimit plus the iteration count.
func SolveSparseWarm(p *Problem, warm *Basis) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return SolveSparseTrusted(p, warm)
}

// SolveSparseTrusted is SolveSparseWarm without the Validate pass, for a
// problem the caller validated itself or built valid by construction (the
// presolving backend's reduced models). An invalid problem here is a bug in
// the caller and may panic.
func SolveSparseTrusted(p *Problem, warm *Basis) (*Solution, error) {
	w := workspacePool.Get().(*Workspace)
	defer workspacePool.Put(w)
	return w.Solve(p, warm)
}
