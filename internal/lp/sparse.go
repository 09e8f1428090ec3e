// The model's matrix and the simplex's warm token: compressed-sparse-column
// (CSC) constraint storage, a triplet builder for row-oriented encoders such
// as the MPS reader, and the Basis a solve hands out to warm-start the next
// one. The allocation LP of the paper (Eqs. 1–7) touches only a handful of
// variables per constraint, so the CSC form cuts both memory and
// per-iteration cost from O(m·n) to O(m² + nnz), and warm starts collapse
// re-solves of perturbed instances (rounding retries, branch-and-bound
// children) to a refactorization plus a few pivots.

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
	data []int32
}

// cols returns the column basic in each row.
func (b *Basis) cols() []int32 { return b.data[:b.m] }

// status returns the varStatus of each real column.
func (b *Basis) status() []int32 { return b.data[b.m:] }

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
	rv.nPrice = rv.nReal
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
