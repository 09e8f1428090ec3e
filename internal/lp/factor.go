// Sparse basis factorization for the revised simplex: an LU decomposition
// of the basis matrix held in column-sparse form, plus a product-form eta
// file for the pivots performed since the last refactorization. FTRAN and
// BTRAN are sparse triangular solves through L, U and the eta file, so the
// per-iteration cost tracks the nonzero structure of the basis instead of
// the dense m² of an explicit inverse — on the allocation relaxation
// (a few nonzeros per column) that is the difference between toy-scale and
// paper-scale LP solves. Every factor lives in flat arenas that are reused
// from one factorization (and one solve) to the next.

package lp

import (
	"math"
	"math/bits"
	"slices"
)

// luPivotTol is the magnitude below which a factorization pivot is treated
// as singular.
const luPivotTol = 1e-10

// refactorEvery bounds the eta file length: after this many post-
// factorization pivots the basis is refactorized from scratch, keeping
// accumulated roundoff in check.
const refactorEvery = 64

// etaFill is the other refactorization trigger: once the eta file holds
// more than etaFill times the nonzeros of the LU factors, a fresh
// factorization is cheaper than carrying the file through every FTRAN and
// BTRAN. On the allocation relaxations an eta vector is about half dense, so
// this fires well before refactorEvery.
const etaFill = 4

// basisLU is the factorized basis. Elimination step t processed basis slot
// ord[t] and pivoted matrix row pivotRow[t]; L carries the elimination
// multipliers (unit diagonal implicit) in row space, U the triangularized
// columns in step space. Slots and rows share the index set 0..m-1
// (basis[i] is the column basic in row i).
type basisLU struct {
	m        int
	ord      []int // elimination order over basis slots
	pivotRow []int // pivotRow[t] = matrix row pivoted at step t
	rowStep  []int // inverse permutation: rowStep[pivotRow[t]] = t
	slotStep []int // inverse of ord: slotStep[ord[t]] = t
	// The L column of step t is lIdx/lVal[lStart[t]:lStart[t+1]] (row
	// indices), the U column uIdx/uVal[uStart[t]:uStart[t+1]] (the earlier
	// steps whose pivot rows it meets). lSteps lists, in order, the steps
	// whose L column is not empty: the only ones the L-solve has to visit.
	lStart, uStart []int
	lIdx, uIdx     []int
	lVal, uVal     []float64
	uDiag          []float64
	lSteps         []int

	// Product-form eta file, flattened into one arena: eta k pivots slot
	// etaSlot[k] on the FTRAN of the entering column at pivot time, whose
	// pivot entry is etaPiv[k] and whose other nonzeros are etaIdx/etaVal[
	// etaStart[k]:etaStart[k+1]], in ascending row order. The entries are
	// also threaded by row, newest first: etaLast[i] is the last entry in
	// row i and etaPrev[p] the one before entry p in p's row (-1 ends both),
	// so btranRow reads an eta only where its vector is nonzero.
	etaSlot  []int
	etaStart []int
	etaPiv   []float64
	etaIdx   []int
	etaVal   []float64
	etaPrev  []int
	etaLast  []int

	// singular lists the basis slots the last factorize found dependent on
	// the slots before them; pivoted marks the rows it did pivot.
	singular []int
	pivoted  []bool

	x       []float64 // row/slot-space scratch
	z       []float64 // step-space scratch
	nz, cur []int     // btranRow scratch: the slots where x may be nonzero, ascending; a row-thread cursor per slot
	touched []int     // factorize scratch
	count   []int     // factorize scratch
	reach   []uint64  // factorize scratch: a bit per step, the L steps a column reaches
}

// grow returns s resliced to length n, reallocating only when its capacity
// is short. The contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset sizes the factorization for an m-row basis, reusing its arenas.
func (lu *basisLU) reset(m int) {
	lu.m = m
	lu.ord = grow(lu.ord, m)
	lu.pivotRow = grow(lu.pivotRow, m)
	lu.rowStep = grow(lu.rowStep, m)
	lu.slotStep = grow(lu.slotStep, m)
	lu.lStart = grow(lu.lStart, m+1)
	lu.uStart = grow(lu.uStart, m+1)
	lu.uDiag = grow(lu.uDiag, m)
	lu.pivoted = grow(lu.pivoted, m)
	lu.count = grow(lu.count, m+2)
	lu.reach = grow(lu.reach, (m+63)/64)
	lu.x = grow(lu.x, m)
	lu.z = grow(lu.z, m)
	lu.cur = grow(lu.cur, m)
	lu.etaLast = grow(lu.etaLast, m)
	clear(lu.x)
}

// dueForRefactor reports whether the eta file has grown past either
// refactorization trigger. Its nonzeros are the off-pivot entries plus one
// pivot per eta.
func (lu *basisLU) dueForRefactor() bool {
	etas := len(lu.etaSlot)
	return etas >= refactorEvery || len(lu.etaIdx)+etas > etaFill*(len(lu.lIdx)+len(lu.uIdx)+lu.m)
}

// factorize rebuilds the LU factors of the basis whose slot i holds column
// basis[i] and clears the eta file. Slots are eliminated sparsest-column-
// first with partial pivoting by magnitude. A slot with no usable pivot is
// dependent on the slots before it: it is recorded in singular, skipped,
// and factorize reports false, leaving the factors unusable until the
// caller swaps those slots out and factorizes again.
//
// Each column is eliminated with the L steps it reaches, in ascending step
// order: a step is marked when its pivot row first takes a nonzero, from
// the column itself or as fill from an earlier step's L column (whose rows
// all pivot later), so the unmarked steps are exactly those whose pivot row
// stays zero and that a pass over every L step would skip.
func (lu *basisLU) factorize(basis []int, cols *columns) bool {
	m := lu.m
	lu.etaSlot = lu.etaSlot[:0]
	lu.etaStart = append(lu.etaStart[:0], 0)
	lu.etaPiv = lu.etaPiv[:0]
	lu.etaIdx = lu.etaIdx[:0]
	lu.etaVal = lu.etaVal[:0]
	lu.etaPrev = lu.etaPrev[:0]
	for i := range lu.etaLast {
		lu.etaLast[i] = -1
	}
	lu.lIdx, lu.lVal = lu.lIdx[:0], lu.lVal[:0]
	lu.uIdx, lu.uVal = lu.uIdx[:0], lu.uVal[:0]
	lu.lSteps = lu.lSteps[:0]
	lu.singular = lu.singular[:0]

	// Sparsest columns first keeps the slack-heavy part of the basis
	// fill-free; a stable counting sort by nonzero count.
	count := lu.count
	clear(count)
	for _, col := range basis {
		count[cols.start[col+1]-cols.start[col]+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for slot, col := range basis {
		nnz := cols.start[col+1] - cols.start[col]
		lu.ord[count[nnz]] = slot
		count[nnz]++
	}

	x := lu.x
	clear(x)
	pivoted := lu.pivoted
	clear(pivoted)
	reach := lu.reach
	clear(reach)
	// mark notes that row r took a nonzero: if an earlier step with a
	// nonempty L column pivoted it, that step must eliminate.
	mark := func(r int) {
		if pivoted[r] {
			if t2 := lu.rowStep[r]; lu.lStart[t2+1] > lu.lStart[t2] {
				reach[t2>>6] |= 1 << (t2 & 63)
			}
		}
	}
	touched := lu.touched[:0]
	t := 0
	lu.lStart[0], lu.uStart[0] = 0, 0
	for _, slot := range lu.ord {
		rows, vals := cols.col(basis[slot])
		touched = touched[:0]
		for k, r := range rows {
			x[r] = vals[k]
			touched = append(touched, r)
			mark(r)
		}
		// Eliminate with the reached L columns of earlier steps, lowest
		// step first, tracking fill-in. Fill only marks later steps.
		for w := range reach[:t>>6+1] {
			for reach[w] != 0 {
				b := bits.TrailingZeros64(reach[w])
				reach[w] &^= 1 << b
				t2 := w<<6 | b
				xr := x[lu.pivotRow[t2]]
				if xr == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
					continue
				}
				for k := lu.lStart[t2]; k < lu.lStart[t2+1]; k++ {
					i := lu.lIdx[k]
					if x[i] == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
						touched = append(touched, i)
						mark(i)
					}
					x[i] -= lu.lVal[k] * xr
				}
			}
		}
		// Partial pivoting among unpivoted rows.
		piv, pivAbs := -1, luPivotTol
		for _, i := range touched {
			if !pivoted[i] {
				if a := math.Abs(x[i]); a > pivAbs {
					piv, pivAbs = i, a
				}
			}
		}
		if piv < 0 {
			for _, i := range touched {
				x[i] = 0
			}
			lu.singular = append(lu.singular, slot)
			continue
		}
		pv := x[piv]
		for _, i := range touched {
			v := x[i]
			x[i] = 0
			if v == 0 || i == piv { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
				continue
			}
			if pivoted[i] {
				lu.uIdx = append(lu.uIdx, lu.rowStep[i])
				lu.uVal = append(lu.uVal, v)
			} else {
				lu.lIdx = append(lu.lIdx, i)
				lu.lVal = append(lu.lVal, v/pv)
			}
		}
		if len(lu.lIdx) > lu.lStart[t] {
			lu.lSteps = append(lu.lSteps, t)
		}
		lu.lStart[t+1] = len(lu.lIdx)
		lu.uStart[t+1] = len(lu.uIdx)
		lu.ord[t] = slot
		lu.slotStep[slot] = t
		lu.uDiag[t] = pv
		lu.pivotRow[t] = piv
		lu.rowStep[piv] = t
		pivoted[piv] = true
		t++
	}
	lu.touched = touched
	return t == m
}

// appendEta records a post-factorization pivot: the basis column at slot
// changed, with FTRAN direction w (dense, slot space).
func (lu *basisLU) appendEta(slot int, w []float64) {
	p := len(lu.etaIdx)
	idx := slices.Grow(lu.etaIdx, len(w))[:p+len(w)]
	val := slices.Grow(lu.etaVal, len(w))[:p+len(w)]
	prev := slices.Grow(lu.etaPrev, len(w))[:p+len(w)]
	last := lu.etaLast[:len(w)]
	for i, v := range w {
		if v != 0 && i != slot { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			idx[p], val[p], prev[p] = i, v, last[i]
			last[i] = p
			p++
		}
	}
	lu.etaIdx, lu.etaVal, lu.etaPrev = idx[:p], val[:p], prev[:p]
	lu.etaSlot = append(lu.etaSlot, slot)
	lu.etaPiv = append(lu.etaPiv, w[slot])
	lu.etaStart = append(lu.etaStart, len(lu.etaIdx))
}

// ftran solves B w = a for the sparse column a (row indices and values),
// writing the dense result (indexed by basis slot) into dst.
func (lu *basisLU) ftran(dst []float64, rows []int, vals []float64) {
	x := lu.x
	for k, r := range rows {
		x[r] = vals[k]
	}
	lu.solveLU(dst, x)
	lu.applyEtas(dst)
}

// ftranDense is ftran for a dense right-hand side (row space); src is left
// untouched.
func (lu *basisLU) ftranDense(dst, src []float64) {
	x := lu.x
	copy(x, src)
	lu.solveLU(dst, x)
	lu.applyEtas(dst)
}

// solveLU performs the L then U triangular solves. x is the scattered
// right-hand side in row space and is consumed (zeroed); the solution lands
// in dst indexed by basis slot.
func (lu *basisLU) solveLU(dst, x []float64) {
	m := lu.m
	// L-solve in row space: after step t, x[pivotRow[t]] is settled.
	for _, t := range lu.lSteps {
		xr := x[lu.pivotRow[t]]
		if xr == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			continue
		}
		for k := lu.lStart[t]; k < lu.lStart[t+1]; k++ {
			x[lu.lIdx[k]] -= lu.lVal[k] * xr
		}
	}
	// Backward U-solve in step space.
	z := lu.z
	for t, r := range lu.pivotRow[:m] {
		z[t], x[r] = x[r], 0
	}
	for t := m - 1; t >= 0; t-- {
		v := z[t]
		if v == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			dst[lu.ord[t]] = 0
			continue
		}
		xt := v / lu.uDiag[t]
		dst[lu.ord[t]] = xt
		a, b := lu.uStart[t], lu.uStart[t+1]
		vals := lu.uVal[a:b:b]
		for k, s := range lu.uIdx[a:b:b] {
			z[s] -= vals[k] * xt
		}
	}
}

// applyEtas applies the eta file in pivot order to the slot-space vector w.
func (lu *basisLU) applyEtas(w []float64) {
	for k, slot := range lu.etaSlot {
		if w[slot] == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			continue
		}
		wr := w[slot] / lu.etaPiv[k]
		a, b := lu.etaStart[k], lu.etaStart[k+1]
		vals := lu.etaVal[a:b:b]
		for p, i := range lu.etaIdx[a:b:b] {
			w[i] -= vals[p] * wr
		}
		w[slot] = wr
	}
}

// btran solves yᵀB = cᵀ: dst receives y in row space; c is indexed by basis
// slot and left untouched.
func (lu *basisLU) btran(dst, c []float64) {
	x := lu.x
	copy(x, c)
	// Transposed eta file, reverse order. A zero entry adds an exact zero to
	// a sum that starts at +0, so the dot product needs no zero test.
	for k := len(lu.etaSlot) - 1; k >= 0; k-- {
		a, b := lu.etaStart[k], lu.etaStart[k+1]
		vals := lu.etaVal[a:b:b]
		s := 0.0
		for p, i := range lu.etaIdx[a:b:b] {
			s += vals[p] * x[i]
		}
		slot := lu.etaSlot[k]
		x[slot] = (x[slot] - s) / lu.etaPiv[k]
	}
	t0 := lu.m
	for slot, v := range x[:lu.m] {
		if v != 0 && lu.slotStep[slot] < t0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			t0 = lu.slotStep[slot]
		}
	}
	lu.btranLU(dst, t0)
	clear(x)
}

// btranRow is btran for the unit vector of slot r: dst receives row r of
// B⁻¹. Only r and the eta file's slots can hold a nonzero once the etas are
// applied, so the transposed eta file runs over those slots alone (nz),
// reading each eta through the row threads; the first step to solve and the
// clean-up come from them too. An eta's dot product adds the same nonzero
// terms in the same ascending row order as btran's, whose other terms are
// exact zeros, so the bits are btran's.
func (lu *basisLU) btranRow(dst []float64, r int) {
	x, cur := lu.x, lu.cur
	x[r] = 1
	nz := append(lu.nz[:0], r)
	cur[r] = lu.etaLast[r]
	for k := len(lu.etaSlot) - 1; k >= 0; k-- {
		a, b := lu.etaStart[k], lu.etaStart[k+1]
		s := 0.0
		for _, q := range nz {
			c := cur[q]
			for c >= b { // an entry of a later eta, passed before q joined nz
				c = lu.etaPrev[c]
			}
			if c >= a {
				s += lu.etaVal[c] * x[q]
				c = lu.etaPrev[c]
			}
			cur[q] = c
		}
		slot := lu.etaSlot[k]
		v := (x[slot] - s) / lu.etaPiv[k]
		x[slot] = v
		if v != 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			nz = insertSorted(nz, slot, &cur[slot], lu.etaLast[slot])
		}
	}
	lu.nz = nz
	t0 := lu.m
	for _, slot := range nz {
		if x[slot] != 0 && lu.slotStep[slot] < t0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			t0 = lu.slotStep[slot]
		}
	}
	lu.btranLU(dst, t0)
	x[r] = 0
	for _, slot := range lu.etaSlot {
		x[slot] = 0
	}
}

// insertSorted adds slot to the ascending list nz unless it is there,
// starting its row-thread cursor at last.
func insertSorted(nz []int, slot int, cur *int, last int) []int {
	i, found := slices.BinarySearch(nz, slot)
	if found {
		return nz
	}
	*cur = last
	return slices.Insert(nz, i, slot)
}

// btranLU finishes a BTRAN from the eta-applied vector in x: the Uᵀ-solve
// forward in step space, then the Lᵀ-solve backward into dst. Steps before
// t0, the first one whose slot holds a nonzero, solve to zero: a unit row
// (the pivot row's BTRAN) skips a prefix of the factors. x is left as it was.
func (lu *basisLU) btranLU(dst []float64, t0 int) {
	m := lu.m
	x := lu.x
	z := lu.z
	clear(z[:t0])
	for t := t0; t < m; t++ {
		s := x[lu.ord[t]]
		a, b := lu.uStart[t], lu.uStart[t+1]
		vals := lu.uVal[a:b:b]
		for k, st := range lu.uIdx[a:b:b] {
			if v := z[st]; v != 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
				s -= vals[k] * v
			}
		}
		z[t] = s / lu.uDiag[t]
	}
	// Lᵀ-solve backward into row space. A step with an empty L column
	// copies its value over; the rest read only rows pivoted after them.
	for t, r := range lu.pivotRow[:m] {
		dst[r] = z[t]
	}
	for i := len(lu.lSteps) - 1; i >= 0; i-- {
		t := lu.lSteps[i]
		s := z[t]
		a, b := lu.lStart[t], lu.lStart[t+1]
		vals := lu.lVal[a:b:b]
		for k, r := range lu.lIdx[a:b:b] {
			if v := dst[r]; v != 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
				s -= vals[k] * v
			}
		}
		dst[lu.pivotRow[t]] = s
	}
}
