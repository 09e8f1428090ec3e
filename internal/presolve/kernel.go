// The reducer's storage: every coefficient is a cell threaded on two doubly
// linked lists, its row's (ascending column id, the order every activity sum
// and every postsolve record is accumulated in) and its column's. A cell's
// index is its position for life, so a column reaches each of its rows'
// entries without searching, an entry is deleted or edited where it sits,
// and substitution splices fill-in into the host rows instead of rebuilding
// them. A reduction starts by mirroring the problem's CSC row-wise into
// pooled scratch, then edits the mirror.
//
// Each row also keeps a finger: the cell last spliced in before another
// cell (an append needs none). A splice that must walk the row to its sorted
// position starts at the finger instead of the row's head whenever the
// finger is still in the row and sorts before the new column. Eliminations
// run in column order, so a row's next splice usually lands just past its
// last one; the vub pass splices each y_jh into a memory row past all of
// its e cells, and the finger halves the cells the walks visit on the 8×64
// relaxations. A released cell's row is set to none, so a finger into a
// freed cell is never followed.

package presolve

import (
	"math"
	"sync"

	"vmalloc/internal/lp"
	"vmalloc/internal/sliceutil"
)

const none = int32(-1)

// cell is one matrix coefficient.
type cell struct {
	row, col     int32
	rNext, rPrev int32 // neighbours in the row, ascending column id
	cNext, cPrev int32 // neighbours in the column
	val          float64
}

// reducer is the mutable working state of one reduction, always indexed by
// original row/column ids. It doubles as the pooled scratch: every buffer is
// recycled from one reduction to the next, and finish copies the results
// (records, terms) out at their final size.
type reducer struct {
	n, m  int // current counts; n grows past nOrig as slacks are added
	nOrig int // columns in the input problem

	cells                    []cell
	free                     int32 // released cells, chained through rNext; a released cell's row is none
	rowHead, rowTail, rowLen []int32
	rowFinger                []int32 // per row, the cell last spliced in before another (see addToRow), or none
	colHead, colCnt          []int32
	sense                    []lp.Sense
	b                        []float64
	rowAlive                 []bool
	colAlive                 []bool
	l, u, c                  []float64
	actMin, actMax           []float64 // row activity bounds, valid where act is not actStale
	act                      []uint8   // per row: actStale, actCached or actSettled
	others, scan             []entry   // row snapshots: substitute's host row; the row a pass is on
	infeasible, unbounded    bool
	assumeImplied            bool // see substitute
	stats                    Stats
	records                  []record
	terms                    []entry // backing store of every recSubst's terms
	colMap, rowKeep          []int   // emit's scratch
}

var reducerPool = sync.Pool{New: func() any { return new(reducer) }}

// The states of a row's activity cache (reducer.act). Every edit of the row
// — a cell inserted, removed or changed, its right-hand side or sense
// rewritten, which always comes with one of those — and every bound change
// of one of its columns makes it stale.
const (
	actStale   uint8 = iota // the sums must be recomputed
	actCached               // actMin and actMax hold the row's activity
	actSettled              // cached, and rowPass found no rule to apply and nothing to propagate
)

// load resets the reducer to the start of a reduction of a validated p.
// Nil bounds expand to 0 and +Inf.
func (ps *reducer) load(p *lp.Problem) {
	c := p.Cols
	n, m := c.N, c.M
	ps.n, ps.m, ps.nOrig = n, m, n
	ps.stats = Stats{RowsBefore: m, ColsBefore: n}
	ps.infeasible, ps.unbounded, ps.assumeImplied = false, false, false

	// Mirror the CSC row-wise by counting sort: row i takes cells
	// rowHead[i] .. rowHead[i]+rowLen[i]-1, in ascending column order, and
	// rowTail[i] follows its entries in as the columns are walked.
	ps.rowHead = sliceutil.Grow(ps.rowHead, m)
	ps.rowTail = sliceutil.Grow(ps.rowTail, m)
	ps.rowLen = sliceutil.Grow(ps.rowLen, m)
	ps.rowFinger = sliceutil.Grow(ps.rowFinger, m)
	clear(ps.rowLen)
	for _, i := range c.RowIdx {
		ps.rowLen[i]++
	}
	at := int32(0)
	for i := range ps.rowHead {
		ps.rowHead[i], ps.rowTail[i] = at, at-1
		at += ps.rowLen[i]
	}
	ps.cells = sliceutil.Grow(ps.cells, len(c.Val))
	ps.free = none
	ps.colHead = sliceutil.Grow(ps.colHead, n)
	ps.colCnt = sliceutil.Grow(ps.colCnt, n)
	for j := 0; j < n; j++ {
		lo, hi := c.ColPtr[j], c.ColPtr[j+1]
		ps.colHead[j], ps.colCnt[j] = none, int32(hi-lo)
		prev := none
		for k := lo; k < hi; k++ {
			i := c.RowIdx[k]
			ps.rowTail[i]++
			at := ps.rowTail[i]
			cl := &ps.cells[at]
			*cl = cell{row: int32(i), col: int32(j), rNext: at + 1, rPrev: at - 1, cNext: none, cPrev: prev, val: c.Val[k]}
			if at == ps.rowHead[i] {
				cl.rPrev = none
			}
			if at+1 == ps.rowHead[i]+ps.rowLen[i] {
				cl.rNext = none
			}
			if prev >= 0 {
				ps.cells[prev].cNext = at
			} else {
				ps.colHead[j] = at
			}
			prev = at
		}
	}
	ps.rowAlive = sliceutil.Grow(ps.rowAlive, m)
	ps.actMin = sliceutil.Grow(ps.actMin, m)
	ps.actMax = sliceutil.Grow(ps.actMax, m)
	ps.act = sliceutil.Grow(ps.act, m)
	for i := 0; i < m; i++ {
		if ps.rowLen[i] == 0 {
			ps.rowHead[i], ps.rowTail[i] = none, none
		}
		ps.rowAlive[i] = true
		ps.act[i] = actStale
		ps.rowFinger[i] = none
	}
	ps.sense = append(ps.sense[:0], p.Sense...)
	ps.b = append(ps.b[:0], p.B...)

	ps.l = sliceutil.Grow(ps.l, n)
	ps.u = sliceutil.Grow(ps.u, n)
	ps.c = append(ps.c[:0], p.Obj...)
	if p.Lower != nil {
		copy(ps.l, p.Lower)
	} else {
		clear(ps.l)
	}
	if p.Upper != nil {
		copy(ps.u, p.Upper)
	} else {
		for j := range ps.u {
			ps.u[j] = math.Inf(1)
		}
	}
	ps.colAlive = sliceutil.Grow(ps.colAlive, n)
	for j := range ps.colAlive {
		ps.colAlive[j] = true
	}

	ps.records = ps.records[:0]
	ps.terms = ps.terms[:0]
}

// newCell returns a cell to overwrite, recycled when one is free. Growing
// the store moves it: callers hold cell indices, never pointers, across this
// call.
func (ps *reducer) newCell() int32 {
	if k := ps.free; k >= 0 {
		ps.free = ps.cells[k].rNext
		return k
	}
	ps.cells = append(ps.cells, cell{})
	return int32(len(ps.cells) - 1)
}

// insert adds coefficient v for column j to row i in front of cell at, or at
// the row's end when at is none; the caller picks at so the row stays
// sorted.
func (ps *reducer) insert(i int, at int32, j int, v float64) {
	k := ps.newCell()
	prev := ps.rowTail[i]
	if at >= 0 {
		prev = ps.cells[at].rPrev
		ps.cells[at].rPrev = k
	} else {
		ps.rowTail[i] = k
	}
	if prev >= 0 {
		ps.cells[prev].rNext = k
	} else {
		ps.rowHead[i] = k
	}
	head := ps.colHead[j]
	if head >= 0 {
		ps.cells[head].cPrev = k
	}
	ps.colHead[j] = k
	ps.cells[k] = cell{row: int32(i), col: int32(j), rNext: at, rPrev: prev, cNext: head, cPrev: none, val: v}
	ps.rowLen[i]++
	ps.colCnt[j]++
	ps.act[i] = actStale
}

// unlinkCol takes cell k off its column's list.
func (ps *reducer) unlinkCol(k int32) {
	cl := &ps.cells[k]
	if cl.cPrev >= 0 {
		ps.cells[cl.cPrev].cNext = cl.cNext
	} else {
		ps.colHead[cl.col] = cl.cNext
	}
	if cl.cNext >= 0 {
		ps.cells[cl.cNext].cPrev = cl.cPrev
	}
	ps.colCnt[cl.col]--
}

// remove deletes cell k from its row and its column.
func (ps *reducer) remove(k int32) {
	ps.unlinkCol(k)
	cl := &ps.cells[k]
	i := cl.row
	if cl.rPrev >= 0 {
		ps.cells[cl.rPrev].rNext = cl.rNext
	} else {
		ps.rowHead[i] = cl.rNext
	}
	if cl.rNext >= 0 {
		ps.cells[cl.rNext].rPrev = cl.rPrev
	} else {
		ps.rowTail[i] = cl.rPrev
	}
	ps.rowLen[i]--
	ps.act[i] = actStale
	cl.row, cl.rNext = none, ps.free
	ps.free = k
}

// dropRow marks a row eliminated and releases its cells.
func (ps *reducer) dropRow(i int) {
	for k := ps.rowHead[i]; k >= 0; {
		next := ps.cells[k].rNext
		ps.unlinkCol(k)
		ps.cells[k].row, ps.cells[k].rNext = none, ps.free
		ps.free = k
		k = next
	}
	ps.rowHead[i], ps.rowTail[i], ps.rowLen[i] = none, none, 0
	ps.rowAlive[i] = false
	ps.stats.DroppedRows++
}

// cellAt returns row i's cell for column j, found through the column's list,
// or none.
func (ps *reducer) cellAt(i, j int) int32 {
	for k := ps.colHead[j]; k >= 0; k = ps.cells[k].cNext {
		if int(ps.cells[k].row) == i {
			return k
		}
	}
	return none
}

// snapshot appends row i's entries to buf[:0], leaving out cell skip.
func (ps *reducer) snapshot(buf []entry, i int, skip int32) []entry {
	buf = buf[:0]
	for k := ps.rowHead[i]; k >= 0; k = ps.cells[k].rNext {
		if k != skip {
			buf = append(buf, entry{int(ps.cells[k].col), ps.cells[k].val})
		}
	}
	return buf
}

// addToRow adds f*src to row r in place, src sorted by column: matching
// coefficients are updated where they sit (and deleted when they cancel
// below dropCoefTol), new ones spliced in at their sorted position. A column
// much shorter than the row finds its cell through the column's list, and
// everything past the row's last column is appended, so eliminating a
// doubleton never walks the long aggregate rows it touches. A splice walks
// the row from its finger (see above) when the finger lies between the
// cursor and the new column.
func (ps *reducer) addToRow(r int, src []entry, f float64) {
	k := ps.rowHead[r] // no cell before k holds a column >= the current entry's
	for _, s := range src {
		at := none
		if t := ps.rowTail[r]; t < 0 || int(ps.cells[t].col) < s.j {
			k = none
		} else {
			if ps.colCnt[s.j] < ps.rowLen[r] {
				at = ps.cellAt(r, s.j)
			}
			if at < 0 {
				if fg := ps.rowFinger[r]; fg >= 0 && int(ps.cells[fg].row) == r {
					if c := ps.cells[fg].col; int(c) < s.j && c > ps.cells[k].col {
						k = fg
					}
				}
				for int(ps.cells[k].col) < s.j {
					k = ps.cells[k].rNext
				}
				if int(ps.cells[k].col) == s.j {
					at = k
				}
			}
		}
		if at < 0 {
			if v := f * s.v; math.Abs(v) >= dropCoefTol {
				ps.insert(r, k, s.j, v)
				if k >= 0 {
					ps.rowFinger[r] = ps.cells[k].rPrev // the new cell
				}
			}
			continue
		}
		if at == k {
			k = ps.cells[k].rNext
		}
		if v := ps.cells[at].val + f*s.v; math.Abs(v) >= dropCoefTol {
			ps.cells[at].val = v
			ps.act[r] = actStale
		} else {
			ps.remove(at)
		}
	}
}

// touchCol invalidates the cached activity of every row holding column j,
// after one of its bounds moved.
func (ps *reducer) touchCol(j int) {
	for k := ps.colHead[j]; k >= 0; k = ps.cells[k].cNext {
		ps.act[ps.cells[k].row] = actStale
	}
}

// rowActivity returns the minimum and maximum of row i's left-hand side over
// the current bounds (±Inf when an unbounded variable contributes), summed
// in column order once per version of the row and its columns' bounds.
func (ps *reducer) rowActivity(i int) (minAct, maxAct float64) {
	if ps.act[i] != actStale {
		return ps.actMin[i], ps.actMax[i]
	}
	for k := ps.rowHead[i]; k >= 0; k = ps.cells[k].rNext {
		cl := &ps.cells[k]
		if cl.val > 0 {
			minAct += cl.val * ps.l[cl.col]
			maxAct += cl.val * ps.u[cl.col] // Inf stays Inf
		} else {
			minAct += cl.val * ps.u[cl.col]
			maxAct += cl.val * ps.l[cl.col]
		}
	}
	ps.actMin[i], ps.actMax[i], ps.act[i] = minAct, maxAct, actCached
	return minAct, maxAct
}

// activity is rowActivity over a row snapshot.
func (ps *reducer) activity(row []entry) (minAct, maxAct float64) {
	for _, e := range row {
		if e.v > 0 {
			minAct += e.v * ps.l[e.j]
			maxAct += e.v * ps.u[e.j]
		} else {
			minAct += e.v * ps.u[e.j]
			maxAct += e.v * ps.l[e.j]
		}
	}
	return minAct, maxAct
}
