// Package milp implements a best-first branch-and-bound solver for mixed
// integer linear programs whose integer variables are binary, layered on the
// pure-Go simplex in internal/lp. It is a test oracle, on no production
// path: it solves small instances of the paper's MILP (Eqs. 1–7) exactly
// through LPs, which holds relax.SolveExact (a search over placements that
// runs no LP) to the same optima, and its trees drive the warm dual simplex
// through the pivot-path golden that fences the LP kernel.
//
// A node's relaxation is the root LP with its branched binaries fixed by
// bounds alone, so every node has the root's shape: the whole tree runs on
// one simplex workspace, and each node starts from its parent's optimal
// basis, which a bound change leaves dual feasible — the dual simplex
// finishes it in a few pivots instead of a cold two-phase solve.
package milp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"vmalloc/internal/heapx"
	"vmalloc/internal/lp"
	"vmalloc/internal/sliceutil"
)

// Problem is an LP plus a set of variables restricted to {0, 1}.
type Problem struct {
	LP lp.Problem
	// Binary lists variable indices that must take value 0 or 1. Their Upper
	// bound must be >= 1 (it is tightened to 1 internally).
	Binary []int
}

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means the incumbent is proven optimal.
	Optimal Status = iota
	// Infeasible means no integral feasible point exists.
	Infeasible
	// NodeLimit means the search stopped early; the incumbent (if any) is
	// the best known feasible solution.
	NodeLimit
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Bound is the best proven upper bound on the optimum.
	Bound float64
	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int
	// WarmStarts counts the node solves that started from their parent's
	// basis instead of a cold start (every node but the root, unless a
	// basis stopped fitting); LPIters is the simplex pivots over all nodes.
	WarmStarts int
	LPIters    int
	// Pruned is the number of open nodes discarded because their bound
	// could not beat the incumbent (before or after their relaxation
	// solved).
	Pruned int
	// HasIncumbent reports whether X/Objective hold a feasible solution.
	HasIncumbent bool
}

// Options tunes the search.
type Options struct {
	// MaxNodes caps the number of LP relaxations solved (0 = default 100000).
	MaxNodes int
}

// intTol is the integrality tolerance.
const intTol = 1e-6

// node is an open subproblem: its parent's, with one more binary fixed.
type node struct {
	parent *node // nil at the root
	branch int   // the binary this node fixes
	fixTo1 bool  // fixed to 1 (through Lower and Upper) rather than 0
	bound  float64
	// warm is the optimal basis of the parent relaxation, shared by all its
	// children and dropped once the node is solved; nil at the root.
	warm *lp.Basis
}

// newNodeQueue orders open nodes best bound first (max-heap on bound via the
// shared generic min-heap helper).
func newNodeQueue() *heapx.Heap[*node] {
	return heapx.New(func(a, b *node) bool { return a.bound > b.bound })
}

// Solve runs best-first branch and bound. The relaxation at each node is the
// LP with branched binaries fixed purely via bound changes (Upper = 0 for a
// 0-fix, Lower = Upper = 1 for a 1-fix), solved on one workspace from the
// parent's basis. A fractional node branches on an exactly-one row when one
// is fractional (see findGroups, pickGroup), one child per member fixed to
// 1, and otherwise on its most fractional binary, one child per value.
func Solve(p *Problem, opts *Options) (*Solution, error) {
	if opts == nil {
		opts = &Options{}
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100000
	}
	if err := p.LP.Validate(); err != nil {
		return nil, err
	}
	for _, j := range p.Binary {
		if j < 0 || j >= p.LP.NumVars() {
			return nil, fmt.Errorf("milp: binary index %d out of range", j)
		}
	}

	rs := treePool.Get().(*relaxations)
	rs.reset(&p.LP)
	rs.findGroups(p.Binary)
	defer func() {
		rs.reset(nil)
		treePool.Put(rs)
	}()

	sol := &Solution{Status: NodeLimit, Objective: math.Inf(-1), Bound: math.Inf(1)}
	q := newNodeQueue()
	q.Push(&node{bound: math.Inf(1)})
	var kids []*node

	for q.Len() > 0 {
		if sol.Nodes >= maxNodes {
			sol.Bound = q.Peek().bound
			return sol, nil
		}
		nd := q.Pop()
		if nd.bound <= sol.Objective+1e-12 && sol.HasIncumbent {
			sol.Pruned++
			continue // pruned by incumbent
		}
		rel, err := rs.solve(nd)
		nd.warm = nil
		sol.Nodes++
		if err != nil {
			if errors.Is(err, lp.ErrIterLimit) {
				return nil, fmt.Errorf("milp: branch-and-bound node hit the simplex cap: %w", err)
			}
			return nil, err
		}
		if rel.WarmStarted {
			sol.WarmStarts++
		}
		sol.LPIters += rel.Iters
		switch rel.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			return nil, errors.New("milp: relaxation unbounded; bound the binary problem")
		}
		if rel.Objective <= sol.Objective+1e-12 && sol.HasIncumbent {
			sol.Pruned++
			continue
		}
		kids = kids[:0]
		if g := rs.pickGroup(rel.X, intTol); g >= 0 {
			// One child per member of the exactly-one row, each fixing its
			// member to 1: the children partition the node's integral points.
			for _, j := range rs.members(g) {
				kids = append(kids, &node{parent: nd, branch: int(j), fixTo1: true, bound: rel.Objective, warm: rel.Basis})
			}
		} else if branch := pickBranchVar(rel.X, p.Binary, intTol); branch >= 0 {
			kids = append(kids,
				&node{parent: nd, branch: branch, bound: rel.Objective, warm: rel.Basis},
				&node{parent: nd, branch: branch, fixTo1: true, bound: rel.Objective, warm: rel.Basis})
		} else {
			// Integral: new incumbent.
			if rel.Objective > sol.Objective {
				sol.Objective = rel.Objective
				sol.X = rel.X
				sol.HasIncumbent = true
			}
			continue
		}
		for _, kid := range kids {
			q.Push(kid)
		}
	}

	if sol.HasIncumbent {
		sol.Status = Optimal
		sol.Bound = sol.Objective
	} else {
		sol.Status = Infeasible
	}
	return sol, nil
}

// relaxations solves node LPs for one tree: the base problem with a node's
// fixings applied to bound slices reused from node to node, on one simplex
// workspace. It also holds the tree's exactly-one rows (see findGroups),
// row g's members being grpVar[grpPtr[g]:grpPtr[g+1]].
type relaxations struct {
	base           *lp.Problem
	ws             lp.Workspace
	upper, lower   []float64
	isBin          []bool
	rowCnt         []int32
	grpPtr, grpVar []int32
}

// treePool recycles relaxations across trees, so the workspace's arenas and
// the bound slices are sized once per goroutine rather than once per tree.
var treePool = sync.Pool{New: func() any { return new(relaxations) }}

// reset points rs at the base problem of a new tree (nil when the tree is
// done, so the pool holds no reference to it) and sizes the bound slices.
func (rs *relaxations) reset(base *lp.Problem) {
	rs.base = base
	if base == nil {
		return
	}
	if n := base.NumVars(); cap(rs.upper) < n {
		rs.upper, rs.lower = make([]float64, n), make([]float64, n)
	} else {
		rs.upper, rs.lower = rs.upper[:n], rs.lower[:n]
	}
}

// solve solves nd's relaxation warm from its parent's basis. The base
// bounds are copied only when the node fixes something, and Lower only when
// it fixes a binary to 1.
func (rs *relaxations) solve(nd *node) (*lp.Solution, error) {
	q := *rs.base
	if nd.parent == nil {
		return rs.ws.Solve(&q, nd.warm)
	}
	if q.Upper != nil {
		copy(rs.upper, q.Upper)
	} else {
		for j := range rs.upper {
			rs.upper[j] = math.Inf(1)
		}
	}
	fixes1 := false
	for a := nd; a.parent != nil; a = a.parent {
		if !a.fixTo1 {
			rs.upper[a.branch] = 0
		} else if !fixes1 {
			fixes1 = true
			if q.Lower != nil {
				copy(rs.lower, q.Lower)
			} else {
				clear(rs.lower)
			}
		}
	}
	q.Upper = rs.upper
	if fixes1 {
		for a := nd; a.parent != nil; a = a.parent {
			if !a.fixTo1 {
				continue
			}
			if rs.upper[a.branch] < 1 {
				// The variable cannot reach 1: the node is infeasible.
				return &lp.Solution{Status: lp.Infeasible}, nil
			}
			rs.lower[a.branch], rs.upper[a.branch] = 1, 1
		}
		q.Lower = rs.lower
	}
	return rs.ws.Solve(&q, nd.warm)
}

// findGroups records the base problem's exactly-one rows: equalities with
// right-hand side 1 whose entries are all coefficient 1 on binaries, such as
// the placement rows of Eq. 3 (each service on exactly one node). Members
// are listed in ascending column order, rows in ascending row order.
func (rs *relaxations) findGroups(binary []int) {
	p := rs.base
	n, m := p.NumVars(), p.NumRows()
	rs.isBin = sliceutil.Grow(rs.isBin, n)
	clear(rs.isBin)
	for _, j := range binary {
		rs.isBin[j] = true
	}
	// rowCnt[i] counts row i's members so far, -1 once it cannot qualify.
	rs.rowCnt = sliceutil.Grow(rs.rowCnt, m)
	for i := range rs.rowCnt {
		rs.rowCnt[i] = -1
		if p.Sense[i] == lp.EQ && p.B[i] == 1 { //vmalloc:nondet-ok an exactly-one row is stored with rhs exactly 1; anything else is another row
			rs.rowCnt[i] = 0
		}
	}
	c := p.Cols
	for j := 0; j < n; j++ {
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			i := c.RowIdx[k]
			switch {
			case rs.rowCnt[i] < 0:
			case c.Val[k] != 1 || !rs.isBin[j]: //vmalloc:nondet-ok stored coefficients are compared, not computed ones
				rs.rowCnt[i] = -1
			default:
				rs.rowCnt[i]++
			}
		}
	}
	// Lay the qualifying rows out one after another, then fill them column
	// by column; rowCnt[i] becomes row i's next free slot.
	rs.grpPtr = append(rs.grpPtr[:0], 0)
	total := int32(0)
	for i, cnt := range rs.rowCnt {
		if cnt > 0 {
			rs.rowCnt[i] = total
			total += cnt
			rs.grpPtr = append(rs.grpPtr, total)
		}
	}
	rs.grpVar = sliceutil.Grow(rs.grpVar, int(total))
	for j := 0; j < n; j++ {
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			if i := c.RowIdx[k]; rs.rowCnt[i] >= 0 {
				rs.grpVar[rs.rowCnt[i]] = int32(j)
				rs.rowCnt[i]++
			}
		}
	}
}

// members returns the variables of exactly-one row g.
func (rs *relaxations) members(g int) []int32 {
	return rs.grpVar[rs.grpPtr[g]:rs.grpPtr[g+1]]
}

// pickGroup returns the exactly-one row to branch on at a node with primal
// x: among the rows with a member fractional beyond tol, the one whose
// largest member is smallest, the lowest row on ties; -1 if every row is
// integral.
func (rs *relaxations) pickGroup(x []float64, tol float64) int {
	best, bestMax := -1, math.Inf(1)
	for g := 0; g+1 < len(rs.grpPtr); g++ {
		frac, top := false, math.Inf(-1)
		for _, j := range rs.members(g) {
			f := x[j] - math.Floor(x[j])
			frac = frac || math.Min(f, 1-f) > tol
			top = math.Max(top, x[j])
		}
		if frac && top < bestMax {
			best, bestMax = g, top
		}
	}
	return best
}

// pickBranchVar returns the most fractional binary variable, or -1 if all
// binaries are integral within tol.
func pickBranchVar(x []float64, binary []int, tol float64) int {
	best, bestDist := -1, tol
	for _, j := range binary {
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			best, bestDist = j, dist
		}
	}
	return best
}
