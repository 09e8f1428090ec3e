package relax

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vmalloc/internal/core"
	"vmalloc/internal/milp"
)

// maxSearchNodes is SolveExact's default cap on search nodes (services
// tried on a node). At 30–90 ns a node on a 2-vCPU x86 box it spends a few
// seconds, the budget of the 100,000 LP nodes (70–100 µs each there) that
// capped the branch and bound it replaced.
const maxSearchNodes = 100_000_000

// noFit marks a service whose rigid elementary requirement exceeds a node's
// elementary capacity.
var noFit = math.Inf(-1)

// SolveExact solves the MILP (Eqs. 1–7) exactly by depth-first search over
// placements, with no LP. Once the placement is fixed the MILP splits into
// one problem per node, each solved in closed form by core.MaxUniformYield,
// so the optimum is the maximum over placements of the minimum over used
// nodes of that yield. Adding a service to a node can only lower the node's
// yield, so the minimum over the nodes of a partial placement bounds every
// completion of it, and a partial placement whose minimum cannot beat the
// best complete one found is pruned. Intended for small instances (the paper
// notes exact solve time is exponential).
//
// The result is core.EvaluatePlacement of an optimal placement, or
// Solved=false when no placement fits. opts.MaxNodes caps the search nodes,
// each one service tried on one node (0 = default 100,000,000); a search that
// reaches the cap before proving either outcome is an error naming the node
// count and an upper bound on the optimum.
func SolveExact(p *core.Problem, opts *milp.Options) (*core.Result, error) {
	maxNodes := maxSearchNodes
	if opts != nil && opts.MaxNodes > 0 {
		maxNodes = opts.MaxNodes
	}
	s, bound := newExactSearch(p, maxNodes)
	if bound < 0 {
		return &core.Result{}, nil // some service fits on no node alone
	}
	if !s.place(0, bound) {
		return nil, fmt.Errorf("relax: exact search stopped after %d nodes without proving the optimum (bound %g)", s.nodes, bound)
	}
	if s.bestY < 0 {
		return &core.Result{}, nil
	}
	return core.EvaluatePlacement(p, s.best), nil
}

// exactSearch is the state of SolveExact's depth-first search. Per node h
// it keeps the aggregate requirement and need sums of the services placed
// there (req, need: H×D), the elementary yield cap min over those services
// (elem), and how many there are (count). Vectors are flattened row-major.
type exactSearch struct {
	H, D int
	// order lists the services in search order, largest first.
	order []int
	// svcReq, svcNeed are the services' aggregate requirements and needs
	// (J×D); svcElem[j*H+h] is service j's elementary yield cap on node h,
	// or noFit.
	svcReq, svcNeed, svcElem []float64
	// capacity is the nodes' aggregate capacities (H×D).
	capacity        []float64
	req, need, elem []float64
	count           []int
	// twin[h] is the nearest lower node with the same capacities, or -1.
	// Of identical empty nodes only the lowest is tried: the others root
	// mirror images of its subtree.
	twin []int
	// saved holds, per depth, the node state that depth overwrote.
	saved []float64
	pl    core.Placement
	// best is the best complete placement found and bestY its minimum
	// yield, -1 until one is found.
	best            core.Placement
	bestY           float64
	nodes, maxNodes int
}

// newExactSearch prepares the search of p and returns it with an upper
// bound on the optimum: the minimum over services of the best yield each
// gets alone on some node, capped at 1, or -1 when some service fits on no
// node even alone.
func newExactSearch(p *core.Problem, maxNodes int) (*exactSearch, float64) {
	J, H, D := p.NumServices(), p.NumNodes(), p.Dim()
	s := &exactSearch{
		H: H, D: D,
		order:    make([]int, J),
		svcReq:   make([]float64, J*D),
		svcNeed:  make([]float64, J*D),
		svcElem:  make([]float64, J*H),
		capacity: make([]float64, H*D),
		req:      make([]float64, H*D),
		need:     make([]float64, H*D),
		elem:     make([]float64, H),
		count:    make([]int, H),
		twin:     make([]int, H),
		saved:    make([]float64, J*(2*D+1)),
		pl:       core.NewPlacement(J),
		bestY:    -1,
		maxNodes: maxNodes,
	}
	size := make([]float64, J)
	for j := range p.Services {
		sv := &p.Services[j]
		copy(s.svcReq[j*D:], sv.ReqAgg)
		copy(s.svcNeed[j*D:], sv.NeedAgg)
		for d := 0; d < D; d++ {
			size[j] += sv.ReqAgg[d] + sv.NeedAgg[d]
		}
		for h := range p.Nodes {
			s.svcElem[j*H+h] = elementaryCap(sv, &p.Nodes[h])
		}
		s.order[j] = j
	}
	slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(size[b], size[a]) })
	for h := range p.Nodes {
		nd := &p.Nodes[h]
		copy(s.capacity[h*D:], nd.Aggregate)
		s.elem[h] = 1
		s.twin[h] = -1
		for g := h - 1; g >= 0; g-- {
			if slices.Equal(nd.Elementary, p.Nodes[g].Elementary) && slices.Equal(nd.Aggregate, p.Nodes[g].Aggregate) {
				s.twin[h] = g
				break
			}
		}
	}
	bound := 1.0
	for j := 0; j < J; j++ {
		alone := -1.0
		for h := 0; h < H; h++ {
			if y, ok := s.yieldWith(j, h); ok {
				alone = max(alone, y)
			}
		}
		bound = min(bound, alone)
	}
	return s, bound
}

// elementaryCap is the largest yield at which service sv's elementary
// allocation fits node nd's elementary capacity (at most 1), or noFit when
// its rigid requirement does not: the elementary half of
// core.MaxUniformYield, with its tolerance.
func elementaryCap(sv *core.Service, nd *core.Node) float64 {
	y := 1.0
	for d, c := range nd.Elementary {
		slack := c - sv.ReqElem[d]
		if slack < -core.DefaultEpsilon {
			return noFit
		}
		if sv.NeedElem[d] > 0 {
			y = min(y, slack/sv.NeedElem[d])
		}
	}
	return y
}

// yieldWith returns node h's max uniform yield once service j joins the
// services already there, and false when the rigid requirements overflow
// it. It is core.MaxUniformYield on the node's running sums.
func (s *exactSearch) yieldWith(j, h int) (float64, bool) {
	y := min(s.elem[h], s.svcElem[j*s.H+h])
	if math.IsInf(y, -1) { // noFit
		return 0, false
	}
	nb, jb := h*s.D, j*s.D
	for d := 0; d < s.D; d++ {
		slack := s.capacity[nb+d] - (s.req[nb+d] + s.svcReq[jb+d])
		if slack < -core.DefaultEpsilon {
			return 0, false
		}
		if n := s.need[nb+d] + s.svcNeed[jb+d]; n > 0 {
			y = min(y, slack/n)
		}
	}
	return max(y, 0), true
}

// place tries service order[k] on every node, given that the services
// before it are placed and that bound is at least the minimum yield of any
// completion. It returns false once the search reaches its node cap.
func (s *exactSearch) place(k int, bound float64) bool {
	if k == len(s.order) {
		s.best = append(s.best[:0], s.pl...)
		s.bestY = bound
		return true
	}
	j, D := s.order[k], s.D
	saved := s.saved[k*(2*D+1) : (k+1)*(2*D+1)]
	for h := 0; h < s.H; h++ {
		if t := s.twin[h]; t >= 0 && s.count[h] == 0 && s.count[t] == 0 {
			continue
		}
		if s.nodes == s.maxNodes {
			return false
		}
		s.nodes++
		y, ok := s.yieldWith(j, h)
		if !ok {
			continue
		}
		m := min(bound, y)
		if m <= s.bestY {
			continue // no completion can beat the incumbent
		}
		// Descend, saving the node's state to restore it bit for bit.
		nb := h * D
		req, need := s.req[nb:nb+D], s.need[nb:nb+D]
		copy(saved, req)
		copy(saved[D:], need)
		saved[2*D] = s.elem[h]
		for d := range req {
			req[d] += s.svcReq[j*D+d]
			need[d] += s.svcNeed[j*D+d]
		}
		s.elem[h] = min(s.elem[h], s.svcElem[j*s.H+h])
		s.count[h]++
		s.pl[j] = h
		done := s.place(k+1, m)
		copy(req, saved)
		copy(need, saved[D:])
		s.elem[h] = saved[2*D]
		s.count[h]--
		s.pl[j] = core.Unplaced
		if !done {
			return false
		}
		if s.bestY >= bound {
			return true // nothing below this depth can beat the incumbent
		}
	}
	return true
}
