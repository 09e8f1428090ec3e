// Package opt post-processes placements: Improve raises the minimum yield
// of an existing placement by hill-climbing over single-service moves and
// pairwise swaps, and Repair adapts an existing placement to a changed
// workload under a migration budget — the operations a production resource
// manager (§8) needs between full reallocations.
//
// Both operations only ever return placements that satisfy all rigid
// requirements, and Improve is monotone: the returned minimum yield is never
// below the input's.
package opt

import (
	"vmalloc/internal/core"
	"vmalloc/internal/vec"
)

// Improve stops after maxRounds full passes over the service list, or once
// a pass gains less than minGain minimum yield.
const (
	maxRounds = 10
	minGain   = 1e-6
)

// Improve hill-climbs from a solved placement: each round it examines, for
// every service on a bottleneck node, all single moves to other nodes and
// all swaps with services on other nodes, applying the change that most
// increases the minimum yield. It stops at a local optimum, after maxRounds,
// or when the improvement drops below minGain. The input placement is not
// modified.
func Improve(p *core.Problem, pl core.Placement) *core.Result {
	cur := core.EvaluatePlacement(p, pl)
	if !cur.Solved {
		return cur
	}
	for round := 0; round < maxRounds; round++ {
		next := bestNeighbor(p, cur)
		if next == nil || next.MinYield <= cur.MinYield+minGain {
			break
		}
		cur = next
	}
	return cur
}

// bestNeighbor returns the best move/swap neighbor strictly improving the
// minimum yield, or nil when none exists.
func bestNeighbor(p *core.Problem, cur *core.Result) *core.Result {
	// Bottleneck nodes: those whose uniform yield equals the minimum.
	byNode := make([][]int, p.NumNodes())
	for j, h := range cur.Placement {
		byNode[h] = append(byNode[h], j)
	}
	bottleneck := map[int]bool{}
	for h := range byNode {
		if len(byNode[h]) == 0 {
			continue
		}
		if core.MaxUniformYield(p, h, byNode[h]) <= cur.MinYield+1e-9 {
			bottleneck[h] = true
		}
	}

	var best *core.Result
	// One scratch placement serves every candidate: each mutation is undone
	// after evaluation, and EvaluatePlacement clones internally, so the
	// retained best result never aliases the scratch.
	scratch := cur.Placement.Clone()
	try := func(pl core.Placement) {
		res := core.EvaluatePlacement(p, pl)
		if !res.Solved {
			return
		}
		if res.MinYield > cur.MinYield+1e-12 && (best == nil || res.MinYield > best.MinYield) {
			best = res
		}
	}

	for j, hj := range cur.Placement {
		if !bottleneck[hj] {
			continue
		}
		// Moves.
		for h := 0; h < p.NumNodes(); h++ {
			if h == hj {
				continue
			}
			scratch[j] = h
			try(scratch)
			scratch[j] = hj
		}
		// Swaps with services on other nodes.
		for k, hk := range cur.Placement {
			if k == j || hk == hj {
				continue
			}
			scratch[j], scratch[k] = hk, hj
			try(scratch)
			scratch[j], scratch[k] = hj, hk
		}
	}
	return best
}

// Repair places the services of p starting from a previous placement prev:
// entries with a valid node are kept if their requirements still fit;
// services that are new (prev entry Unplaced or out of range) or no longer
// fit are (re)placed by best-fit on remaining requirement capacity, and the
// local search of Improve then runs within what is left of the budget, each
// service it moves counted against it. At most budget
// previously-placed services move (new services do not count; negative
// means unlimited). It returns an unsolved result if the workload cannot be
// accommodated within the budget.
func Repair(p *core.Problem, prev core.Placement, budget int) *core.Result {
	J, H := p.NumServices(), p.NumNodes()
	pl := core.NewPlacement(J)
	loads := make([]vec.Vec, H)
	for h := range loads {
		loads[h] = vec.New(p.Dim())
	}

	// Pass 1: keep still-feasible old assignments.
	type pending struct {
		j   int
		old bool // previously placed (a move costs budget)
	}
	var todo []pending
	for j := 0; j < J; j++ {
		h := core.Unplaced
		if j < len(prev) {
			h = prev[j]
		}
		if h >= 0 && h < H {
			s := &p.Services[j]
			if s.FitsRequirements(&p.Nodes[h], loads[h]) {
				pl[j] = h
				loads[h].AccumAdd(s.ReqAgg)
				continue
			}
			todo = append(todo, pending{j, true})
			continue
		}
		todo = append(todo, pending{j, false})
	}

	// Pass 2: place the rest by best fit (least remaining requirement
	// capacity), charging moves of old services against the budget.
	for _, t := range todo {
		if t.old && budget == 0 {
			return &core.Result{Placement: pl}
		}
		s := &p.Services[t.j]
		best, bestScore := -1, 0.0
		for h := 0; h < H; h++ {
			if !s.FitsRequirements(&p.Nodes[h], loads[h]) {
				continue
			}
			rem := p.Nodes[h].Aggregate.Sub(loads[h]).Sum()
			if best == -1 || rem < bestScore {
				best, bestScore = h, rem
			}
		}
		if best == -1 {
			return &core.Result{Placement: pl}
		}
		pl[t.j] = best
		loads[best].AccumAdd(s.ReqAgg)
		if t.old && budget > 0 {
			budget--
		}
	}

	cur := core.EvaluatePlacement(p, pl)
	if !cur.Solved {
		return cur
	}
	// Budget-aware improvement: accept neighbors only while budget allows.
	for budget != 0 {
		next := bestNeighbor(p, cur)
		if next == nil || next.MinYield <= cur.MinYield+minGain {
			break
		}
		moved := countMoves(cur.Placement, next.Placement)
		if budget > 0 {
			if moved > budget {
				break
			}
			budget -= moved
		}
		cur = next
	}
	return cur
}

// countMoves returns how many services differ between two placements.
func countMoves(a, b core.Placement) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// Migrations returns how many services moved from prev to next, ignoring
// services that were unplaced in prev (new arrivals are free).
func Migrations(prev, next core.Placement) int {
	n := 0
	for i := range next {
		if i < len(prev) && prev[i] >= 0 && prev[i] != next[i] {
			n++
		}
	}
	return n
}
