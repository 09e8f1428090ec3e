// Package greedy implements the paper's greedy placement family (§3.4):
// seven service sorting strategies S1–S7 crossed with seven node selection
// strategies P1–P7, for 49 algorithms, plus METAGREEDY, which runs all 49 and
// keeps the best solution.
//
// A greedy algorithm walks the (sorted) services and places each on a node
// chosen among those whose remaining capacity can still satisfy the
// service's rigid requirements. Load bookkeeping for the selection criteria
// uses the service's full demand (requirements plus needs), the quantity the
// service would consume at yield 1. Once every service is placed the
// minimum yield is obtained by giving each node its maximum uniform yield.
package greedy

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
)

// SortStrategy selects the service ordering (paper S1–S7).
type SortStrategy int

const (
	// S1 keeps services in their natural order.
	S1 SortStrategy = iota + 1
	// S2 sorts by decreasing maximum need.
	S2
	// S3 sorts by decreasing sum of needs.
	S3
	// S4 sorts by decreasing maximum requirement.
	S4
	// S5 sorts by decreasing sum of requirements.
	S5
	// S6 sorts by decreasing max(sum of requirements, sum of needs).
	S6
	// S7 sorts by decreasing sum of requirements and needs.
	S7
)

// String returns the paper's label for the strategy.
func (s SortStrategy) String() string { return fmt.Sprintf("S%d", int(s)) }

// PickStrategy selects the node choice rule (paper P1–P7).
type PickStrategy int

const (
	// P1 picks the node with the most available capacity in the service's
	// dimension of maximum need.
	P1 PickStrategy = iota + 1
	// P2 picks the node minimizing the ratio of summed loads to summed
	// capacities after placement.
	P2
	// P3 picks the node with the least remaining capacity in the service's
	// dimension of largest requirement (best fit).
	P3
	// P4 picks the node with the least aggregate available capacity
	// (best fit).
	P4
	// P5 picks the node with the most capacity remaining in the service's
	// dimension of largest requirement (worst fit).
	P5
	// P6 picks the node with the most total available resource (worst fit).
	P6
	// P7 picks the first node that fits (first fit).
	P7
)

// String returns the paper's label for the strategy.
func (p PickStrategy) String() string { return fmt.Sprintf("P%d", int(p)) }

// SortStrategies lists S1–S7.
func SortStrategies() []SortStrategy {
	return []SortStrategy{S1, S2, S3, S4, S5, S6, S7}
}

// PickStrategies lists P1–P7.
func PickStrategies() []PickStrategy {
	return []PickStrategy{P1, P2, P3, P4, P5, P6, P7}
}

// sortKey returns the (descending) key for a service under strategy s.
func sortKey(s SortStrategy, svc *core.Service) float64 {
	switch s {
	case S2:
		return svc.NeedAgg.Max()
	case S3:
		return svc.NeedAgg.Sum()
	case S4:
		return svc.ReqAgg.Max()
	case S5:
		return svc.ReqAgg.Sum()
	case S6:
		r, n := svc.ReqAgg.Sum(), svc.NeedAgg.Sum()
		if r > n {
			return r
		}
		return n
	case S7:
		return svc.ReqAgg.Sum() + svc.NeedAgg.Sum()
	default:
		return 0
	}
}

// orderServices returns service indices in the order mandated by s.
func orderServices(p *core.Problem, s SortStrategy) []int {
	idx := make([]int, p.NumServices())
	for i := range idx {
		idx[i] = i
	}
	if s == S1 {
		return idx
	}
	keys := make([]float64, len(idx))
	for i := range idx {
		keys[i] = sortKey(s, &p.Services[i])
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] > keys[idx[b]] })
	return idx
}

// orderTable computes the seven S1–S7 service permutations once, so
// METAGREEDY's 49 combos share 7 sorts instead of sorting per combo.
func orderTable(p *core.Problem) map[SortStrategy][]int {
	orders := make(map[SortStrategy][]int, len(SortStrategies()))
	for _, s := range SortStrategies() {
		orders[s] = orderServices(p, s)
	}
	return orders
}

// state tracks per-node bookkeeping during one greedy run. It is a reusable
// scratch arena: loads live in flat backing arrays, the per-service
// selection keys (demand vector, argmax dimensions) are precomputed once,
// and reset clears it for the next combo without reallocating.
type state struct {
	p *core.Problem
	// reqLoad is the sum of aggregate requirements (feasibility bookkeeping).
	reqLoad []vec.Vec
	// demandLoad is the sum of full demands (selection bookkeeping).
	demandLoad        []vec.Vec
	reqBuf, demandBuf []float64
	// demand[j] = ReqAgg + NeedAgg of service j, precomputed.
	demand       []vec.Vec
	demandVecBuf []float64
	// needArgMax/reqArgMax cache argMaxDim of each service's needs and
	// requirements (P1, P3, P5 keys).
	needArgMax, reqArgMax []int
	// capSum[h] = sum of node h's aggregate capacity (P2 denominator).
	capSum []float64
	// placement is the reusable output buffer of solveWith.
	placement core.Placement
}

func newState(p *core.Problem) *state {
	d := p.Dim()
	numNodes, numSvcs := p.NumNodes(), p.NumServices()
	st := &state{p: p,
		reqLoad:      make([]vec.Vec, numNodes),
		demandLoad:   make([]vec.Vec, numNodes),
		reqBuf:       make([]float64, numNodes*d),
		demandBuf:    make([]float64, numNodes*d),
		demand:       make([]vec.Vec, numSvcs),
		demandVecBuf: make([]float64, numSvcs*d),
		needArgMax:   make([]int, numSvcs),
		reqArgMax:    make([]int, numSvcs),
		capSum:       make([]float64, numNodes),
		placement:    core.NewPlacement(numSvcs),
	}
	for h := 0; h < numNodes; h++ {
		st.reqLoad[h] = vec.Vec(st.reqBuf[h*d : (h+1)*d])
		st.demandLoad[h] = vec.Vec(st.demandBuf[h*d : (h+1)*d])
		st.capSum[h] = p.Nodes[h].Aggregate.Sum()
	}
	for j := 0; j < numSvcs; j++ {
		s := &p.Services[j]
		dem := vec.Vec(st.demandVecBuf[j*d : (j+1)*d])
		for dd := range dem {
			dem[dd] = s.ReqAgg[dd] + s.NeedAgg[dd]
		}
		st.demand[j] = dem
		st.needArgMax[j] = argMaxDim(s.NeedAgg)
		st.reqArgMax[j] = argMaxDim(s.ReqAgg)
	}
	return st
}

// reset clears the load bookkeeping for a fresh run.
func (st *state) reset() {
	for i := range st.reqBuf {
		st.reqBuf[i] = 0
	}
	for i := range st.demandBuf {
		st.demandBuf[i] = 0
	}
}

func (st *state) place(j, h int) {
	s := &st.p.Services[j]
	st.reqLoad[h].AccumAdd(s.ReqAgg)
	st.demandLoad[h].AccumAdd(s.ReqAgg)
	st.demandLoad[h].AccumAdd(s.NeedAgg)
}

// availAt returns one component of the node's available capacity (aggregate
// capacity minus demand load; negative when a node is oversubscribed in
// terms of needs) without materializing the vector.
func (st *state) availAt(h, d int) float64 {
	return st.p.Nodes[h].Aggregate[d] - st.demandLoad[h][d]
}

// availSum returns the summed available capacity; vec.SumDiff keeps P4/P6
// tie-breaking bit-identical to summing Aggregate.Sub(demandLoad[h]).
func (st *state) availSum(h int) float64 {
	return vec.SumDiff(st.p.Nodes[h].Aggregate, st.demandLoad[h])
}

// argMaxDim returns the index of the largest component, ties to the lowest
// dimension.
func argMaxDim(v vec.Vec) int {
	best, bestV := 0, v[0]
	for d := 1; d < len(v); d++ {
		if v[d] > bestV {
			best, bestV = d, v[d]
		}
	}
	return best
}

// pickNode applies strategy pick to choose among nodes that can satisfy the
// service's rigid requirements. It returns -1 when no node fits. All score
// computations run on cached keys and the flat load arrays; nothing in the
// loop allocates.
func (st *state) pickNode(j int, pick PickStrategy) int {
	s := &st.p.Services[j]
	best := -1
	var bestScore float64
	better := func(score float64, h int) bool {
		if best == -1 {
			return true
		}
		switch pick {
		case P2, P3, P4: // minimize
			return score < bestScore
		default: // maximize
			return score > bestScore
		}
	}
	for h := 0; h < st.p.NumNodes(); h++ {
		if !s.FitsRequirements(&st.p.Nodes[h], st.reqLoad[h]) {
			continue
		}
		if pick == P7 {
			return h
		}
		var score float64
		switch pick {
		case P1:
			score = st.availAt(h, st.needArgMax[j])
		case P2:
			if st.capSum[h] <= 0 {
				continue
			}
			// after = sum(demandLoad[h] + demand[j]), summed in dimension
			// order to match the allocating formulation bit-for-bit.
			dl, dem := st.demandLoad[h], st.demand[j]
			after := 0.0
			for d := range dl {
				after += dl[d] + dem[d]
			}
			score = after / st.capSum[h]
		case P3, P5:
			score = st.availAt(h, st.reqArgMax[j])
		case P4, P6:
			score = st.availSum(h)
		}
		if better(score, h) {
			best, bestScore = h, score
		}
	}
	return best
}

// solveWith runs one greedy algorithm on st's problem using a precomputed
// service order, reusing st and its placement buffer across calls.
func solveWith(st *state, order []int, pickStrat PickStrategy) *core.Result {
	st.reset()
	pl := st.placement
	for i := range pl {
		pl[i] = core.Unplaced
	}
	for _, j := range order {
		h := st.pickNode(j, pickStrat)
		if h < 0 {
			return &core.Result{Placement: pl.Clone()}
		}
		pl[j] = h
		st.place(j, h)
	}
	return core.EvaluatePlacement(st.p, pl)
}

// Solve runs one greedy algorithm (sortStrat, pickStrat) on p.
func Solve(p *core.Problem, sortStrat SortStrategy, pickStrat PickStrategy) *core.Result {
	return solveWith(newState(p), orderServices(p, sortStrat), pickStrat)
}

// MetaGreedy runs all 49 greedy algorithms and returns the best result
// (highest minimum yield among those that solve the instance). The seven
// service orders are sorted once and shared across the 49 combos. When
// parallel is true the combos are distributed over a bounded pool of at most
// GOMAXPROCS workers, each owning one reusable state arena.
func MetaGreedy(p *core.Problem, parallel bool) *core.Result {
	type combo struct {
		s SortStrategy
		k PickStrategy
	}
	var combos []combo
	for _, s := range SortStrategies() {
		for _, k := range PickStrategies() {
			combos = append(combos, combo{s, k})
		}
	}
	orders := orderTable(p)
	results := make([]*core.Result, len(combos))
	if parallel {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(combos) {
			workers = len(combos)
		}
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st := newState(p)
				for i := range ch {
					c := combos[i]
					results[i] = solveWith(st, orders[c.s], c.k)
				}
			}()
		}
		for i := range combos {
			ch <- i
		}
		close(ch)
		wg.Wait()
	} else {
		st := newState(p)
		for i, c := range combos {
			results[i] = solveWith(st, orders[c.s], c.k)
		}
	}
	best := &core.Result{}
	for _, r := range results {
		if r.Solved && (!best.Solved || r.MinYield > best.MinYield) {
			best = r
		}
	}
	return best
}
