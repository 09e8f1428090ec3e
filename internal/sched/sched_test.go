package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
)

func TestWaterFillAllSatisfied(t *testing.T) {
	alloc := WaterFill(1.0, []float64{1, 1}, []float64{0.3, 0.4})
	if math.Abs(alloc[0]-0.3) > 1e-9 || math.Abs(alloc[1]-0.4) > 1e-9 {
		t.Fatalf("alloc = %v", alloc)
	}
}

func TestWaterFillProportionalWhenScarce(t *testing.T) {
	alloc := WaterFill(1.0, []float64{1, 1}, []float64{2, 2})
	if math.Abs(alloc[0]-0.5) > 1e-6 || math.Abs(alloc[1]-0.5) > 1e-6 {
		t.Fatalf("alloc = %v", alloc)
	}
}

func TestWaterFillRedistributesSurplus(t *testing.T) {
	// Service 0 needs only 0.1; its unused share flows to service 1.
	alloc := WaterFill(1.0, []float64{1, 1}, []float64{0.1, 5})
	if math.Abs(alloc[0]-0.1) > 1e-6 {
		t.Fatalf("alloc[0] = %v", alloc[0])
	}
	if math.Abs(alloc[1]-0.9) > 1e-3 {
		t.Fatalf("alloc[1] = %v, want ~0.9 (work conserving)", alloc[1])
	}
}

func TestWaterFillWeighted(t *testing.T) {
	// Weights 3:1 with both insatiable: allocations split 0.75/0.25.
	alloc := WaterFill(1.0, []float64{3, 1}, []float64{10, 10})
	if math.Abs(alloc[0]-0.75) > 1e-6 || math.Abs(alloc[1]-0.25) > 1e-6 {
		t.Fatalf("alloc = %v", alloc)
	}
}

func TestWaterFillZeroWeightGetsLeftovers(t *testing.T) {
	alloc := WaterFill(1.0, []float64{1, 0}, []float64{0.2, 0.5})
	if math.Abs(alloc[0]-0.2) > 1e-6 {
		t.Fatalf("alloc[0] = %v", alloc[0])
	}
	if math.Abs(alloc[1]-0.5) > 1e-3 {
		t.Fatalf("alloc[1] = %v (leftover should satisfy it)", alloc[1])
	}
}

func TestWaterFillNeverExceedsCapacityOrDemand(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		w := make([]float64, n)
		d := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
			d[i] = rng.Float64() * 2
		}
		c := rng.Float64() * 3
		alloc := WaterFill(c, w, d)
		sum := 0.0
		for i, a := range alloc {
			if a < -1e-9 || a > d[i]+1e-6 {
				return false
			}
			sum += a
		}
		return sum <= c+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWaterFillWorkConserving(t *testing.T) {
	// Whenever total demand >= capacity, (almost) all capacity is used.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		w := make([]float64, n)
		d := make([]float64, n)
		total := 0.0
		for i := range w {
			w[i] = 0.1 + rng.Float64()
			d[i] = 0.2 + rng.Float64()
			total += d[i]
		}
		c := total * (0.3 + 0.6*rng.Float64()) // capacity below total demand
		alloc := WaterFill(c, w, d)
		sum := 0.0
		for _, a := range alloc {
			sum += a
		}
		return sum >= c-1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateOptimalYield(t *testing.T) {
	nc := &NodeCPU{
		Capacity:  1.0,
		Req:       []float64{0.1, 0.1},
		Estimated: []float64{0.4, 0.4},
		TrueNeed:  []float64{0.4, 0.4},
	}
	// free = 0.8, sum est = 0.8 -> yield 1.
	if y := nc.EstimateOptimalYield(); math.Abs(y-1.0) > 1e-9 {
		t.Fatalf("y* = %v", y)
	}
	nc.Estimated = []float64{0.8, 0.8}
	if y := nc.EstimateOptimalYield(); math.Abs(y-0.5) > 1e-9 {
		t.Fatalf("y* = %v", y)
	}
}

func TestAllocCapsPerfectEstimates(t *testing.T) {
	nc := &NodeCPU{
		Capacity:  1.0,
		Req:       []float64{0, 0},
		Estimated: []float64{1.0, 1.0},
		TrueNeed:  []float64{1.0, 1.0},
	}
	ys := nc.Yields(AllocCaps)
	for i, y := range ys {
		if math.Abs(y-0.5) > 1e-9 {
			t.Fatalf("yield[%d] = %v, want 0.5", i, y)
		}
	}
}

func TestAllocCapsWastesOnOverestimate(t *testing.T) {
	// Service 0's need is overestimated: its cap goes unused while service
	// 1 starves — the classic ALLOCCAPS failure (§6.2).
	nc := &NodeCPU{
		Capacity:  1.0,
		Req:       []float64{0, 0},
		Estimated: []float64{0.9, 0.1}, // estimates
		TrueNeed:  []float64{0.1, 0.9}, // reality is reversed
	}
	capsMin := nc.MinYield(AllocCaps)
	weightsMin := nc.MinYield(AllocWeights)
	equalMin := nc.MinYield(EqualWeights)
	if capsMin >= weightsMin-1e-9 {
		t.Fatalf("ALLOCCAPS %v should lose to ALLOCWEIGHTS %v here", capsMin, weightsMin)
	}
	if equalMin <= capsMin {
		t.Fatalf("EQUALWEIGHTS %v should beat ALLOCCAPS %v here", equalMin, capsMin)
	}
}

func TestEqualWeightsIgnoresEstimates(t *testing.T) {
	a := &NodeCPU{Capacity: 1, Req: []float64{0, 0}, Estimated: []float64{0.1, 5}, TrueNeed: []float64{0.6, 0.6}}
	b := &NodeCPU{Capacity: 1, Req: []float64{0, 0}, Estimated: []float64{5, 0.1}, TrueNeed: []float64{0.6, 0.6}}
	ya, yb := a.Yields(EqualWeights), b.Yields(EqualWeights)
	for i := range ya {
		if math.Abs(ya[i]-yb[i]) > 1e-9 {
			t.Fatalf("EQUALWEIGHTS must not depend on estimates: %v vs %v", ya, yb)
		}
	}
}

// Theorem 1: EQUALWEIGHTS is (2J-1)/J^2 competitive in the worst case, and
// the instance n_1 = 1, n_j = 1/J achieves the ratio exactly.
func TestEqualWeightsCompetitiveRatioTightInstance(t *testing.T) {
	for _, J := range []int{2, 3, 5, 10, 25} {
		needs := make([]float64, J)
		needs[0] = 1
		for j := 1; j < J; j++ {
			needs[j] = 1 / float64(J)
		}
		nc := &NodeCPU{
			Capacity:  1,
			Req:       make([]float64, J),
			Estimated: make([]float64, J), // EQUALWEIGHTS ignores these
			TrueNeed:  needs,
		}
		got := nc.MinYield(EqualWeights)
		// Optimal min yield = 1 / sum(needs) = 1 / (1 + (J-1)/J).
		sum := 0.0
		for _, n := range needs {
			sum += n
		}
		opt := 1 / sum
		ratio := got / opt
		want := CompetitiveLowerBound(J)
		if math.Abs(ratio-want) > 2e-3 {
			t.Fatalf("J=%d: ratio %v, want %v (got yield %v, opt %v)", J, ratio, want, got, opt)
		}
	}
}

// Random single-node instances never violate the theorem's bound.
func TestEqualWeightsNeverBelowBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		J := 2 + rng.Intn(10)
		needs := make([]float64, J)
		sum := 0.0
		for j := range needs {
			needs[j] = 0.01 + rng.Float64()
			sum += needs[j]
		}
		if sum <= 1 {
			continue // every service satisfiable: ratio is 1
		}
		nc := &NodeCPU{
			Capacity:  1,
			Req:       make([]float64, J),
			Estimated: make([]float64, J),
			TrueNeed:  needs,
		}
		got := nc.MinYield(EqualWeights)
		opt := 1 / sum
		bound := CompetitiveLowerBound(J)
		if got/opt < bound-1e-2 {
			t.Fatalf("iter %d J=%d: ratio %v below bound %v (needs %v)", iter, J, got/opt, bound, needs)
		}
	}
}

func TestCompetitiveLowerBoundValues(t *testing.T) {
	if CompetitiveLowerBound(0) != 0 {
		t.Fatal("J=0 should be 0")
	}
	if math.Abs(CompetitiveLowerBound(1)-1) > 1e-12 {
		t.Fatal("J=1 bound should be 1 (single service gets everything)")
	}
	if math.Abs(CompetitiveLowerBound(2)-0.75) > 1e-12 {
		t.Fatalf("J=2 bound = %v, want 0.75", CompetitiveLowerBound(2))
	}
}

func testProblem() *core.Problem {
	n := core.Node{Elementary: vec.Of(0.25, 1), Aggregate: vec.Of(1, 1)}
	mk := func(need, mem float64) core.Service {
		return core.Service{
			ReqElem:  vec.Of(0.01, mem),
			ReqAgg:   vec.Of(0, mem),
			NeedElem: vec.Of(need/4, 0),
			NeedAgg:  vec.Of(need, 0),
		}
	}
	return &core.Problem{
		Nodes:    []core.Node{n, n},
		Services: []core.Service{mk(0.5, 0.2), mk(0.7, 0.3), mk(0.3, 0.1), mk(0.4, 0.2)},
	}
}

func TestZeroKnowledgePlacementBalances(t *testing.T) {
	p := testProblem()
	pl := ZeroKnowledgePlacement(p)
	if !pl.Complete() {
		t.Fatal("placement incomplete")
	}
	var counts [2]int
	for _, h := range pl {
		counts[h]++
	}
	if c0, c1 := counts[0], counts[1]; c0 != 2 || c1 != 2 {
		t.Fatalf("counts = %d,%d, want 2,2", c0, c1)
	}
	if err := pl.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestZeroKnowledgeRespectsRequirements(t *testing.T) {
	p := testProblem()
	// Make node 1 unable to host anything (memory 0).
	p.Nodes[1].Aggregate = vec.Of(1, 0.05)
	p.Nodes[1].Elementary = vec.Of(0.25, 0.05)
	pl := ZeroKnowledgePlacement(p)
	if !pl.Complete() {
		t.Fatal("should still fit all on node 0")
	}
	for _, h := range pl {
		if h != 0 {
			t.Fatalf("service placed on infeasible node: %v", pl)
		}
	}
}

func TestZeroKnowledgeFailsWhenImpossible(t *testing.T) {
	p := testProblem()
	p.Services[0].ReqAgg = vec.Of(0, 9)
	pl := ZeroKnowledgePlacement(p)
	if pl.Complete() {
		t.Fatal("should fail")
	}
}

func TestEvaluatePlacementPerfectEstimates(t *testing.T) {
	p := testProblem()
	pl := ZeroKnowledgePlacement(p)
	// With estimates == truth, ALLOCWEIGHTS achieves the estimate-optimal
	// yields, and ALLOCCAPS matches it.
	w := EvaluatePlacement(p, p, pl, AllocWeights, 0)
	c := EvaluatePlacement(p, p, pl, AllocCaps, 0)
	if math.Abs(w-c) > 1e-3 {
		t.Fatalf("perfect estimates: weights %v vs caps %v should agree", w, c)
	}
}

func TestApplyThreshold(t *testing.T) {
	p := testProblem()
	q := ApplyThreshold(p, 0, 0.6)
	for j := range q.Services {
		if got := q.Services[j].NeedAgg[0]; got < 0.6-1e-12 {
			t.Fatalf("service %d need %v below threshold", j, got)
		}
		if q.Services[j].NeedElem[0] > q.Services[j].NeedAgg[0]+1e-12 {
			t.Fatalf("service %d elementary need exceeds aggregate", j)
		}
	}
	// Above-threshold values unchanged.
	if got := q.Services[1].NeedAgg[0]; math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("0.7 need should be unchanged, got %v", got)
	}
	// Original untouched.
	if p.Services[0].NeedAgg[0] != 0.5 {
		t.Fatal("ApplyThreshold mutated its input")
	}
}

func TestBuildNodeCPU(t *testing.T) {
	p := testProblem()
	est := p.Clone()
	est.Services[0].NeedAgg[0] = 0.9
	pl := core.Placement{0, 1, 0, 1}
	nc := BuildNodeCPU(p, est, pl, 0, 0)
	if len(nc.TrueNeed) != 2 {
		t.Fatalf("node 0 should host 2 services, got %d", len(nc.TrueNeed))
	}
	if nc.TrueNeed[0] != 0.5 || nc.Estimated[0] != 0.9 {
		t.Fatalf("true/est = %v/%v", nc.TrueNeed[0], nc.Estimated[0])
	}
}

// With accurate estimates, ALLOCWEIGHTS must not lose to EQUALWEIGHTS: the
// informed weights reproduce the estimate-optimal shares.
func TestAllocWeightsBeatsEqualWithGoodEstimates(t *testing.T) {
	nc := &NodeCPU{
		Capacity:  1.0,
		Req:       []float64{0, 0},
		Estimated: []float64{1.6, 0.4},
		TrueNeed:  []float64{1.6, 0.4},
	}
	w := nc.MinYield(AllocWeights)
	e := nc.MinYield(EqualWeights)
	if w < e-1e-9 {
		t.Fatalf("weights %v < equal %v despite perfect estimates", w, e)
	}
	// Proportional shares: both services get yield 0.5 under weights; equal
	// weights give the small service everything it needs and starve the big
	// one (alloc 0.6/1.6 = 0.375).
	if math.Abs(w-0.5) > 1e-3 {
		t.Fatalf("weights min yield = %v, want 0.5", w)
	}
	if math.Abs(e-0.375) > 1e-2 {
		t.Fatalf("equal min yield = %v, want ~0.375", e)
	}
}

// EvaluatePlacement takes the minimum across nodes.
func TestEvaluatePlacementMultiNodeMinimum(t *testing.T) {
	p := testProblem()
	// Node 0 gets the two large services, node 1 the two small: node 0 is
	// the bottleneck.
	pl := core.Placement{0, 0, 1, 1}
	y := EvaluatePlacement(p, p, pl, AllocWeights, 0)
	nc0 := BuildNodeCPU(p, p, pl, 0, 0)
	nc1 := BuildNodeCPU(p, p, pl, 1, 0)
	y0, y1 := nc0.MinYield(AllocWeights), nc1.MinYield(AllocWeights)
	want := math.Min(y0, y1)
	if math.Abs(y-want) > 1e-12 {
		t.Fatalf("EvaluatePlacement = %v, want min(%v,%v)", y, y0, y1)
	}
}
