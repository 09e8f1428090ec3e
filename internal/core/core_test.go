package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmalloc/internal/vec"
)

// fig1Problem builds the example of paper Figure 1: two nodes and one
// service, D = 2 (CPU, memory).
func fig1Problem() *Problem {
	return &Problem{
		Nodes: []Node{
			{ // Node A: 4 cores of 0.8 (agg 3.2), memory 1.0
				Name:       "A",
				Elementary: vec.Of(0.8, 1.0),
				Aggregate:  vec.Of(3.2, 1.0),
			},
			{ // Node B: 2 cores of 1.0 (agg 2.0), memory 0.5
				Name:       "B",
				Elementary: vec.Of(1.0, 0.5),
				Aggregate:  vec.Of(2.0, 0.5),
			},
		},
		Services: []Service{
			{
				Name:     "svc",
				ReqElem:  vec.Of(0.5, 0.5),
				ReqAgg:   vec.Of(1.0, 0.5),
				NeedElem: vec.Of(0.5, 0.0),
				NeedAgg:  vec.Of(1.0, 0.0),
			},
		},
	}
}

func TestFigure1YieldOnNodeA(t *testing.T) {
	p := fig1Problem()
	// On node A the aggregate CPU capacity usable by this service is capped
	// by the elementary allocation: each of its virtual CPUs can get at most
	// 0.8 of a core. With elementary need 0.5+y*0.5 <= 0.8 => y <= 0.6, and
	// the aggregate constraint 1.0 + y*1.0 <= 3.2 is slack. The paper reads
	// the same 0.6 from the aggregate side ((1.6-1.0)/1.0).
	y := MaxUniformYield(p, 0, []int{0})
	if math.Abs(y-0.6) > 1e-12 {
		t.Fatalf("yield on node A = %v, want 0.6", y)
	}
}

func TestFigure1YieldOnNodeB(t *testing.T) {
	p := fig1Problem()
	y := MaxUniformYield(p, 1, []int{0})
	if math.Abs(y-1.0) > 1e-12 {
		t.Fatalf("yield on node B = %v, want 1.0", y)
	}
}

func TestFigure1BestPlacement(t *testing.T) {
	p := fig1Problem()
	resA := EvaluatePlacement(p, Placement{0})
	resB := EvaluatePlacement(p, Placement{1})
	if !resA.Solved || !resB.Solved {
		t.Fatal("both placements should be feasible")
	}
	if resB.MinYield <= resA.MinYield {
		t.Fatalf("node B (%v) should beat node A (%v)", resB.MinYield, resA.MinYield)
	}
}

func TestValidateAcceptsFig1(t *testing.T) {
	if err := fig1Problem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsDimensionMismatch(t *testing.T) {
	p := fig1Problem()
	p.Services[0].ReqAgg = vec.Of(1.0)
	if err := p.Validate(); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestValidateRejectsNegativeValues(t *testing.T) {
	p := fig1Problem()
	p.Nodes[0].Aggregate[0] = -1
	if err := p.Validate(); err == nil {
		t.Fatal("expected negative-value error")
	}
}

func TestValidateRejectsElementaryAboveAggregate(t *testing.T) {
	p := fig1Problem()
	p.Nodes[0].Elementary[0] = 5
	if err := p.Validate(); err == nil {
		t.Fatal("expected elementary>aggregate error")
	}
}

func TestValidateRejectsEmptyProblem(t *testing.T) {
	p := &Problem{}
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for empty problem")
	}
}

func TestServiceDemandAlgebra(t *testing.T) {
	s := &fig1Problem().Services[0]
	if got := s.AggAt(0.5); math.Abs(got[0]-1.5) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Fatalf("AggAt(0.5) = %v", got)
	}
	if got := s.ElemAt(1.0); math.Abs(got[0]-1.0) > 1e-12 {
		t.Fatalf("ElemAt(1.0) = %v", got)
	}
}

func TestFitsRequirements(t *testing.T) {
	p := fig1Problem()
	s := &p.Services[0]
	zero := vec.New(2)
	if !s.FitsRequirements(&p.Nodes[0], zero) {
		t.Fatal("service should fit on empty node A")
	}
	// With existing aggregate load 2.5 CPU, requirement 1.0 exceeds 3.2.
	if s.FitsRequirements(&p.Nodes[0], vec.Of(2.5, 0.0)) {
		t.Fatal("service should not fit CPU-wise")
	}
	// Elementary violation: node with tiny cores.
	tiny := Node{Elementary: vec.Of(0.1, 1.0), Aggregate: vec.Of(3.2, 1.0)}
	if s.FitsRequirements(&tiny, zero) {
		t.Fatal("elementary requirement should not fit on 0.1 cores")
	}
}

func TestPlacementHelpers(t *testing.T) {
	pl := NewPlacement(3)
	if pl.Complete() {
		t.Fatal("fresh placement should be incomplete")
	}
	pl[0], pl[1], pl[2] = 1, 0, 1
	if !pl.Complete() {
		t.Fatal("should be complete")
	}
	c := pl.Clone()
	c[0] = 0
	if pl[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestPlacementValidate(t *testing.T) {
	p := fig1Problem()
	if err := (Placement{1}).Validate(p); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	if err := (Placement{7}).Validate(p); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := (Placement{0, 1}).Validate(p); err == nil {
		t.Fatal("wrong length accepted")
	}
}

func TestPlacementValidateAggregateOverflow(t *testing.T) {
	p := fig1Problem()
	// Two copies of the service on node B: 2 * 1.0 CPU requirement = 2.0
	// fits exactly, but memory 2*0.5 = 1.0 > 0.5 fails.
	p.Services = append(p.Services, p.Services[0])
	if err := (Placement{1, 1}).Validate(p); err == nil {
		t.Fatal("aggregate overflow accepted")
	}
}

func TestMaxUniformYieldInfeasible(t *testing.T) {
	p := fig1Problem()
	p.Services = append(p.Services, p.Services[0])
	// Node B cannot hold two copies (memory).
	if y := MaxUniformYield(p, 1, []int{0, 1}); y >= 0 {
		t.Fatalf("expected negative yield for infeasible set, got %v", y)
	}
}

func TestMaxUniformYieldZeroNeeds(t *testing.T) {
	p := fig1Problem()
	p.Services[0].NeedElem = vec.New(2)
	p.Services[0].NeedAgg = vec.New(2)
	if y := MaxUniformYield(p, 0, []int{0}); y != 1.0 {
		t.Fatalf("zero-need service should reach yield 1, got %v", y)
	}
}

func TestEvaluatePlacementIncomplete(t *testing.T) {
	p := fig1Problem()
	res := EvaluatePlacement(p, NewPlacement(1))
	if res.Solved {
		t.Fatal("incomplete placement should not be solved")
	}
}

func TestFeasibleAtYield(t *testing.T) {
	p := fig1Problem()
	if !FeasibleAtYield(p, Placement{0}, 0.6) {
		t.Fatal("yield 0.6 should be feasible on node A")
	}
	if FeasibleAtYield(p, Placement{0}, 0.61) {
		t.Fatal("yield 0.61 should be infeasible on node A")
	}
	if !FeasibleAtYield(p, Placement{1}, 1.0) {
		t.Fatal("yield 1.0 should be feasible on node B")
	}
}

func TestTotals(t *testing.T) {
	p := fig1Problem()
	agg := p.TotalAggregate()
	if math.Abs(agg[0]-5.2) > 1e-12 || math.Abs(agg[1]-1.5) > 1e-12 {
		t.Fatalf("TotalAggregate = %v", agg)
	}
}

func TestCloneDeep(t *testing.T) {
	p := fig1Problem()
	q := p.Clone()
	q.Nodes[0].Aggregate[0] = 99
	q.Services[0].ReqAgg[0] = 99
	if p.Nodes[0].Aggregate[0] == 99 || p.Services[0].ReqAgg[0] == 99 {
		t.Fatal("Clone is shallow")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := fig1Problem()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 2 || q.NumServices() != 1 {
		t.Fatalf("round trip lost data: %+v", q)
	}
	if q.Nodes[0].Aggregate[0] != 3.2 {
		t.Fatalf("round trip changed values: %v", q.Nodes[0].Aggregate)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"nodes":[],"services":[]}`)); err == nil {
		t.Fatal("empty problem accepted")
	}
}

// randomFeasibleProblem builds a random problem plus a random complete
// placement guaranteed to satisfy requirements (requirements are scaled to
// fit), used by the property tests below.
func randomFeasibleProblem(rng *rand.Rand, h, j int) (*Problem, Placement) {
	p := &Problem{}
	for i := 0; i < h; i++ {
		agg := vec.Of(0.5+rng.Float64(), 0.5+rng.Float64())
		p.Nodes = append(p.Nodes, Node{
			Elementary: agg.Scale(0.25 + 0.75*rng.Float64()),
			Aggregate:  agg,
		})
	}
	pl := make(Placement, j)
	perNode := make([]int, h)
	for s := 0; s < j; s++ {
		pl[s] = rng.Intn(h)
		perNode[pl[s]]++
	}
	for s := 0; s < j; s++ {
		n := &p.Nodes[pl[s]]
		k := float64(perNode[pl[s]])
		req := n.Aggregate.Scale(rng.Float64() * 0.9 / k)
		reqE := req.Clone()
		for d := range reqE {
			if reqE[d] > n.Elementary[d] {
				reqE[d] = n.Elementary[d]
			}
		}
		p.Services = append(p.Services, Service{
			ReqElem: reqE, ReqAgg: req,
			NeedElem: vec.Of(rng.Float64()*0.2, rng.Float64()*0.2),
			NeedAgg:  vec.Of(rng.Float64()*0.5, rng.Float64()*0.5),
		})
	}
	return p, pl
}

// Property: the yield returned by MaxUniformYield is feasible, and a slightly
// larger yield is not (when the max is below 1).
func TestQuickMaxUniformYieldTight(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		p, pl := randomFeasibleProblem(rng, 1+rng.Intn(3), 1+rng.Intn(6))
		res := EvaluatePlacement(p, pl)
		if !res.Solved {
			continue
		}
		y := res.MinYield
		if y < 0 || y > 1 {
			t.Fatalf("yield out of range: %v", y)
		}
		if !FeasibleAtYield(p, pl, y-1e-7) {
			t.Fatalf("achieved yield %v not feasible", y)
		}
		if y < 0.999 && FeasibleAtYield(p, pl, y+1e-4) {
			t.Fatalf("yield %v is not maximal", y)
		}
	}
}

// Property: adding a service to a node never increases the node's max
// uniform yield (monotonicity).
func TestQuickYieldMonotoneInLoad(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomFeasibleProblem(rng, 1, 4)
		all := []int{0, 1, 2, 3}
		sub := all[:3]
		ySub := MaxUniformYield(p, 0, sub)
		yAll := MaxUniformYield(p, 0, all)
		if ySub < 0 {
			// If the subset does not fit, the superset must not either.
			return yAll < 0
		}
		return yAll <= ySub+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
