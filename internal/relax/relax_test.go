package relax

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/lp"
	"vmalloc/internal/milp"
	"vmalloc/internal/vec"
	"vmalloc/internal/workload"
)

// fig1 is the paper's Figure 1 instance (see internal/core tests).
func fig1() *core.Problem {
	return &core.Problem{
		Nodes: []core.Node{
			{Elementary: vec.Of(0.8, 1.0), Aggregate: vec.Of(3.2, 1.0)},
			{Elementary: vec.Of(1.0, 0.5), Aggregate: vec.Of(2.0, 0.5)},
		},
		Services: []core.Service{{
			ReqElem: vec.Of(0.5, 0.5), ReqAgg: vec.Of(1.0, 0.5),
			NeedElem: vec.Of(0.5, 0.0), NeedAgg: vec.Of(1.0, 0.0),
		}},
	}
}

// twoServices builds a 2-node, 2-service instance where the optimum is to
// put one service on each node.
func twoServices() *core.Problem {
	svc := core.Service{
		ReqElem: vec.Of(0.2, 0.4), ReqAgg: vec.Of(0.4, 0.4),
		NeedElem: vec.Of(0.3, 0.0), NeedAgg: vec.Of(0.6, 0.0),
	}
	return &core.Problem{
		Nodes: []core.Node{
			{Elementary: vec.Of(0.5, 1.0), Aggregate: vec.Of(1.0, 1.0)},
			{Elementary: vec.Of(0.5, 1.0), Aggregate: vec.Of(1.0, 1.0)},
		},
		Services: []core.Service{svc, svc},
	}
}

func TestEncodeShapes(t *testing.T) {
	p := fig1()
	enc := Encode(p)
	if enc.J != 1 || enc.H != 2 || enc.D != 2 {
		t.Fatalf("J,H,D = %d,%d,%d", enc.J, enc.H, enc.D)
	}
	if got, want := enc.LP.NumVars(), 2*1*2+1; got != want {
		t.Fatalf("vars = %d, want %d", got, want)
	}
	if enc.EVar(0, 1) != 1 || enc.YVar(0, 0) != 2 || enc.MinYieldVar() != 4 {
		t.Fatal("variable indexing broken")
	}
}

func TestRelaxedFig1(t *testing.T) {
	rel, err := SolveRelaxed(fig1())
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Feasible {
		t.Fatal("fig1 relaxation should be feasible")
	}
	// The integral optimum is 1.0 (place on node B); the relaxation can only
	// be >= that, and is capped at 1.
	if rel.MinYield < 1.0-1e-6 {
		t.Fatalf("relaxed min yield = %v, want >= 1", rel.MinYield)
	}
	// Fractional placement must sum to 1 per service.
	sum := rel.E[0][0] + rel.E[0][1]
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("e values sum to %v", sum)
	}
}

func TestExactMatchesBestPlacementFig1(t *testing.T) {
	p := fig1()
	res, err := SolveExact(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("exact solver failed on feasible instance")
	}
	if math.Abs(res.MinYield-1.0) > 1e-6 {
		t.Fatalf("exact min yield = %v, want 1.0", res.MinYield)
	}
	if res.Placement[0] != 1 {
		t.Fatalf("exact placement = %v, want node 1", res.Placement)
	}
}

func TestExactTwoServices(t *testing.T) {
	p := twoServices()
	res, err := SolveExact(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("should be solvable")
	}
	// One per node: each node then has CPU slack 1.0-0.4 = 0.6 against need
	// 0.6 -> yield 1. Elementary: 0.2+y*0.3 <= 0.5 -> y <= 1.
	if math.Abs(res.MinYield-1.0) > 1e-6 {
		t.Fatalf("min yield = %v, want 1.0 (placement %v)", res.MinYield, res.Placement)
	}
	if res.Placement[0] == res.Placement[1] {
		t.Fatalf("services should be spread: %v", res.Placement)
	}
}

func TestUpperBoundDominatesExact(t *testing.T) {
	ps := []*core.Problem{fig1(), twoServices()}
	for i, p := range ps {
		ub, err := UpperBound(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveExact(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solved && ub < res.MinYield-1e-6 {
			t.Fatalf("case %d: upper bound %v below exact %v", i, ub, res.MinYield)
		}
	}
}

func TestUpperBoundInfeasible(t *testing.T) {
	p := fig1()
	// Memory requirement larger than any node: infeasible.
	p.Services[0].ReqAgg = vec.Of(1.0, 5.0)
	p.Services[0].ReqElem = vec.Of(0.5, 5.0)
	ub, err := UpperBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if ub >= 0 {
		t.Fatalf("upper bound = %v, want negative (infeasible)", ub)
	}
}

func TestRRNDPlacesFeasibly(t *testing.T) {
	p := twoServices()
	rel, err := SolveRelaxed(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	res := RRND(p, rel, 10, rng)
	if !res.Solved {
		t.Fatal("RRND failed on an easy instance")
	}
	if err := res.Placement.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestRRNZHandlesZeroProbabilities(t *testing.T) {
	p := twoServices()
	// A relaxation that puts all mass on node 0 for both services; node 0
	// cannot hold both (memory 0.4+0.4 <= 1.0 fits; CPU requirement
	// 0.4+0.4 <= 1.0 fits... so make it tighter).
	p.Nodes[0].Aggregate = vec.Of(0.5, 0.5)
	rel := &Relaxed{Feasible: true, E: [][]float64{{1, 0}, {1, 0}}}
	rng := rand.New(rand.NewSource(2))
	// RRND can only try node 0 for both; the second service cannot fit
	// (CPU 0.8 > 0.5), and with zero probability elsewhere it must fail.
	if res := RRND(p, rel, 5, rng); res.Solved {
		t.Fatal("RRND should fail when mass is stuck on a full node")
	}
	// RRNZ floors the zero to Epsilon and eventually places on node 1.
	if res := RRNZ(p, rel, 50, rng); !res.Solved {
		t.Fatal("RRNZ should succeed via the epsilon floor")
	}
}

func TestRoundingRespectsInfeasibleRelaxation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if res := RRND(fig1(), &Relaxed{}, 3, rng); res.Solved {
		t.Fatal("infeasible relaxation must yield failed result")
	}
	if res := RRNZ(fig1(), &Relaxed{}, 3, rng); res.Solved {
		t.Fatal("infeasible relaxation must yield failed result")
	}
}

// Random small instances: relaxation upper bound must always dominate the
// exact MILP optimum, and RRNZ solutions must be valid placements.
func TestRandomInstancesBoundAndRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 15; iter++ {
		p := randomProblem(rng, 2, 3)
		ub, err := UpperBound(p)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := SolveExact(p, &milp.Options{MaxNodes: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Solved {
			if ub < exact.MinYield-1e-5 {
				t.Fatalf("iter %d: UB %v < exact %v", iter, ub, exact.MinYield)
			}
			rel, err := SolveRelaxed(p)
			if err != nil {
				t.Fatal(err)
			}
			res := RRNZ(p, rel, 40, rng)
			if res.Solved {
				if err := res.Placement.Validate(p); err != nil {
					t.Fatalf("iter %d: invalid RRNZ placement: %v", iter, err)
				}
				if res.MinYield > ub+1e-6 {
					t.Fatalf("iter %d: RRNZ yield %v exceeds UB %v", iter, res.MinYield, ub)
				}
			}
		}
	}
}

// A search cut short by MaxNodes has proven nothing: SolveExact must say so
// instead of reporting "cannot place" or an unproven incumbent as the optimum.
func TestExactNodeLimitIsAnError(t *testing.T) {
	p := workload.Generate(workload.Scenario{Hosts: 3, Services: 6, COV: 0.5, Slack: 0.6, Seed: 1})
	full, err := SolveExact(p, nil)
	if err != nil || !full.Solved {
		t.Fatalf("uncapped search: solved=%v err=%v", full != nil && full.Solved, err)
	}
	for _, cap := range []int{1, 2, 3, 5} {
		res, err := SolveExact(p, &milp.Options{MaxNodes: cap})
		if err == nil {
			t.Fatalf("MaxNodes %d: no error (solved=%v, yield %v; optimum %v)", cap, res.Solved, res.MinYield, full.MinYield)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("after %d nodes", cap)) || !strings.Contains(err.Error(), "bound") {
			t.Fatalf("MaxNodes %d: error %q names neither the node count nor the bound", cap, err)
		}
	}
}

func randomProblem(rng *rand.Rand, h, j int) *core.Problem {
	p := &core.Problem{}
	for i := 0; i < h; i++ {
		cpu := 0.4 + rng.Float64()*0.6
		mem := 0.4 + rng.Float64()*0.6
		p.Nodes = append(p.Nodes, core.Node{
			Elementary: vec.Of(cpu/4, mem),
			Aggregate:  vec.Of(cpu, mem),
		})
	}
	for s := 0; s < j; s++ {
		needCPU := rng.Float64() * 0.3
		mem := rng.Float64() * 0.15
		p.Services = append(p.Services, core.Service{
			ReqElem:  vec.Of(0.01, mem),
			ReqAgg:   vec.Of(0.01, mem),
			NeedElem: vec.Of(needCPU/2, 0),
			NeedAgg:  vec.Of(needCPU, 0),
		})
	}
	return p
}

// Encode must emit a constraint matrix that is actually sparse.
func TestEncodeEmitsSparseMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := randomProblem(rng, 3, 6)
	enc := Encode(p)
	if enc.LP.Cols == nil {
		t.Fatal("Encode emitted no constraint matrix")
	}
	if enc.LP.Cols.M != enc.LP.NumRows() || enc.LP.Cols.N != enc.LP.NumVars() {
		t.Fatalf("CSC shape %dx%d vs problem %dx%d",
			enc.LP.Cols.M, enc.LP.Cols.N, enc.LP.NumRows(), enc.LP.NumVars())
	}
	// Eqs. (3)+(4)+(6)+(7) populate few entries per row; the matrix must
	// actually be sparse, not accidentally dense.
	if nnz, cells := enc.LP.Cols.NNZ(), enc.LP.NumRows()*enc.LP.NumVars(); nnz*4 > cells {
		t.Fatalf("relaxation matrix not sparse: %d nonzeros of %d cells", nnz, cells)
	}
}

// The revised simplex's answer on the relaxation, whatever its status, must
// pass lp.Check: an optimum by its duals' weak-duality bound, infeasibility
// by its Farkas vector.
func TestRelaxationSolverBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for iter := 0; iter < 8; iter++ {
		p := randomProblem(rng, 3, 6)
		enc := Encode(p)
		rev, err := lp.Simplex{}.SolveWarm(enc.LP, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lp.Check(enc.LP, rev); err != nil {
			t.Fatalf("iter %d: %v answer fails its certificate: %v", iter, rev.Status, err)
		}
	}
}

// Encode must not store structural zeros in the CSC, and aggregate rows for
// dimensions no service demands must be skipped entirely rather than emitted
// empty (0 <= capacity holds vacuously and only bloats the basis).
func TestEncodeSkipsZeroCoefficientsAndVacuousRows(t *testing.T) {
	svc := core.Service{
		ReqElem: vec.Of(0.2, 0.1), ReqAgg: vec.Of(0.4, 0),
		NeedElem: vec.Of(0.3, 0.1), NeedAgg: vec.Of(0.6, 0),
	}
	p := &core.Problem{
		Nodes: []core.Node{
			{Elementary: vec.Of(0.5, 1.0), Aggregate: vec.Of(1.0, 1.0)},
			{Elementary: vec.Of(0.5, 1.0), Aggregate: vec.Of(1.0, 1.0)},
		},
		Services: []core.Service{svc, svc},
	}
	enc := Encode(p)
	c := enc.LP.Cols
	for k, v := range c.Val {
		if v == 0 {
			t.Fatalf("stored structural zero at nnz index %d", k)
		}
	}
	perRow := make([]int, c.M)
	for k := 0; k < len(c.RowIdx); k++ {
		perRow[c.RowIdx[k]]++
	}
	for i, cnt := range perRow {
		if cnt == 0 {
			t.Fatalf("row %d emitted empty", i)
		}
	}
	// Dimension 1 has zero aggregate demand everywhere: adding demand there
	// must grow the encoding by exactly one aggregate row per node.
	q := *p
	q.Services = append([]core.Service(nil), p.Services...)
	q.Services[0].NeedAgg = vec.Of(0.6, 0.1)
	encQ := Encode(&q)
	if got, want := encQ.LP.NumRows(), enc.LP.NumRows()+len(p.Nodes); got != want {
		t.Fatalf("demanding dim 1 should add %d aggregate rows: %d -> %d, want %d",
			len(p.Nodes), enc.LP.NumRows(), got, want)
	}
}
