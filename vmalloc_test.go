package vmalloc

import (
	"math"
	"testing"
)

// paperFig1 is the Figure 1 example through the public API.
func paperFig1() *Problem {
	return &Problem{
		Nodes: []Node{
			{Name: "A", Elementary: Of(0.8, 1.0), Aggregate: Of(3.2, 1.0)},
			{Name: "B", Elementary: Of(1.0, 0.5), Aggregate: Of(2.0, 0.5)},
		},
		Services: []Service{{
			Name:    "svc",
			ReqElem: Of(0.5, 0.5), ReqAgg: Of(1.0, 0.5),
			NeedElem: Of(0.5, 0.0), NeedAgg: Of(1.0, 0.0),
		}},
	}
}

func TestSolveEveryAlgorithmOnFig1(t *testing.T) {
	for _, name := range Algorithms() {
		res, err := Solve(name, paperFig1(), &Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Solved {
			t.Fatalf("%s: failed on the trivially feasible Figure 1 instance", name)
		}
		if res.MinYield < 0.6-1e-6 {
			t.Fatalf("%s: yield %v below the worst single-node yield", name, res.MinYield)
		}
	}
}

func TestExactAndPackingAgreeOnFig1(t *testing.T) {
	exact, err := Solve(AlgoExact, paperFig1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.MinYield-1.0) > 1e-6 {
		t.Fatalf("exact yield = %v, want 1.0 (node B)", exact.MinYield)
	}
	hvp, err := Solve(AlgoMetaHVP, paperFig1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hvp.MinYield-exact.MinYield) > 1e-3 {
		t.Fatalf("METAHVP %v vs exact %v", hvp.MinYield, exact.MinYield)
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	if _, err := Solve("NOPE", paperFig1(), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestSolveInvalidProblem(t *testing.T) {
	p := paperFig1()
	p.Services[0].ReqAgg = Of(1.0)
	if _, err := Solve(AlgoMetaHVP, p, nil); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestRelaxedUpperBoundDominatesHeuristics(t *testing.T) {
	scn := Scenario{Hosts: 4, Services: 10, COV: 0.5, Slack: 0.5, Seed: 3}
	p := Generate(scn)
	ub, err := RelaxedUpperBound(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(AlgoMetaHVPLight, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved && res.MinYield > ub+1e-6 {
		t.Fatalf("heuristic %v exceeds relaxation bound %v", res.MinYield, ub)
	}
}

func TestGenerateAndSolvePipeline(t *testing.T) {
	p := Generate(Scenario{Hosts: 8, Services: 24, COV: 0.7, Slack: 0.4, Seed: 11})
	res, err := Solve(AlgoMetaHVPLight, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		if err := res.Placement.Validate(p); err != nil {
			t.Fatal(err)
		}
		if !FeasibleAtYield(p, res.Placement, res.MinYield-1e-6) {
			t.Fatal("reported yield not feasible")
		}
	}
}

func TestErrorPipeline(t *testing.T) {
	trueP := Generate(Scenario{Hosts: 8, Services: 20, COV: 0.5, Slack: 0.5, Seed: 5})
	est := PerturbCPUNeeds(trueP, 0.05, 99)
	est = ApplyThreshold(est, 0, 0.1)
	res, err := Solve(AlgoMetaHVPLight, est, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Skip("instance unsolvable at this threshold")
	}
	for _, pol := range []SchedPolicy{PolicyAllocCaps, PolicyAllocWeights, PolicyEqualWeights} {
		y := EvaluateWithErrors(trueP, est, res.Placement, pol, 0)
		if y < 0 || y > 1 {
			t.Fatalf("%v: yield %v", pol, y)
		}
	}
}

func TestZeroKnowledgePlacementPublic(t *testing.T) {
	p := Generate(Scenario{Hosts: 8, Services: 20, COV: 0.5, Slack: 0.5, Seed: 6})
	pl := ZeroKnowledgePlacement(p)
	if !pl.Complete() {
		t.Skip("zero-knowledge could not place; acceptable on hard instances")
	}
	if err := pl.Validate(p); err != nil {
		t.Fatal(err)
	}
}
