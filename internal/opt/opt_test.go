package opt

import (
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/greedy"
	"vmalloc/internal/vec"
	"vmalloc/internal/workload"
)

// unbalanced builds two identical nodes with two services stacked on node 0,
// so one move doubles the minimum yield.
func unbalanced() (*core.Problem, core.Placement) {
	n := core.Node{Elementary: vec.Of(0.5, 1), Aggregate: vec.Of(1, 1)}
	s := core.Service{
		ReqElem: vec.Of(0.01, 0.2), ReqAgg: vec.Of(0.01, 0.2),
		NeedElem: vec.Of(0.25, 0), NeedAgg: vec.Of(1.0, 0),
	}
	p := &core.Problem{Nodes: []core.Node{n, n}, Services: []core.Service{s, s}}
	return p, core.Placement{0, 0}
}

func TestImproveMovesOffBottleneck(t *testing.T) {
	p, pl := unbalanced()
	before := core.EvaluatePlacement(p, pl)
	res := Improve(p, pl)
	if !res.Solved {
		t.Fatal("improve lost feasibility")
	}
	if res.MinYield <= before.MinYield {
		t.Fatalf("no improvement: %v -> %v", before.MinYield, res.MinYield)
	}
	if res.Placement[0] == res.Placement[1] {
		t.Fatalf("services should be spread: %v", res.Placement)
	}
	// Spread placement: each service alone gets (1-0.01)/1.0 ~ 0.99 CPU.
	if res.MinYield < 0.9 {
		t.Fatalf("yield = %v", res.MinYield)
	}
}

func TestImproveMonotoneAndValidOnRandom(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		p := workload.Generate(workload.Scenario{
			Hosts: 5, Services: 15, COV: 0.7, Slack: 0.5, Seed: int64(iter),
		})
		base := greedy.Solve(p, greedy.S1, greedy.P7)
		if !base.Solved {
			continue
		}
		res := Improve(p, base.Placement)
		if !res.Solved {
			t.Fatalf("iter %d: improve lost feasibility", iter)
		}
		if res.MinYield < base.MinYield-1e-9 {
			t.Fatalf("iter %d: yield decreased %v -> %v", iter, base.MinYield, res.MinYield)
		}
		if err := res.Placement.Validate(p); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestImproveOnUnsolvedInput(t *testing.T) {
	p, _ := unbalanced()
	res := Improve(p, core.NewPlacement(2))
	if res.Solved {
		t.Fatal("unsolved input should remain unsolved")
	}
}

func TestRepairKeepsFeasibleAssignments(t *testing.T) {
	p, _ := unbalanced()
	prev := core.Placement{0, 1}
	res := Repair(p, prev, 0)
	if !res.Solved {
		t.Fatal("repair failed")
	}
	if res.Placement[0] != 0 || res.Placement[1] != 1 {
		t.Fatalf("placement changed without need: %v", res.Placement)
	}
	if n := Migrations(prev, res.Placement); n != 0 {
		t.Fatalf("migrations = %d", n)
	}
}

func TestRepairPlacesNewServices(t *testing.T) {
	p, _ := unbalanced()
	// Third service arrives; prev covers only two.
	p.Services = append(p.Services, p.Services[0])
	prev := core.Placement{0, 1}
	res := Repair(p, prev, 0)
	if !res.Solved {
		t.Fatal("repair failed to place arrival")
	}
	if res.Placement[0] != 0 || res.Placement[1] != 1 {
		t.Fatal("old assignments must be preserved with zero budget")
	}
	if res.Placement[2] == core.Unplaced {
		t.Fatal("new service unplaced")
	}
}

func TestRepairBudgetBlocksMoves(t *testing.T) {
	p, _ := unbalanced()
	// Shrink node 0 so service 0 no longer fits there: repair must move it,
	// which the zero budget forbids.
	p.Nodes[0].Aggregate = vec.Of(1, 0.1)
	p.Nodes[0].Elementary = vec.Of(0.5, 0.1)
	prev := core.Placement{0, 1}
	res := Repair(p, prev, 0)
	if res.Solved {
		t.Fatal("zero budget should block the required move")
	}
	res = Repair(p, prev, 1)
	if !res.Solved {
		t.Fatal("budget 1 should allow the move")
	}
	if n := Migrations(prev, res.Placement); n != 1 {
		t.Fatalf("migrations = %d, want 1", n)
	}
}

func TestRepairUnlimitedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 20; iter++ {
		p := workload.Generate(workload.Scenario{
			Hosts: 5, Services: 12, COV: 0.5, Slack: 0.5, Seed: int64(100 + iter),
		})
		// Random junk previous placement (may be partly infeasible).
		prev := make(core.Placement, 12)
		for i := range prev {
			prev[i] = rng.Intn(5)
		}
		res := Repair(p, prev, -1)
		if res.Solved {
			if err := res.Placement.Validate(p); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	}
}

func TestRepairWithImproveNeverWorseThanPlain(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := workload.Generate(workload.Scenario{
			Hosts: 4, Services: 12, COV: 0.6, Slack: 0.5, Seed: seed,
		})
		// Everything is new, so a zero budget places every service by best
		// fit and leaves the local search no move to make.
		prev := core.NewPlacement(12)
		plain := Repair(p, prev, 0)
		improved := Repair(p, prev, -1)
		if plain.Solved != improved.Solved {
			t.Fatalf("seed %d: solved mismatch", seed)
		}
		if plain.Solved && improved.MinYield < plain.MinYield-1e-9 {
			t.Fatalf("seed %d: improve made it worse: %v -> %v", seed, plain.MinYield, improved.MinYield)
		}
	}
}

func TestCountAndMigrations(t *testing.T) {
	a := core.Placement{0, 1, 2, core.Unplaced}
	b := core.Placement{0, 2, 2, 1}
	if countMoves(a, b) != 2 {
		t.Fatalf("countMoves = %d", countMoves(a, b))
	}
	// Unplaced->1 is an arrival, not a migration.
	if Migrations(a, b) != 1 {
		t.Fatalf("Migrations = %d", Migrations(a, b))
	}
}

func TestImproveReachesNearOptimalOnTinyInstance(t *testing.T) {
	// Figure-1-like: improving from the worse node should find the better.
	p := &core.Problem{
		Nodes: []core.Node{
			{Elementary: vec.Of(0.8, 1.0), Aggregate: vec.Of(3.2, 1.0)},
			{Elementary: vec.Of(1.0, 0.5), Aggregate: vec.Of(2.0, 0.5)},
		},
		Services: []core.Service{{
			ReqElem: vec.Of(0.5, 0.5), ReqAgg: vec.Of(1.0, 0.5),
			NeedElem: vec.Of(0.5, 0), NeedAgg: vec.Of(1.0, 0),
		}},
	}
	res := Improve(p, core.Placement{0})
	if math.Abs(res.MinYield-1.0) > 1e-9 || res.Placement[0] != 1 {
		t.Fatalf("improve should move to node B: %+v", res)
	}
}
