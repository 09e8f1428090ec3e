package milp_test

import (
	"errors"
	"math"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/lp"
	"vmalloc/internal/milp"
	"vmalloc/internal/relax"
	"vmalloc/internal/workload"
)

// generatedTrees is the number of exact instances, beyond the golden grid,
// that generatedScenario numbers: the first half 3x8, the second half 4x10,
// whose trees run to tens of thousands of nodes.
const generatedTrees = 100

// generatedScenario is generated exact instance i, on seeds the golden grid
// does not use.
func generatedScenario(i int) workload.Scenario {
	hosts, services := 3, 8
	if i >= generatedTrees/2 {
		hosts, services = 4, 10
	}
	return workload.Scenario{Hosts: hosts, Services: services, COV: []float64{0, 0.5, 1.0}[i%3], Slack: 0.5, Seed: int64(1001 + i)}
}

// searchTrees is the number of generated 4x10 trees, beyond the golden
// grid, that TestSearchMatchesBranchAndBound solves.
const searchTrees = 10

// TestSearchMatchesBranchAndBound checks relax.SolveExact, a search over
// placements with no LP, against branch and bound on the MILP it solves: on
// the 200 exact-golden trees (read from exactTree, so no tree is solved
// twice) and on generated 4x10 trees, the search's minimum yield must equal
// the tree's objective to 1e-9, and the search must find no placement
// exactly where the tree proves the MILP infeasible. Under the race
// detector every fifth 4x10 tree runs.
func TestSearchMatchesBranchAndBound(t *testing.T) {
	infeasible := 0
	check := func(scn workload.Scenario, p *core.Problem, sol *milp.Solution, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: branch and bound: %v", scn, err)
		}
		res, err := relax.SolveExact(p, nil)
		if err != nil {
			t.Fatalf("%s: search: %v", scn, err)
		}
		switch {
		case sol.Status == milp.Infeasible:
			infeasible++
			if res.Solved {
				t.Errorf("%s: search placed every service (yield %v), branch and bound proved the MILP infeasible", scn, res.MinYield)
			}
		case sol.Status != milp.Optimal:
			t.Fatalf("%s: branch and bound stopped %v", scn, sol.Status)
		case !res.Solved:
			t.Errorf("%s: search found no placement, branch and bound's optimum is %v", scn, sol.Objective)
		case math.Abs(res.MinYield-sol.Objective) > 1e-9:
			t.Errorf("%s: search yield %.17g, branch and bound %.17g", scn, res.MinYield, sol.Objective)
		}
	}
	for i := 0; i < goldenInstances; i++ {
		_, sol, err := exactTree(i)
		scn := exactScenario(i)
		check(scn, workload.Generate(scn), sol, err)
	}
	if infeasible != 6 {
		t.Errorf("%d golden instances infeasible, the golden capture has 6", infeasible)
	}
	step := 1
	if raceEnabled {
		step = 5
	}
	for i := generatedTrees / 2; i < generatedTrees/2+searchTrees; i += step {
		p := workload.Generate(generatedScenario(i))
		sol, err := milp.Solve(placementMILP(p), nil)
		check(generatedScenario(i), p, sol, err)
	}
}

// A node below the root that hits the simplex cap fails the whole solve
// with an error that wraps lp.ErrIterLimit. Golden instance 19's root takes
// 31 pivots; with the cap one above that, the root solves and a node further
// down the tree does not.
func TestNodeHitsSimplexCap(t *testing.T) {
	name, p := exactInstance(19)
	p.LP.MaxIter = 32
	if _, err := milp.Solve(p, &milp.Options{MaxNodes: 1}); err != nil {
		t.Fatalf("%s: root fails under the cap: %v", name, err)
	}
	if _, err := milp.Solve(p, nil); !errors.Is(err, lp.ErrIterLimit) {
		t.Errorf("%s: error %v, want lp.ErrIterLimit", name, err)
	}
}
