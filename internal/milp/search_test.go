package milp_test

import (
	"math"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/milp"
	"vmalloc/internal/relax"
	"vmalloc/internal/workload"
)

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
