package milp_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/milp"
	"vmalloc/internal/relax"
	"vmalloc/internal/workload"
)

var updateGolden = flag.Bool("golden.update", false, "rewrite testdata/exact.golden from the current solver")

const goldenInstances = 200

// exactScenario is 3x8 park number i, the shape the solve-lp benchmark
// hands to EXACT, cycling through the platform heterogeneities of the
// paper's grid.
func exactScenario(i int) workload.Scenario {
	return workload.Scenario{Hosts: 3, Services: 8, COV: []float64{0, 0.5, 1.0}[i%3], Slack: 0.5, Seed: int64(i + 1)}
}

// exactInstance is the exact placement MILP of exactScenario(i).
func exactInstance(i int) (string, *milp.Problem) {
	scn := exactScenario(i)
	return scn.String(), placementMILP(workload.Generate(scn))
}

// placementMILP is the MILP of p with every e_jh binary.
func placementMILP(p *core.Problem) *milp.Problem {
	enc := relax.Encode(p)
	bins := make([]int, 0, enc.J*enc.H)
	for j := 0; j < enc.J; j++ {
		for h := 0; h < enc.H; h++ {
			bins = append(bins, enc.EVar(j, h))
		}
	}
	return &milp.Problem{LP: *enc.LP, Binary: bins}
}

// exactTrees holds the branch-and-bound answer of each exact instance,
// solved on first use: TestExactGolden and TestPivotPathGolden read the same
// trees, so each is solved once per test binary.
var exactTrees [goldenInstances]struct {
	once sync.Once
	name string
	sol  *milp.Solution
	err  error
}

// exactTree returns the name and branch-and-bound answer of exact instance
// i. Callers must not modify the answer.
func exactTree(i int) (string, *milp.Solution, error) {
	e := &exactTrees[i]
	e.once.Do(func() {
		var p *milp.Problem
		e.name, p = exactInstance(i)
		e.sol, e.err = milp.Solve(p, nil)
	})
	return e.name, e.sol, e.err
}

// TestExactGolden pins branch and bound's answers, not its path: the status
// and optimal objective of 200 exact 3x8 solves were captured into
// testdata/exact.golden from the per-node-presolve, cold-node search this
// one replaced, and must be reproduced to 1e-9 relative. Which optimal
// placement is found, and after how many nodes, may differ. The same solves
// check that the tree is re-solved, not restarted: at least 90% of the
// child nodes must start from their parent's basis.
func TestExactGolden(t *testing.T) {
	var lines []string
	children, warm := 0, 0
	for i := 0; i < goldenInstances; i++ {
		name, sol, err := exactTree(i)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %v %s", name, sol.Status, strconv.FormatFloat(sol.Objective, 'g', -1, 64)))
		children += sol.Nodes - 1
		warm += sol.WarmStarts
	}
	if warm < children*9/10 {
		t.Errorf("%d of %d child solves warm-started from the parent's basis, want >= 90%%", warm, children)
	}
	golden := filepath.Join("testdata", "exact.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden file has %d lines, solver produced %d", len(want), len(lines))
	}
	for i, line := range lines {
		g, w := strings.Fields(line), strings.Fields(want[i])
		if len(w) != 3 || g[0] != w[0] || g[1] != w[1] {
			t.Fatalf("instance %d diverged from the golden capture\n got: %s\nwant: %s", i, line, want[i])
		}
		gObj, _ := strconv.ParseFloat(g[2], 64)
		wObj, err := strconv.ParseFloat(w[2], 64)
		if err != nil {
			t.Fatalf("golden line %d: %v", i, err)
		}
		if g[1] == milp.Optimal.String() && math.Abs(gObj-wObj) > 1e-9*(1+math.Abs(wObj)) {
			t.Errorf("%s: objective %.17g, golden %.17g", g[0], gObj, wObj)
		}
	}
}
