package milp_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"vmalloc/internal/lp"
	"vmalloc/internal/milp"
	"vmalloc/internal/workload"
)

// generatedTrees is the number of exact instances, beyond the golden grid,
// that TestSpeculativeTreeMatchesSequential solves: the first half 3x8, the
// second half 4x10, whose trees run to tens of thousands of nodes.
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

// generatedInstance is the exact placement MILP of generatedScenario(i).
func generatedInstance(i int) (string, *milp.Problem) {
	scn := generatedScenario(i)
	return scn.String(), placementMILP(workload.Generate(scn))
}

// treeCase is one branch-and-bound solve to repeat on one and on two Ps.
type treeCase struct {
	name string
	p    *milp.Problem
	opts *milp.Options
}

// describe renders everything of a solve that must not depend on how many
// goroutines solved its nodes: the error, or the status, every counter, the
// bound and the bits of the objective and X.
func describe(sol *milp.Solution, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%v incumbent=%v nodes=%d pruned=%d lpiters=%d warm=%d bound=%x objective=%x x=%s",
		sol.Status, sol.HasIncumbent, sol.Nodes, sol.Pruned, sol.LPIters, sol.WarmStarts,
		math.Float64bits(sol.Bound), math.Float64bits(sol.Objective), bitsHash(sol.X...))
}

// solveAll solves every case with GOMAXPROCS set to procs.
func solveAll(procs int, cases []treeCase) []string {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	out := make([]string, len(cases))
	for i, c := range cases {
		out[i] = describe(milp.Solve(c.p, c.opts))
	}
	return out
}

// TestSpeculativeTreeMatchesSequential solves each tree once on one P, where
// no helper starts, and once on two, where the helper solves open nodes
// ahead of the search, and requires the same answer to the bit: the trees
// of the exact-golden grid and 100 generated 3x8 and 4x10 trees, in full and
// cut at 1, 10 and 100 nodes, plus one tree whose simplex cap fails a node
// below the root. Under the race detector every tenth tree runs.
func TestSpeculativeTreeMatchesSequential(t *testing.T) {
	var helped atomic.Int64
	defer milp.SetHelperHook(func() { helped.Add(1) })()
	step := 1
	if raceEnabled {
		step = 10
	}
	var trees []treeCase
	for i := 0; i < goldenInstances; i += step {
		name, p := exactInstance(i)
		trees = append(trees, treeCase{name: name, p: p})
	}
	for i := 0; i < generatedTrees; i += step {
		name, p := generatedInstance(i)
		trees = append(trees, treeCase{name: name, p: p})
	}
	cases := slices.Clone(trees)
	for _, maxNodes := range []int{1, 10, 100} {
		for _, c := range trees {
			c.name = fmt.Sprintf("%s/max%d", c.name, maxNodes)
			c.opts = &milp.Options{MaxNodes: maxNodes}
			cases = append(cases, c)
		}
	}
	// Golden instance 19's root takes 31 pivots; with the cap one above
	// that, the root solves and a node further down the tree does not.
	name, capped := exactInstance(19)
	capped.LP.MaxIter = 32
	if _, err := milp.Solve(capped, &milp.Options{MaxNodes: 1}); err != nil {
		t.Fatalf("%s: root fails under the cap: %v", name, err)
	}
	cases = append(cases, treeCase{name: name + "/maxiter32", p: capped})

	seq := solveAll(1, cases)
	if helped.Load() != 0 {
		t.Fatalf("the helper solved %d nodes on one P", helped.Load())
	}
	spec := solveAll(max(2, runtime.GOMAXPROCS(0)), cases)
	for i, c := range cases {
		if seq[i] != spec[i] {
			t.Errorf("%s: the search differs with a helper\n  one P: %s\ntwo Ps: %s", c.name, seq[i], spec[i])
		}
	}
	if _, err := milp.Solve(capped, nil); !errors.Is(err, lp.ErrIterLimit) {
		t.Errorf("%s: error %v, want lp.ErrIterLimit", name, err)
	}
	if helped.Load() == 0 {
		t.Error("the helper solved no node on two Ps")
	}
	t.Logf("%d solves; the helper solved %d nodes", len(cases), helped.Load())
}

// A panic in the helper reaches the caller of Solve, from the caller's
// goroutine, once the helper has exited (TestMain's leak check sees to it).
func TestSpeculativeHelperPanicReachesCaller(t *testing.T) {
	type boom struct{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	var helped atomic.Int64
	defer milp.SetHelperHook(func() {
		helped.Add(1)
		panic(boom{})
	})()
	for i := 0; i < goldenInstances && helped.Load() == 0; i++ {
		name, p := exactInstance(i)
		func() {
			defer func() {
				r := recover()
				if helped.Load() > 0 && r != (boom{}) {
					t.Errorf("%s: the helper panicked, Solve recovered %v", name, r)
				}
				if helped.Load() == 0 && r != nil {
					t.Errorf("%s: Solve panicked with %v, the helper never ran", name, r)
				}
			}()
			if _, err := milp.Solve(p, nil); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	if helped.Load() == 0 {
		t.Fatal("the helper solved no node")
	}
}
