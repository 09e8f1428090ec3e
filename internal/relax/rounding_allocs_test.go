package relax

import (
	"math/rand"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/testutil/grid"
	"vmalloc/internal/workload"
)

// TestRoundingAllocs gates, in counts, what one RRND or RRNZ call allocates
// on an 8x64 park with roundingAttempts attempts: the weight row, the node
// loads and the placement are allocated once per call, RRNZ's floored
// probabilities in one array, and the rest is the evaluation of the
// placement it returns.
func TestRoundingAllocs(t *testing.T) {
	p := workload.Generate(grid.Scenario(1))
	rel, err := SolveRelaxed(p)
	if err != nil || !rel.Feasible {
		t.Fatalf("relaxation: %v (feasible %v)", err, rel != nil && rel.Feasible)
	}
	rng := rand.New(rand.NewSource(1))
	for _, alg := range []struct {
		name  string
		round func(*core.Problem, *Relaxed, int, *rand.Rand) *core.Result
	}{{"RRND", RRND}, {"RRNZ", RRNZ}} {
		got := testing.AllocsPerRun(10, func() {
			rng.Seed(1)
			if !alg.round(p, rel, roundingAttempts, rng).Solved {
				t.Fatalf("%s: no placement", alg.name)
			}
		})
		if got > 50 {
			t.Errorf("%s: %.0f allocs per call, want <= 50", alg.name, got)
		}
	}
}
