package hvp

import (
	"math/rand"
	"testing"

	"vmalloc/internal/vp"
)

// TestMetaDeterministicMatchesSequential is the determinism contract: for
// any worker count, MetaDeterministicSolvers must return exactly the result
// of the sequential meta — same Solved flag, same MinYield, same placement —
// because the step reduction keeps the lowest-index success. The engine's
// golden trajectories rely on it.
func TestMetaDeterministicMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	configs := LightStrategies()
	for trial := 0; trial < 12; trial++ {
		p := randomProblem(rng, 3+rng.Intn(5), 8+rng.Intn(40))
		want := vp.MetaConfigs(p, configs, 1e-3)
		for _, workers := range []int{1, 2, 3, 8} {
			solvers := NewSolverPool(p, workers)
			got := MetaDeterministicSolvers(solvers, configs, vp.SearchOptions{Tol: 1e-3})
			if got.Solved != want.Solved || got.MinYield != want.MinYield {
				t.Fatalf("trial %d workers %d: got (%v, %v), sequential (%v, %v)",
					trial, workers, got.Solved, got.MinYield, want.Solved, want.MinYield)
			}
			for i := range want.Placement {
				if got.Placement[i] != want.Placement[i] {
					t.Fatalf("trial %d workers %d: placement[%d]=%d, sequential %d",
						trial, workers, i, got.Placement[i], want.Placement[i])
				}
			}
		}
	}
}

// TestMetaDeterministicRebindChurn drives one persistent solver pool through
// service churn with Rebind between epochs, checking against the sequential
// meta on a fresh clone every epoch — the engine's steady-state epoch path.
func TestMetaDeterministicRebindChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomProblem(rng, 4, 24)
	configs := LightStrategies()
	solvers := NewSolverPool(p, 3)
	for epoch := 0; epoch < 6; epoch++ {
		if epoch > 0 {
			fresh := randomProblem(rng, 1, 10+rng.Intn(40))
			p.Services = append(p.Services[:0], fresh.Services...)
			for _, s := range solvers {
				s.Rebind(p)
			}
		}
		got := MetaDeterministicSolvers(solvers, configs, vp.SearchOptions{Tol: 1e-3})
		want := vp.MetaConfigs(p.Clone(), configs, 1e-3)
		if got.Solved != want.Solved || got.MinYield != want.MinYield {
			t.Fatalf("epoch %d: got (%v, %v), sequential (%v, %v)",
				epoch, got.Solved, got.MinYield, want.Solved, want.MinYield)
		}
		for i := range want.Placement {
			if got.Placement[i] != want.Placement[i] {
				t.Fatalf("epoch %d: placement[%d]=%d, sequential %d",
					epoch, i, got.Placement[i], want.Placement[i])
			}
		}
	}
}

func TestMetaDeterministicEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomProblem(rng, 3, 6)
	if res := MetaDeterministicSolvers(nil, LightStrategies(), vp.SearchOptions{}); res.Solved {
		t.Fatal("no solvers must not solve")
	}
	if res := MetaDeterministicSolvers(NewSolverPool(p, 2), nil, vp.SearchOptions{}); res.Solved {
		t.Fatal("no strategies must not solve")
	}
	// Single worker takes the sequential path.
	res := MetaDeterministicSolvers(NewSolverPool(p, 1), LightStrategies(), vp.SearchOptions{Tol: 1e-3})
	want := vp.MetaConfigs(p.Clone(), LightStrategies(), 1e-3)
	if res.Solved != want.Solved || res.MinYield != want.MinYield {
		t.Fatalf("single worker: got (%v, %v), want (%v, %v)", res.Solved, res.MinYield, want.Solved, want.MinYield)
	}
}
