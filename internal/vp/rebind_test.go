package vp

import (
	"math/rand"
	"testing"

	"vmalloc/internal/core"
)

// churn rewrites p's service list in place to a new random set of size j,
// reusing the slice — the mutation pattern of an online cluster between
// epochs.
func churn(rng *rand.Rand, p *core.Problem, j int) {
	fresh := randomProblem(rng, 1, j)
	p.Services = append(p.Services[:0], fresh.Services...)
}

// TestRebindMatchesFreshSolver drives one persistent solver through many
// epochs of service churn (growing and shrinking J) and checks that every
// meta search result is bit-identical to a freshly constructed solver on a
// clone of the same problem: same Solved flag, same MinYield, same
// placement. This is the contract the online engine relies on to reuse one
// arena across epochs.
func TestRebindMatchesFreshSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 6, 20)
	configs := equivalenceConfigs()
	s := NewSolver(p)
	sizes := []int{20, 35, 12, 48, 1, 30, 64, 27}
	for epoch, j := range sizes {
		if epoch > 0 {
			churn(rng, p, j)
			s.Rebind(p)
		}
		got := MetaConfigsSolver(s, configs, SearchOptions{Tol: 1e-3})
		want := MetaConfigs(p.Clone(), configs, 1e-3)
		if got.Solved != want.Solved {
			t.Fatalf("epoch %d (J=%d): solved=%v, fresh solver says %v", epoch, j, got.Solved, want.Solved)
		}
		if got.MinYield != want.MinYield {
			t.Fatalf("epoch %d (J=%d): MinYield %v, fresh solver %v", epoch, j, got.MinYield, want.MinYield)
		}
		for i := range got.Placement {
			if got.Placement[i] != want.Placement[i] {
				t.Fatalf("epoch %d (J=%d): placement[%d]=%d, fresh solver %d",
					epoch, j, i, got.Placement[i], want.Placement[i])
			}
		}
	}
}

// TestRebindPackMatchesFreshPack checks single Pack calls per strategy and
// yield after rebinding, against fresh solvers.
func TestRebindPackMatchesFreshPack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 5, 16)
	s := NewSolver(p)
	for epoch := 0; epoch < 6; epoch++ {
		if epoch > 0 {
			churn(rng, p, 10+rng.Intn(30))
			s.Rebind(p)
		}
		fresh := NewSolver(p.Clone())
		for _, c := range equivalenceConfigs() {
			for _, y := range []float64{0, 0.37, 0.81, 1} {
				gotPl, gotOK := s.Pack(y, c)
				wantPl, wantOK := fresh.Pack(y, c)
				if gotOK != wantOK {
					t.Fatalf("epoch %d %v y=%v: ok=%v fresh=%v", epoch, c, y, gotOK, wantOK)
				}
				for i := range wantPl {
					if gotPl[i] != wantPl[i] {
						t.Fatalf("epoch %d %v y=%v: placement[%d]=%d fresh=%d",
							epoch, c, y, i, gotPl[i], wantPl[i])
					}
				}
			}
		}
	}
}

// TestRebindStepFeasibleMatchesFresh pins the pruning path: a rebound
// solver must prune exactly the yields a fresh solver prunes.
func TestRebindStepFeasibleMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 4, 12)
	s := NewSolver(p)
	for epoch := 0; epoch < 5; epoch++ {
		churn(rng, p, 8+rng.Intn(24))
		s.Rebind(p)
		fresh := NewSolver(p.Clone())
		for y := 0.0; y <= 1.0; y += 0.05 {
			if got, want := s.StepFeasible(y), fresh.StepFeasible(y); got != want {
				t.Fatalf("epoch %d y=%v: StepFeasible=%v fresh=%v", epoch, y, got, want)
			}
		}
	}
}

func TestRebindRejectsChangedPlatform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 4, 8)
	s := NewSolver(p)

	q := randomProblem(rng, 5, 8) // different node count
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Rebind accepted a different node count")
			}
		}()
		s.Rebind(q)
	}()

	r := p.Clone()
	r.Nodes[0].Aggregate[0] *= 1.5 // same shape, different capacity
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Rebind accepted changed capacities")
			}
		}()
		s.Rebind(r)
	}()
}
