package lp

import (
	"math"
	"math/rand"
	"testing"
)

// checkDuality verifies, at a claimed optimum, that Check accepts the
// answer — the duals are sign-feasible and their weak-duality bound meets
// the objective — and returns that bound.
func checkDuality(t *testing.T, p *Problem, s *Solution) float64 {
	t.Helper()
	if s.Status != Optimal {
		t.Fatalf("status %v, want optimal", s.Status)
	}
	bound, err := Check(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bound-s.Objective) > 1e-9*(1+math.Abs(s.Objective)) {
		t.Fatalf("weak duality not tight: primal %v vs dual bound %v", s.Objective, bound)
	}
	return bound
}

func TestDualityOnTextbookLP(t *testing.T) {
	p := textbook()
	s := solveOK(t, p)
	if s.Status != Optimal {
		t.Fatal(s.Status)
	}
	checkDuality(t, p, s)
	// Known duals for this classic: y = (0, 1.5, 1).
	want := []float64{0, 1.5, 1}
	for i := range want {
		if math.Abs(s.Duals[i]-want[i]) > 1e-6 {
			t.Fatalf("duals = %v, want %v", s.Duals, want)
		}
	}
}

func TestDualityWithBindingUpperBounds(t *testing.T) {
	// max x + y st x + y <= 10, x <= 1.5, y <= 2.5 (boxes). Optimal 4; the
	// row is slack so its dual is 0 and the reduced costs d = (1, 1) at the
	// upper bounds carry the whole bound, 1·1.5 + 1·2.5.
	p := &Problem{
		Obj:   []float64{1, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 1}}, 2),
		Sense: []Sense{LE},
		B:     []float64{10},
		Upper: []float64{1.5, 2.5},
	}
	s := solveOK(t, p)
	if bound := checkDuality(t, p, s); math.Abs(bound-4) > 1e-9 {
		t.Fatalf("dual bound %v, want 4", bound)
	}
	if math.Abs(s.Duals[0]) > 1e-9 {
		t.Fatalf("slack row should have zero dual, got %v", s.Duals[0])
	}
}

func TestDualityWithEqualityAndGE(t *testing.T) {
	p := &Problem{
		Obj:   []float64{1, 2},
		Cols:  NewCSCFromDense([][]float64{{1, 1}, {1, -1}}, 2),
		Sense: []Sense{EQ, LE},
		B:     []float64{3, 1},
	}
	s := solveOK(t, p)
	checkDuality(t, p, s)

	q := &Problem{
		Obj:   []float64{-1, -1},
		Cols:  NewCSCFromDense([][]float64{{1, 2}, {3, 1}}, 2),
		Sense: []Sense{GE, GE},
		B:     []float64{4, 6},
	}
	sq := solveOK(t, q)
	checkDuality(t, q, sq)
}

func TestDualityRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(4)
		rows := 1 + rng.Intn(5)
		p := &Problem{Obj: make([]float64, n), Upper: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Obj[j] = rng.NormFloat64()
			p.Upper[j] = 0.5 + 3*rng.Float64()
		}
		var a [][]float64
		for i := 0; i < rows; i++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = rng.NormFloat64()
			}
			a = append(a, row)
			p.Sense = append(p.Sense, Sense(rng.Intn(3)))
			p.B = append(p.B, rng.NormFloat64())
		}
		p.Cols = NewCSCFromDense(a, n)
		s := solveOK(t, p)
		if s.Status != Optimal {
			continue
		}
		checkDuality(t, p, s)
	}
}
