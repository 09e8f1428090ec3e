package lp

import (
	"math"
	"math/rand"
	"testing"
)

// checkDuality verifies, at a claimed optimum, dual sign feasibility and the
// strong duality identity for the bounded form:
// Objective = Duals·B + Σ_j BoundDuals[j]·Upper[j].
func checkDuality(t *testing.T, p *Problem, s *Solution) {
	t.Helper()
	if len(s.Duals) != p.NumRows() {
		t.Fatalf("|Duals| = %d, want %d", len(s.Duals), p.NumRows())
	}
	const tol = 1e-5
	for i, y := range s.Duals {
		switch p.Sense[i] {
		case LE:
			if y < -tol {
				t.Fatalf("row %d (LE): dual %v < 0", i, y)
			}
		case GE:
			if y > tol {
				t.Fatalf("row %d (GE): dual %v > 0", i, y)
			}
		}
	}
	dualObj := 0.0
	for i, y := range s.Duals {
		dualObj += y * p.B[i]
	}
	for j, w := range s.BoundDuals {
		if w == 0 {
			continue
		}
		u := math.Inf(1)
		if p.Upper != nil {
			u = p.Upper[j]
		}
		if math.IsInf(u, 1) {
			t.Fatalf("variable %d: bound dual %v with infinite upper bound", j, w)
		}
		dualObj += w * u
	}
	if math.Abs(dualObj-s.Objective) > 1e-4*(1+math.Abs(s.Objective)) {
		t.Fatalf("strong duality violated: primal %v vs dual %v", s.Objective, dualObj)
	}
}

func TestDualityOnTextbookLP(t *testing.T) {
	p := &Problem{
		Obj:   []float64{3, 5},
		Cols:  NewCSCFromDense([][]float64{{1, 0}, {0, 2}, {3, 2}}, 2),
		Sense: []Sense{LE, LE, LE},
		B:     []float64{4, 12, 18},
	}
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
	// row is slack so its dual is 0 and the bound duals carry everything.
	p := &Problem{
		Obj:   []float64{1, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 1}}, 2),
		Sense: []Sense{LE},
		B:     []float64{10},
		Upper: []float64{1.5, 2.5},
	}
	s := solveOK(t, p)
	checkDuality(t, p, s)
	if math.Abs(s.Duals[0]) > 1e-9 {
		t.Fatalf("slack row should have zero dual, got %v", s.Duals[0])
	}
	if math.Abs(s.BoundDuals[0]-1) > 1e-9 || math.Abs(s.BoundDuals[1]-1) > 1e-9 {
		t.Fatalf("bound duals = %v, want (1,1)", s.BoundDuals)
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
		checkFeasible(t, p, s.X)
		checkDuality(t, p, s)
	}
}
