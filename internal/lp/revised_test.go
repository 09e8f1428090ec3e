package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestRevisedSimpleMaximization(t *testing.T) {
	p := textbook()
	s, err := Simplex{}.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-36) > 1e-8 {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
	checkDuality(t, p, s)
}

func TestRevisedStatuses(t *testing.T) {
	infeasible := &Problem{
		Obj: []float64{1}, Cols: NewCSCFromDense([][]float64{{1}, {1}}, 1),
		Sense: []Sense{GE, LE}, B: []float64{5, 2},
	}
	s, err := Simplex{}.SolveWarm(infeasible, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v", s.Status)
	}
	certify(t, infeasible, s)
	unbounded := &Problem{
		Obj: []float64{1, 0}, Cols: NewCSCFromDense([][]float64{{0, 1}}, 2),
		Sense: []Sense{LE}, B: []float64{1},
	}
	s, err = Simplex{}.SolveWarm(unbounded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v", s.Status)
	}
	certify(t, unbounded, s)
}

func TestRevisedEqualityAndNegativeRHS(t *testing.T) {
	p := &Problem{
		Obj:   []float64{1, 2},
		Cols:  NewCSCFromDense([][]float64{{1, 1}, {-1, 0}}, 2),
		Sense: []Sense{EQ, LE},
		B:     []float64{3, -0.5}, // x >= 0.5
	}
	s, err := Simplex{}.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	// Maximize x+2y with x+y=3, x>=0.5 -> x=0.5, y=2.5, obj 5.5.
	if math.Abs(s.Objective-5.5) > 1e-8 {
		t.Fatalf("obj = %v (x=%v)", s.Objective, s.X)
	}
	checkDuality(t, p, s)
}

// On random LPs every answer of the revised simplex, whatever its status,
// must pass Check, and every optimum's duals must meet its objective
// (checkDuality).
func TestRevisedMatchesDenseOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 400; iter++ {
		n := 2 + rng.Intn(5)
		rows := 1 + rng.Intn(6)
		p := &Problem{Obj: make([]float64, n), Upper: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Obj[j] = rng.NormFloat64()
			if rng.Float64() < 0.3 {
				p.Upper[j] = math.Inf(1)
			} else {
				p.Upper[j] = 0.5 + 3*rng.Float64()
			}
		}
		var a [][]float64
		for i := 0; i < rows; i++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.7 {
					row[j] = rng.NormFloat64()
				}
			}
			a = append(a, row)
			p.Sense = append(p.Sense, Sense(rng.Intn(3)))
			p.B = append(p.B, rng.NormFloat64())
		}
		p.Cols = NewCSCFromDense(a, n)
		if rev := solveOK(t, p); rev.Status == Optimal {
			checkDuality(t, p, rev)
		}
	}
}

// Larger sparse LPs, the class internal/relax produces: each optimum is
// certified by Check.
func TestRevisedModerateSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 5; iter++ {
		n, m := 150, 100
		p := &Problem{Obj: make([]float64, n), Upper: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Obj[j] = rng.Float64()
			p.Upper[j] = 1
		}
		var a [][]float64
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.1 {
					row[j] = rng.Float64()
				}
			}
			a = append(a, row)
			p.Sense = append(p.Sense, LE)
			p.B = append(p.B, 0.5+rng.Float64())
		}
		p.Cols = NewCSCFromDense(a, n)
		if rev := solveOK(t, p); rev.Status != Optimal {
			t.Fatalf("iter %d: status %v", iter, rev.Status)
		}
	}
}

// BenchmarkRevisedSparse times a cold revised-simplex solve of a random
// 160x240 LP at 5% density.
func BenchmarkRevisedSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n, m := 240, 160
	p := &Problem{Obj: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Obj[j] = rng.Float64()
		p.Upper[j] = 1
	}
	var a [][]float64
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.05 {
				row[j] = rng.Float64()
			}
		}
		a = append(a, row)
		p.Sense = append(p.Sense, LE)
		p.B = append(p.B, 0.5+rng.Float64())
	}
	p.Cols = NewCSCFromDense(a, n)
	for i := 0; i < b.N; i++ {
		if _, err := (Simplex{}).SolveWarm(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBealeCyclingHandsOverToBland pins the one path no relaxation reaches:
// Beale's cycling LP stalls Dantzig pricing on degenerate pivots until the
// solver hands over to Bland's rule, which scans every column for its
// entering one instead of taking the column the last pricing pass picked.
// The count of pivots, the switch and every bit of the optimum are pinned.
func TestBealeCyclingHandsOverToBland(t *testing.T) {
	p := &Problem{
		Obj: []float64{0.75, -20, 0.5, -6},
		Cols: NewCSCFromDense([][]float64{
			{0.25, -8, -1, 9},
			{0.5, -12, -0.5, 3},
			{0, 0, 1, 0},
		}, 4),
		Sense: []Sense{LE, LE, LE},
		B:     []float64{0, 0, 1},
	}
	s, err := Simplex{}.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || s.Objective != 1.25 || s.Iters != 30 || s.BlandActivations != 1 {
		t.Fatalf("got %v objective %v after %d iterations, %d Bland activations; want optimal 1.25 after 30, 1",
			s.Status, s.Objective, s.Iters, s.BlandActivations)
	}
	for j, want := range []float64{1, 0, 1, 0} {
		if math.Float64bits(s.X[j]) != math.Float64bits(want) {
			t.Fatalf("X = %v, want [1 0 1 0]", s.X)
		}
	}
	certify(t, p, s)
}
