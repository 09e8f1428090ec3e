package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomProblem draws a bounded random LP with the given density; ~30% of
// upper bounds are infinite.
func randomProblem(rng *rand.Rand, n, rows int, density float64) *Problem {
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
			if rng.Float64() < density {
				row[j] = rng.NormFloat64()
			}
		}
		a = append(a, row)
		p.Sense = append(p.Sense, Sense(rng.Intn(3)))
		p.B = append(p.B, rng.NormFloat64())
	}
	p.Cols = NewCSCFromDense(a, n)
	return p
}

// dense materializes c as one dense row per constraint.
func dense(c *CSC) [][]float64 {
	a := make([][]float64, c.M)
	for i := range a {
		a[i] = make([]float64, c.N)
	}
	for j := 0; j < c.N; j++ {
		for k := c.ColPtr[j]; k < c.ColPtr[j+1]; k++ {
			a[c.RowIdx[k]][j] = c.Val[k]
		}
	}
	return a
}

func TestCSCRoundTrip(t *testing.T) {
	a := [][]float64{
		{1, 0, -2, 0},
		{0, 0, 0, 0},
		{0, 3, 4, 0},
	}
	c := NewCSCFromDense(a, 4)
	if c.M != 3 || c.N != 4 || c.NNZ() != 4 {
		t.Fatalf("M,N,NNZ = %d,%d,%d", c.M, c.N, c.NNZ())
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	back := dense(c)
	for i := range a {
		for j := range a[i] {
			if back[i][j] != a[i][j] {
				t.Fatalf("round trip differs at (%d,%d): %v vs %v", i, j, back[i][j], a[i][j])
			}
		}
	}
}

func TestSparseBuilderArbitraryOrder(t *testing.T) {
	b := NewSparseBuilder(3)
	b.Add(2, 1, 5)
	b.Add(0, 0, 1)
	b.Add(1, 1, -2)
	b.Add(0, 2, 3)
	b.Add(1, 0, 0) // dropped
	c := b.Build(3)
	want := [][]float64{{1, 0, 3}, {0, -2, 0}, {0, 5, 0}}
	got := dense(c)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("entry (%d,%d) = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// Randomized certification: every answer of the revised simplex must pass
// Check through its status's witness, and every optimum's duals must meet
// its objective (checkDuality) and come with a basis.
func TestSparseMatchesDenseOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 400; iter++ {
		p := randomProblem(rng, 2+rng.Intn(5), 1+rng.Intn(6), 0.7)
		sparse := solveOK(t, p)
		if sparse.Status != Optimal {
			continue
		}
		checkDuality(t, p, sparse)
		if sparse.Basis == nil {
			t.Fatalf("iter %d: optimal sparse solve returned no basis", iter)
		}
	}
}

func TestLowerBoundsSimple(t *testing.T) {
	// max -x with 1 <= x <= 3: optimum at the lower bound, x = 1.
	p := &Problem{
		Obj:   []float64{-1},
		Cols:  NewCSCFromDense([][]float64{{1}}, 1),
		Sense: []Sense{LE},
		B:     []float64{10},
		Lower: []float64{1},
		Upper: []float64{3},
	}
	if s := solveOK(t, p); s.Status != Optimal || math.Abs(s.X[0]-1) > 1e-9 || math.Abs(s.Objective+1) > 1e-9 {
		t.Fatalf("status %v x %v obj %v", s.Status, s.X, s.Objective)
	}
}

func TestLowerBoundsFixedVariable(t *testing.T) {
	// x fixed to 1 by [1,1] bounds, as internal/milp fixes binaries:
	// max x + y st x + y <= 1.5 -> y = 0.5, objective 1.5.
	p := &Problem{
		Obj:   []float64{1, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 1}}, 2),
		Sense: []Sense{LE},
		B:     []float64{1.5},
		Lower: []float64{1, 0},
		Upper: []float64{1, math.Inf(1)},
	}
	s, err := Simplex{}.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.X[0]-1) > 1e-9 || math.Abs(s.Objective-1.5) > 1e-8 {
		t.Fatalf("status %v x %v obj %v", s.Status, s.X, s.Objective)
	}
}

// Randomized lower-bound certification, including negative lower bounds:
// Check must accept every answer, whatever its status.
func TestLowerBoundsRandomCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 300; iter++ {
		p := randomProblem(rng, 2+rng.Intn(4), 1+rng.Intn(5), 0.8)
		p.Lower = make([]float64, len(p.Obj))
		for j := range p.Lower {
			if rng.Float64() < 0.6 {
				l := rng.NormFloat64()
				if !math.IsInf(p.Upper[j], 1) && l > p.Upper[j] {
					l = p.Upper[j]
				}
				p.Lower[j] = l
			}
		}
		solveOK(t, p)
	}
}

func TestWarmStartIdenticalProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for iter := 0; iter < 50; iter++ {
		p := randomProblem(rng, 3+rng.Intn(5), 2+rng.Intn(5), 0.7)
		cold, err := Simplex{}.SolveWarm(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal {
			continue
		}
		warm, err := Simplex{}.SolveWarm(p, cold.Basis)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.WarmStarted {
			t.Fatalf("iter %d: warm basis of the identical problem was rejected", iter)
		}
		if warm.Status != Optimal || math.Abs(warm.Objective-cold.Objective) > 1e-8*(1+math.Abs(cold.Objective)) {
			t.Fatalf("iter %d: warm %v/%v vs cold %v", iter, warm.Status, warm.Objective, cold.Objective)
		}
		// Re-solving from the optimal basis must converge without pivots.
		if warm.Iters != 0 {
			t.Fatalf("iter %d: warm re-solve took %d pivots", iter, warm.Iters)
		}
	}
}

// Warm starts across perturbed bounds (the branch-and-bound child pattern:
// fix a variable to 0 or to its upper bound) must stay correct, and since a
// bound change leaves an optimal basis dual feasible, every one of them must
// warm-start: through the primal simplex when the basis stays primal
// feasible, through the dual simplex otherwise.
func TestWarmStartPerturbedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	reused, pivoted := 0, 0
	for iter := 0; iter < 200; iter++ {
		p := randomProblem(rng, 3+rng.Intn(5), 2+rng.Intn(5), 0.7)
		for j := range p.Upper { // keep boxes finite so fixings bind
			if math.IsInf(p.Upper[j], 1) {
				p.Upper[j] = 1 + rng.Float64()
			}
		}
		base, err := Simplex{}.SolveWarm(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != Optimal {
			continue
		}
		q := *p
		q.Upper = append([]float64(nil), p.Upper...)
		j := rng.Intn(len(q.Upper))
		if rng.Float64() < 0.5 {
			q.Upper[j] = 0 // fix to 0
		} else {
			q.Lower = make([]float64, len(q.Upper))
			q.Lower[j] = q.Upper[j] // fix to its upper bound
		}
		warm, err := Simplex{}.SolveWarm(&q, base.Basis)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Simplex{}.SolveWarm(&q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("iter %d: warm status %v vs cold %v", iter, warm.Status, cold.Status)
		}
		if !warm.WarmStarted {
			t.Fatalf("iter %d: the optimal basis of the parent did not warm-start a bound change", iter)
		}
		reused++
		if warm.Iters > 0 {
			pivoted++
		}
		if cold.Status != Optimal {
			continue
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("iter %d: warm objective %v vs cold %v", iter, warm.Objective, cold.Objective)
		}
		certify(t, &q, warm)
	}
	if reused == 0 || pivoted == 0 {
		t.Fatalf("%d warm starts, %d of them pivoting: the perturbations exercised nothing", reused, pivoted)
	}
}

// Warm starts with perturbed right-hand sides and objectives (same shape).
func TestWarmStartPerturbedRHSAndObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for iter := 0; iter < 150; iter++ {
		p := randomProblem(rng, 3+rng.Intn(5), 2+rng.Intn(5), 0.7)
		base, err := Simplex{}.SolveWarm(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != Optimal {
			continue
		}
		q := *p
		q.B = append([]float64(nil), p.B...)
		q.Obj = append([]float64(nil), p.Obj...)
		q.B[rng.Intn(len(q.B))] += 0.1 * rng.NormFloat64()
		q.Obj[rng.Intn(len(q.Obj))] += 0.1 * rng.NormFloat64()
		warm, err := Simplex{}.SolveWarm(&q, base.Basis)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Simplex{}.SolveWarm(&q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("iter %d: warm status %v vs cold %v", iter, warm.Status, cold.Status)
		}
		if cold.Status == Optimal &&
			math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("iter %d: warm objective %v vs cold %v", iter, warm.Objective, cold.Objective)
		}
	}
}

// A basis from a differently-shaped problem must be rejected, not crash.
func TestWarmStartShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	small := randomProblem(rng, 3, 2, 0.9)
	big := randomProblem(rng, 6, 5, 0.9)
	bs, err := Simplex{}.SolveWarm(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Status != Optimal {
		t.Skip("unlucky draw: small problem not optimal")
	}
	s, err := Simplex{}.SolveWarm(big, bs.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if s.WarmStarted {
		t.Fatal("mismatched basis must not be installed")
	}
	cold, err := Simplex{}.SolveWarm(big, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != cold.Status {
		t.Fatalf("fallback status %v vs cold %v", s.Status, cold.Status)
	}
}
