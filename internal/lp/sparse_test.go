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
	for i := 0; i < rows; i++ {
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				row[j] = rng.NormFloat64()
			}
		}
		p.A = append(p.A, row)
		p.Sense = append(p.Sense, Sense(rng.Intn(3)))
		p.B = append(p.B, rng.NormFloat64())
	}
	return p
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
	back := c.Dense()
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
	got := c.Dense()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("entry (%d,%d) = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// checkCSCFeasible verifies x against the sparse rows and bounds of p.
func checkCSCFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	const tol = 1e-6
	for j, v := range x {
		l, u := 0.0, math.Inf(1)
		if p.Lower != nil {
			l = p.Lower[j]
		}
		if p.Upper != nil {
			u = p.Upper[j]
		}
		if v < l-tol || v > u+tol {
			t.Fatalf("x[%d] = %v violates bounds [%v,%v]", j, v, l, u)
		}
	}
	lhs := make([]float64, p.NumRows())
	for j := 0; j < p.NumVars(); j++ {
		for k := p.Cols.ColPtr[j]; k < p.Cols.ColPtr[j+1]; k++ {
			lhs[p.Cols.RowIdx[k]] += p.Cols.Val[k] * x[j]
		}
	}
	for i, l := range lhs {
		switch p.Sense[i] {
		case LE:
			if l > p.B[i]+tol {
				t.Fatalf("row %d: %v <= %v violated", i, l, p.B[i])
			}
		case GE:
			if l < p.B[i]-tol {
				t.Fatalf("row %d: %v >= %v violated", i, l, p.B[i])
			}
		case EQ:
			if math.Abs(l-p.B[i]) > tol {
				t.Fatalf("row %d: %v == %v violated", i, l, p.B[i])
			}
		}
	}
}

// Randomized cross-validation: SolveSparse on the CSC form must match the
// dense Solve on status and objective (1e-6) and satisfy the duality checks.
func TestSparseMatchesDenseOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 400; iter++ {
		p := randomProblem(rng, 2+rng.Intn(5), 1+rng.Intn(6), 0.7)
		sp := p.Sparsify()
		dense, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := SolveSparse(sp)
		if err != nil {
			t.Fatal(err)
		}
		if dense.Status != sparse.Status {
			t.Fatalf("iter %d: status dense=%v sparse=%v", iter, dense.Status, sparse.Status)
		}
		if dense.Status != Optimal {
			continue
		}
		if math.Abs(dense.Objective-sparse.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("iter %d: objective dense=%v sparse=%v", iter, dense.Objective, sparse.Objective)
		}
		checkCSCFeasible(t, sp, sparse.X)
		checkFeasible(t, p, sparse.X)
		checkDuality(t, p, sparse)
		if sparse.Basis == nil {
			t.Fatalf("iter %d: optimal sparse solve returned no basis", iter)
		}
	}
}

// Sparse solve of a densified problem and dense solve of a CSC problem must
// both work: the two matrix forms are interchangeable at the API level.
func TestMatrixFormsInterchangeable(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	p := randomProblem(rng, 6, 5, 0.6)
	sp := p.Sparsify()
	fromDense, err := SolveSparse(p) // dense A through the sparse solver
	if err != nil {
		t.Fatal(err)
	}
	fromCSC, err := Solve(sp) // CSC through the dense solver (densifies)
	if err != nil {
		t.Fatal(err)
	}
	if fromDense.Status != fromCSC.Status {
		t.Fatalf("status %v vs %v", fromDense.Status, fromCSC.Status)
	}
	if fromDense.Status == Optimal &&
		math.Abs(fromDense.Objective-fromCSC.Objective) > 1e-6*(1+math.Abs(fromDense.Objective)) {
		t.Fatalf("objective %v vs %v", fromDense.Objective, fromCSC.Objective)
	}
}

func TestLowerBoundsSimple(t *testing.T) {
	// max -x with 1 <= x <= 3: optimum at the lower bound, x = 1.
	p := &Problem{
		Obj:   []float64{-1},
		A:     [][]float64{{1}},
		Sense: []Sense{LE},
		B:     []float64{10},
		Lower: []float64{1},
		Upper: []float64{3},
	}
	for name, solve := range map[string]func(*Problem) (*Solution, error){
		"dense": Solve, "sparse": SolveSparse,
	} {
		s, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Status != Optimal || math.Abs(s.X[0]-1) > 1e-9 || math.Abs(s.Objective+1) > 1e-9 {
			t.Fatalf("%s: status %v x %v obj %v", name, s.Status, s.X, s.Objective)
		}
	}
}

func TestLowerBoundsFixedVariable(t *testing.T) {
	// x fixed to 1 by [1,1] bounds, as internal/milp fixes binaries:
	// max x + y st x + y <= 1.5 -> y = 0.5, objective 1.5.
	p := &Problem{
		Obj:   []float64{1, 1},
		A:     [][]float64{{1, 1}},
		Sense: []Sense{LE},
		B:     []float64{1.5},
		Lower: []float64{1, 0},
		Upper: []float64{1, math.Inf(1)},
	}
	s, err := SolveSparse(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.X[0]-1) > 1e-9 || math.Abs(s.Objective-1.5) > 1e-8 {
		t.Fatalf("status %v x %v obj %v", s.Status, s.X, s.Objective)
	}
}

// Randomized lower-bound cross-validation between the dense and sparse
// paths, including negative lower bounds.
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
		dense, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := SolveSparse(p.Sparsify())
		if err != nil {
			t.Fatal(err)
		}
		if dense.Status != sparse.Status {
			t.Fatalf("iter %d: status dense=%v sparse=%v", iter, dense.Status, sparse.Status)
		}
		if dense.Status != Optimal {
			continue
		}
		if math.Abs(dense.Objective-sparse.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("iter %d: objective dense=%v sparse=%v", iter, dense.Objective, sparse.Objective)
		}
		checkCSCFeasible(t, p.Sparsify(), sparse.X)
	}
}

func TestWarmStartIdenticalProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for iter := 0; iter < 50; iter++ {
		p := randomProblem(rng, 3+rng.Intn(5), 2+rng.Intn(5), 0.7).Sparsify()
		cold, err := SolveSparse(p)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != Optimal {
			continue
		}
		warm, err := SolveSparseWarm(p, cold.Basis)
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
		sp := p.Sparsify()
		base, err := SolveSparse(sp)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != Optimal {
			continue
		}
		q := *sp
		q.Upper = append([]float64(nil), sp.Upper...)
		j := rng.Intn(len(q.Upper))
		if rng.Float64() < 0.5 {
			q.Upper[j] = 0 // fix to 0
		} else {
			q.Lower = make([]float64, len(q.Upper))
			q.Lower[j] = q.Upper[j] // fix to its upper bound
		}
		warm, err := SolveSparseWarm(&q, base.Basis)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := SolveSparse(&q)
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
		checkCSCFeasible(t, q.Sparsify(), warm.X)
	}
	if reused == 0 || pivoted == 0 {
		t.Fatalf("%d warm starts, %d of them pivoting: the perturbations exercised nothing", reused, pivoted)
	}
}

// Warm starts with perturbed right-hand sides and objectives (same shape).
func TestWarmStartPerturbedRHSAndObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for iter := 0; iter < 150; iter++ {
		p := randomProblem(rng, 3+rng.Intn(5), 2+rng.Intn(5), 0.7).Sparsify()
		base, err := SolveSparse(p)
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
		warm, err := SolveSparseWarm(&q, base.Basis)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := SolveSparse(&q)
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
	small := randomProblem(rng, 3, 2, 0.9).Sparsify()
	big := randomProblem(rng, 6, 5, 0.9).Sparsify()
	bs, err := SolveSparse(small)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Status != Optimal {
		t.Skip("unlucky draw: small problem not optimal")
	}
	s, err := SolveSparseWarm(big, bs.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if s.WarmStarted {
		t.Fatal("mismatched basis must not be installed")
	}
	cold, err := SolveSparse(big)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != cold.Status {
		t.Fatalf("fallback status %v vs cold %v", s.Status, cold.Status)
	}
}

func TestValidateRejectsAmbiguousMatrix(t *testing.T) {
	p := &Problem{
		Obj:   []float64{1},
		A:     [][]float64{{1}},
		Cols:  NewCSCFromDense([][]float64{{1}}, 1),
		Sense: []Sense{LE},
		B:     []float64{1},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("Validate must reject problems with both A and Cols set")
	}
	bad := &Problem{
		Obj:   []float64{1, 2},
		A:     [][]float64{{1, 1}},
		Sense: []Sense{LE},
		B:     []float64{1},
		Lower: []float64{0, 2},
		Upper: []float64{1, 1},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate must reject Lower > Upper")
	}
}
