package lp

import (
	"math"
	"math/rand"
	"testing"
)

// solveOK solves p cold with the revised simplex and certifies the answer,
// whatever its status, with Check.
func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Simplex{}.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	certify(t, p, s)
	return s
}

// certify fails the test unless Check accepts s as an answer to p.
func certify(t *testing.T, p *Problem, s *Solution) {
	t.Helper()
	if _, err := Check(p, s); err != nil {
		t.Fatalf("%v answer fails its certificate: %v", s.Status, err)
	}
}

func wantOptimal(t *testing.T, p *Problem, obj float64, tol float64) *Solution {
	t.Helper()
	s := solveOK(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if math.Abs(s.Objective-obj) > tol {
		t.Fatalf("objective = %v, want %v (x=%v)", s.Objective, obj, s.X)
	}
	return s
}

// textbook is max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18: optimum 36 at
// (2, 6) with duals (0, 1.5, 1).
func textbook() *Problem {
	return &Problem{
		Obj:   []float64{3, 5},
		Cols:  NewCSCFromDense([][]float64{{1, 0}, {0, 2}, {3, 2}}, 2),
		Sense: []Sense{LE, LE, LE},
		B:     []float64{4, 12, 18},
	}
}

func TestSimpleMaximization(t *testing.T) {
	p := textbook()
	s := wantOptimal(t, p, 36, 1e-9)
	if math.Abs(s.X[0]-2) > 1e-9 || math.Abs(s.X[1]-6) > 1e-9 {
		t.Fatalf("x = %v, want (2,6)", s.X)
	}
}

func TestUpperBoundsViaBox(t *testing.T) {
	// max x + y st x + y <= 10, x <= 1.5 (box), y <= 2.5 (box) -> 4.
	p := &Problem{
		Obj:   []float64{1, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 1}}, 2),
		Sense: []Sense{LE},
		B:     []float64{10},
		Upper: []float64{1.5, 2.5},
	}
	wantOptimal(t, p, 4, 1e-9)
}

func TestBoundFlipOnly(t *testing.T) {
	// No binding rows at all: solution is everything at its upper bound.
	p := &Problem{
		Obj:   []float64{2, 3, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 1, 1}}, 3),
		Sense: []Sense{LE},
		B:     []float64{100},
		Upper: []float64{1, 1, 1},
	}
	wantOptimal(t, p, 6, 1e-9)
}

func TestGEConstraints(t *testing.T) {
	// max -x - y (i.e. minimize x+y) st x + 2y >= 4, 3x + y >= 6.
	// Optimum at intersection: x = 1.6, y = 1.2, sum = 2.8.
	p := &Problem{
		Obj:   []float64{-1, -1},
		Cols:  NewCSCFromDense([][]float64{{1, 2}, {3, 1}}, 2),
		Sense: []Sense{GE, GE},
		B:     []float64{4, 6},
	}
	wantOptimal(t, p, -2.8, 1e-9)
}

func TestEqualityConstraints(t *testing.T) {
	// max x + 2y st x + y == 3, x - y <= 1 -> y as large as possible:
	// x = 0, y = 3, obj 6.
	p := &Problem{
		Obj:   []float64{1, 2},
		Cols:  NewCSCFromDense([][]float64{{1, 1}, {1, -1}}, 2),
		Sense: []Sense{EQ, LE},
		B:     []float64{3, 1},
	}
	wantOptimal(t, p, 6, 1e-9)
}

func TestNegativeRHS(t *testing.T) {
	// max x st -x <= -2 (i.e. x >= 2), x <= 5.
	p := &Problem{
		Obj:   []float64{1},
		Cols:  NewCSCFromDense([][]float64{{-1}, {1}}, 1),
		Sense: []Sense{LE, LE},
		B:     []float64{-2, 5},
	}
	wantOptimal(t, p, 5, 1e-9)
}

func TestInfeasible(t *testing.T) {
	p := &Problem{
		Obj:   []float64{1},
		Cols:  NewCSCFromDense([][]float64{{1}, {1}}, 1),
		Sense: []Sense{GE, LE},
		B:     []float64{5, 2},
	}
	s := solveOK(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := &Problem{
		Obj:   []float64{1, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 1}, {1, 1}}, 2),
		Sense: []Sense{EQ, EQ},
		B:     []float64{2, 3},
	}
	if s := solveOK(t, p); s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{
		Obj:   []float64{1, 0},
		Cols:  NewCSCFromDense([][]float64{{0, 1}}, 2),
		Sense: []Sense{LE},
		B:     []float64{1},
	}
	if s := solveOK(t, p); s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestBoundedByBoxNotUnbounded(t *testing.T) {
	// Same as above but with a box bound: not unbounded anymore.
	p := &Problem{
		Obj:   []float64{1, 0},
		Cols:  NewCSCFromDense([][]float64{{0, 1}}, 2),
		Sense: []Sense{LE},
		B:     []float64{1},
		Upper: []float64{7, math.Inf(1)},
	}
	wantOptimal(t, p, 7, 1e-9)
}

func TestDegenerateLP(t *testing.T) {
	// Classic degenerate vertex: multiple constraints meet at optimum.
	p := &Problem{
		Obj:   []float64{1, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 0}, {0, 1}, {1, 1}}, 2),
		Sense: []Sense{LE, LE, LE},
		B:     []float64{1, 1, 2},
	}
	wantOptimal(t, p, 2, 1e-9)
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows create a redundant row in phase 1.
	p := &Problem{
		Obj:   []float64{1, 1},
		Cols:  NewCSCFromDense([][]float64{{1, 1}, {2, 2}, {1, -1}}, 2),
		Sense: []Sense{EQ, EQ, LE},
		B:     []float64{2, 4, 0},
	}
	wantOptimal(t, p, 2, 1e-9)
}

func TestZeroObjectiveFeasibility(t *testing.T) {
	// Pure feasibility problem.
	p := &Problem{
		Obj:   []float64{0, 0},
		Cols:  NewCSCFromDense([][]float64{{1, 1}, {1, -1}}, 2),
		Sense: []Sense{EQ, EQ},
		B:     []float64{4, 0},
	}
	s := wantOptimal(t, p, 0, 1e-9)
	if math.Abs(s.X[0]-2) > 1e-7 || math.Abs(s.X[1]-2) > 1e-7 {
		t.Fatalf("x = %v, want (2,2)", s.X)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Problem{
		{},
		{Obj: []float64{1}, Cols: NewCSCFromDense([][]float64{{1, 2}}, 2), Sense: []Sense{LE}, B: []float64{1}},
		{Obj: []float64{1}, Cols: NewCSCFromDense([][]float64{{1}}, 1), Sense: []Sense{LE}, B: []float64{1, 2}},
		{Obj: []float64{1}, Cols: NewCSCFromDense([][]float64{{1}}, 1), Sense: []Sense{LE}, B: []float64{1}, Upper: []float64{-1}},
		{Obj: []float64{1, 2}, Cols: NewCSCFromDense([][]float64{{1, 1}}, 2), Sense: []Sense{LE}, B: []float64{1},
			Lower: []float64{0, 2}, Upper: []float64{1, 1}},
		{Obj: []float64{1}, Sense: []Sense{LE}, B: []float64{1}},
	}
	for i, p := range bad {
		if _, err := (Simplex{}).SolveWarm(p, nil); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestKleeMintyDoesNotCycle(t *testing.T) {
	// 3-D Klee–Minty cube: exponential path for naive Dantzig, but must
	// terminate and find the known optimum 125 (max x3 over the cube form).
	n := 3
	p := &Problem{Obj: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Obj[j] = math.Pow(2, float64(n-1-j))
	}
	var a [][]float64
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for j := 0; j < i; j++ {
			row[j] = math.Pow(2, float64(i-j+1))
		}
		row[i] = 1
		a = append(a, row)
		p.Sense = append(p.Sense, LE)
		p.B = append(p.B, math.Pow(5, float64(i+1)))
	}
	p.Cols = NewCSCFromDense(a, n)
	s := solveOK(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-125) > 1e-6 {
		t.Fatalf("objective = %v, want 125", s.Objective)
	}
}

// referenceSolve2D brute-forces a 2-variable LP by enumerating all candidate
// vertices (row intersections and bound intersections) and picking the best
// feasible one.
func referenceSolve2D(p *Problem) (best float64, found bool) {
	var cands [][2]float64
	type line struct{ a, b, c float64 } // a*x + b*y = c
	var lines []line
	a := dense(p.Cols)
	for i, row := range a {
		lines = append(lines, line{row[0], row[1], p.B[i]})
	}
	ub := [2]float64{math.Inf(1), math.Inf(1)}
	if p.Upper != nil {
		ub[0], ub[1] = p.Upper[0], p.Upper[1]
	}
	lines = append(lines, line{1, 0, 0}, line{0, 1, 0})
	if !math.IsInf(ub[0], 1) {
		lines = append(lines, line{1, 0, ub[0]})
	}
	if !math.IsInf(ub[1], 1) {
		lines = append(lines, line{0, 1, ub[1]})
	}
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			d := lines[i].a*lines[j].b - lines[j].a*lines[i].b
			if math.Abs(d) < 1e-12 {
				continue
			}
			x := (lines[i].c*lines[j].b - lines[j].c*lines[i].b) / d
			y := (lines[i].a*lines[j].c - lines[j].a*lines[i].c) / d
			cands = append(cands, [2]float64{x, y})
		}
	}
	best = math.Inf(-1)
	for _, c := range cands {
		x, y := c[0], c[1]
		if x < -1e-9 || y < -1e-9 || x > ub[0]+1e-9 || y > ub[1]+1e-9 {
			continue
		}
		ok := true
		for i, row := range a {
			lhs := row[0]*x + row[1]*y
			switch p.Sense[i] {
			case LE:
				ok = ok && lhs <= p.B[i]+1e-9
			case GE:
				ok = ok && lhs >= p.B[i]-1e-9
			case EQ:
				ok = ok && math.Abs(lhs-p.B[i]) <= 1e-9
			}
		}
		if !ok {
			continue
		}
		found = true
		if v := p.Obj[0]*x + p.Obj[1]*y; v > best {
			best = v
		}
	}
	return best, found
}

func TestRandomLPsAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		rows := 1 + rng.Intn(4)
		p := &Problem{
			Obj:   []float64{rng.NormFloat64(), rng.NormFloat64()},
			Upper: []float64{1 + 4*rng.Float64(), 1 + 4*rng.Float64()},
		}
		var a [][]float64
		for i := 0; i < rows; i++ {
			a = append(a, []float64{rng.NormFloat64(), rng.NormFloat64()})
			p.Sense = append(p.Sense, Sense(rng.Intn(2))) // LE or GE
			p.B = append(p.B, rng.NormFloat64()*2)
		}
		p.Cols = NewCSCFromDense(a, 2)
		ref, feasible := referenceSolve2D(p)
		s := solveOK(t, p)
		if !feasible {
			// The reference grid may miss feasibility only through
			// numerical ties; solveOK certified whatever the solver found.
			continue
		}
		if s.Status != Optimal {
			t.Fatalf("iter %d: status %v but reference found feasible optimum %v\nproblem: %+v", iter, s.Status, ref, p)
		}
		if math.Abs(s.Objective-ref) > 1e-5*(1+math.Abs(ref)) {
			t.Fatalf("iter %d: objective %v != reference %v\nproblem: %+v", iter, s.Objective, ref, p)
		}
	}
}

func TestModerateSizeRandomFeasible(t *testing.T) {
	// Random transportation-flavored LPs with known feasible structure:
	// verify the solver returns optimal and feasible points at m≈60, n≈80.
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 10; iter++ {
		n, m := 80, 60
		p := &Problem{Obj: make([]float64, n), Upper: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Obj[j] = rng.Float64()
			p.Upper[j] = 1
		}
		var a [][]float64
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.2 {
					row[j] = rng.Float64()
				}
			}
			a = append(a, row)
			p.Sense = append(p.Sense, LE)
			p.B = append(p.B, 0.5+rng.Float64()*2)
		}
		p.Cols = NewCSCFromDense(a, n)
		s := solveOK(t, p)
		if s.Status != Optimal {
			t.Fatalf("iter %d: status %v", iter, s.Status)
		}
		// x = 0 is feasible, so the optimum is >= 0.
		if s.Objective < -1e-9 {
			t.Fatalf("iter %d: negative objective %v", iter, s.Objective)
		}
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n, m := 120, 90
	p := &Problem{Obj: make([]float64, n), Upper: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Obj[j] = rng.Float64()
		p.Upper[j] = 1
	}
	var a [][]float64
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.25 {
				row[j] = rng.Float64()
			}
		}
		a = append(a, row)
		p.Sense = append(p.Sense, LE)
		p.B = append(p.B, 1+rng.Float64())
	}
	p.Cols = NewCSCFromDense(a, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Simplex{}).SolveWarm(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
