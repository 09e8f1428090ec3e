package milp

import (
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary -> {a,c}: 17... check:
	// a+b: 7 <= 6? no (3+4=7). b+c: 6, value 20. So optimum is b+c = 20.
	p := &Problem{
		LP: lp.Problem{
			Obj:   []float64{10, 13, 7},
			Cols:  lp.NewCSCFromDense([][]float64{{3, 4, 2}}, 3),
			Sense: []lp.Sense{lp.LE},
			B:     []float64{6},
			Upper: []float64{1, 1, 1},
		},
		Binary: []int{0, 1, 2},
	}
	s, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-20) > 1e-6 {
		t.Fatalf("objective = %v, want 20 (x=%v)", s.Objective, s.X)
	}
}

func TestRelaxationTighterThanInteger(t *testing.T) {
	// Fractional relaxation of the knapsack above is strictly better than
	// the integer optimum, matching the paper's §3.2 upper-bound claim; the
	// relaxed optimum is certified by lp.Check's weak-duality bound.
	p := &lp.Problem{
		Obj:   []float64{10, 13, 7},
		Cols:  lp.NewCSCFromDense([][]float64{{3, 4, 2}}, 3),
		Sense: []lp.Sense{lp.LE},
		B:     []float64{6},
		Upper: []float64{1, 1, 1},
	}
	rel, err := lp.Simplex{}.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := lp.Check(p, rel)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Objective <= 20 || bound < rel.Objective {
		t.Fatalf("relaxation %v (bound %v) should exceed integer optimum 20", rel.Objective, bound)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 5e + y st y <= 2e (continuous y, binary e), y <= 1.5.
	// e=1: y = 1.5 -> 6.5. e=0: 0.
	p := &Problem{
		LP: lp.Problem{
			Obj:   []float64{5, 1},
			Cols:  lp.NewCSCFromDense([][]float64{{-2, 1}, {0, 1}}, 2),
			Sense: []lp.Sense{lp.LE, lp.LE},
			B:     []float64{0, 1.5},
			Upper: []float64{1, math.Inf(1)},
		},
		Binary: []int{0},
	}
	s, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-6.5) > 1e-6 {
		t.Fatalf("got %v obj %v, want 6.5", s.Status, s.Objective)
	}
	if math.Abs(s.X[0]-1) > 1e-6 {
		t.Fatalf("e = %v, want 1", s.X[0])
	}
}

func TestInfeasibleMILP(t *testing.T) {
	// a + b == 1.5 with both binary: LP-feasible, integer-infeasible.
	p := &Problem{
		LP: lp.Problem{
			Obj:   []float64{1, 1},
			Cols:  lp.NewCSCFromDense([][]float64{{1, 1}}, 2),
			Sense: []lp.Sense{lp.EQ},
			B:     []float64{1.5},
			Upper: []float64{1, 1},
		},
		Binary: []int{0, 1},
	}
	s, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestNodeLimit(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Obj:   []float64{1, 1, 1, 1},
			Cols:  lp.NewCSCFromDense([][]float64{{1, 1, 1, 1}}, 4),
			Sense: []lp.Sense{lp.LE},
			B:     []float64{2.5},
			Upper: []float64{1, 1, 1, 1},
		},
		Binary: []int{0, 1, 2, 3},
	}
	s, err := Solve(p, &Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != NodeLimit {
		t.Fatalf("status = %v, want node-limit", s.Status)
	}
}

func TestBadBinaryIndex(t *testing.T) {
	p := &Problem{
		LP: lp.Problem{
			Obj: []float64{1}, Cols: lp.NewCSCFromDense([][]float64{{1}}, 1), Sense: []lp.Sense{lp.LE}, B: []float64{1},
		},
		Binary: []int{5},
	}
	if _, err := Solve(p, nil); err == nil {
		t.Fatal("expected error for out-of-range binary index")
	}
}

// bruteForceKnapsack enumerates all binary assignments.
func bruteForceKnapsack(obj, w []float64, cap float64) float64 {
	n := len(obj)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		val, wt := 0.0, 0.0
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				val += obj[j]
				wt += w[j]
			}
		}
		if wt <= cap+1e-12 && val > best {
			best = val
		}
	}
	return best
}

// referenceBnB is the test-side oracle: a depth-first branch and bound that
// solves every node cold, certifies each node's answer with lp.Check, and
// branches on the first fractional binary, fixing it through Lower = Upper.
func referenceBnB(t *testing.T, p *Problem) (best float64, found bool) {
	t.Helper()
	n := p.LP.NumVars()
	var visit func(lower, upper []float64)
	visit = func(lower, upper []float64) {
		q := p.LP
		q.Lower, q.Upper = lower, upper
		s, err := lp.Simplex{}.SolveWarm(&q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lp.Check(&q, s); err != nil {
			t.Fatalf("%v node fails its certificate: %v", s.Status, err)
		}
		if s.Status != lp.Optimal || (found && s.Objective <= best+1e-9) {
			return
		}
		for _, j := range p.Binary {
			if f := s.X[j] - math.Floor(s.X[j]); f > 1e-6 && f < 1-1e-6 {
				for _, v := range []float64{1, 0} {
					if v > upper[j] {
						continue
					}
					lo, up := append([]float64(nil), lower...), append([]float64(nil), upper...)
					lo[j], up[j] = v, v
					visit(lo, up)
				}
				return
			}
		}
		best, found = s.Objective, true
	}
	lower, upper := make([]float64, n), make([]float64, n)
	copy(lower, p.LP.Lower)
	for j := range upper {
		upper[j] = math.Inf(1)
		if p.LP.Upper != nil {
			upper[j] = p.LP.Upper[j]
		}
	}
	visit(lower, upper)
	return best, found
}

// Branch and bound warm-started node to node (the dual simplex from each
// parent's basis) must find the optimum a cold reference search, every node
// of it certified by lp.Check, finds: basis reuse changes the per-node
// simplex trajectory, never the result.
func TestWarmStartMatchesColdSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		n := 4 + rng.Intn(6)
		rows := 1 + rng.Intn(3)
		p := &Problem{LP: lp.Problem{Obj: make([]float64, n), Upper: make([]float64, n)}}
		for j := 0; j < n; j++ {
			p.LP.Obj[j] = rng.Float64() * 10
			p.LP.Upper[j] = 1
			if j%4 != 3 { // every fourth variable stays continuous
				p.Binary = append(p.Binary, j)
			}
		}
		var a [][]float64
		for i := 0; i < rows; i++ {
			w := make([]float64, n)
			for j := range w {
				w[j] = rng.Float64() * 5
			}
			a = append(a, w)
			p.LP.Sense = append(p.LP.Sense, lp.LE)
			p.LP.B = append(p.LP.B, rng.Float64()*10)
		}
		if rng.Intn(3) == 0 { // a cover row: some binary must be chosen
			cover := make([]float64, n)
			for _, j := range p.Binary {
				cover[j] = 1
			}
			a = append(a, cover)
			p.LP.Sense = append(p.LP.Sense, lp.GE)
			p.LP.B = append(p.LP.B, 1)
		}
		p.LP.Cols = lp.NewCSCFromDense(a, n)
		got, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, found := referenceBnB(t, p)
		if got.HasIncumbent != found || (found && math.Abs(got.Objective-want) > 1e-9*(1+math.Abs(want))) {
			t.Fatalf("iter %d: got %v/%v obj %.12g, reference found=%v obj %.12g",
				iter, got.Status, got.HasIncumbent, got.Objective, found, want)
		}
		if got.Nodes > 1 && got.WarmStarts == 0 {
			t.Fatalf("iter %d: %d nodes, none warm-started", iter, got.Nodes)
		}
	}
}

func TestRandomKnapsacksAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.Intn(8)
		obj := make([]float64, n)
		w := make([]float64, n)
		up := make([]float64, n)
		for j := 0; j < n; j++ {
			obj[j] = rng.Float64() * 10
			w[j] = rng.Float64() * 5
			up[j] = 1
		}
		capacity := rng.Float64() * 10
		p := &Problem{
			LP: lp.Problem{
				Obj: obj, Cols: lp.NewCSCFromDense([][]float64{w}, n), Sense: []lp.Sense{lp.LE}, B: []float64{capacity}, Upper: up,
			},
			Binary: func() []int {
				b := make([]int, n)
				for j := range b {
					b[j] = j
				}
				return b
			}(),
		}
		s, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceKnapsack(obj, w, capacity)
		if s.Status != Optimal || math.Abs(s.Objective-want) > 1e-5 {
			t.Fatalf("iter %d: got %v obj %.6f, brute force %.6f", iter, s.Status, s.Objective, want)
		}
		if s.Bound < s.Objective-1e-9 {
			t.Fatalf("iter %d: bound %v below objective %v", iter, s.Bound, s.Objective)
		}
	}
}
