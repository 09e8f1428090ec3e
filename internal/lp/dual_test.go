package lp

import (
	"math"
	"math/rand"
	"testing"
)

// boundedProblem draws a random sparse LP with mixed row senses and every
// kind of bound the kernel handles: upper bounds infinite or finite, lower
// bounds zero, positive or negative, some variables fixed.
func boundedProblem(rng *rand.Rand) *Problem {
	n, rows := 2+rng.Intn(30), 1+rng.Intn(20)
	p := randomProblem(rng, n, rows, 0.15+0.5*rng.Float64())
	p.Lower = make([]float64, n)
	for j := range p.Lower {
		switch r := rng.Float64(); {
		case r < 0.3:
			p.Lower[j] = rng.NormFloat64()
			if p.Lower[j] > p.Upper[j] {
				p.Lower[j] = p.Upper[j]
			}
		case r < 0.35 && !math.IsInf(p.Upper[j], 1):
			p.Lower[j] = p.Upper[j]
		}
	}
	return p
}

// agree reports whether two solutions have the same status and, when
// optimal, objectives within 1e-9 relative.
func agree(a, b *Solution) bool {
	if a.Status != b.Status {
		return false
	}
	return a.Status != Optimal || math.Abs(a.Objective-b.Objective) <= 1e-9*(1+math.Abs(b.Objective))
}

// The kernel's answers on random bounded LPs, each certified by Check
// through the witness of its status: an optimum by its feasible X and the
// weak-duality bound of its duals, infeasibility by the phase-1 Farkas
// vector, unboundedness by a feasible point and its ray. Every status must
// occur.
func TestKernelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	statuses := map[Status]int{}
	for iter := 0; iter < 1500; iter++ {
		p := boundedProblem(rng)
		statuses[solveOK(t, p).Status]++
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[st] == 0 {
			t.Errorf("no %v instance among %v", st, statuses)
		}
	}
}

// perturbBounds returns p with one to three random bound changes of the
// kinds branch and bound and bound tightening make: fix a variable at either
// end of its box, raise its lower bound, lower its upper bound.
func perturbBounds(rng *rand.Rand, p *Problem) *Problem {
	q := *p
	q.Upper = append([]float64(nil), p.Upper...)
	q.Lower = append([]float64(nil), p.Lower...)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		j := rng.Intn(len(q.Obj))
		l, u := q.Lower[j], q.Upper[j]
		hi := u
		if math.IsInf(u, 1) {
			hi = l + 1 + 2*rng.Float64()
		}
		switch rng.Intn(4) {
		case 0:
			q.Upper[j] = l
		case 1:
			q.Lower[j] = hi
			q.Upper[j] = hi
		case 2:
			q.Lower[j] = l + (hi-l)*rng.Float64()
		default:
			q.Upper[j] = l + (hi-l)*rng.Float64()
		}
	}
	return &q
}

// The dual restart: after a bound change, the optimal basis of the parent
// must warm-start the child and reach what a cold solve reaches — the same
// status, infeasible included, and the same objective — and Check must
// certify both answers: a warm infeasible one by the dual simplex's Farkas
// row, a cold one by its phase-1 duals.
func TestDualRestartMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	tried, infeasible, pivoted := 0, 0, 0
	for iter := 0; iter < 5000; iter++ {
		p := boundedProblem(rng)
		base, err := Simplex{}.SolveWarm(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != Optimal {
			continue
		}
		q := perturbBounds(rng, p)
		warm, err := Simplex{}.SolveWarm(q, base.Basis)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Simplex{}.SolveWarm(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !agree(warm, cold) {
			t.Fatalf("iter %d: warm %v/%.17g, cold %v/%.17g", iter, warm.Status, warm.Objective, cold.Status, cold.Objective)
		}
		if !warm.WarmStarted {
			t.Fatalf("iter %d: bound change did not warm-start (%v)", iter, warm.Status)
		}
		certify(t, q, warm)
		certify(t, q, cold)
		tried++
		if warm.Status == Infeasible {
			infeasible++
		}
		if warm.Iters > 0 {
			pivoted++
		}
	}
	if tried < 500 || infeasible == 0 || pivoted == 0 {
		t.Fatalf("%d restarts, %d infeasible, %d pivoting: the corpus exercised too little", tried, infeasible, pivoted)
	}
}

// A warm basis that is neither primal nor dual feasible under the new
// problem (bounds and objective both moved) falls back to a cold start and
// still answers like one.
func TestWarmStartFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	reused, rejected := 0, 0
	for iter := 0; iter < 1000; iter++ {
		p := boundedProblem(rng)
		base, err := Simplex{}.SolveWarm(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != Optimal {
			continue
		}
		q := perturbBounds(rng, p)
		q.Obj = append([]float64(nil), p.Obj...)
		for j := range q.Obj {
			q.Obj[j] = -q.Obj[j]
		}
		warm, err := Simplex{}.SolveWarm(q, base.Basis)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Simplex{}.SolveWarm(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !agree(warm, cold) {
			t.Fatalf("iter %d: warm %v/%.17g, cold %v/%.17g", iter, warm.Status, warm.Objective, cold.Status, cold.Objective)
		}
		if warm.WarmStarted {
			reused++
		} else {
			rejected++
		}
	}
	if reused == 0 || rejected == 0 {
		t.Fatalf("%d reused, %d rejected: one path went untested", reused, rejected)
	}
}

// A refactorization that finds the basis singular — here two identical
// columns, forced into the basis together — swaps the dependent slot for a
// slack instead of giving up. The swapped-out x1 comes to rest at its upper
// bound, which puts the basic x0 at 2, above its own bound of 1.5, so the
// solve must restore feasibility before it finishes at an optimum Check
// certifies, the one a cold solve finds.
func TestRefactorizeRepairsSingularBasis(t *testing.T) {
	// max x0 + x1 + 2 x2 + x3 with x0 and x1 sharing a column.
	p := &Problem{
		Obj: []float64{1, 1, 2, 1},
		Cols: NewCSCFromDense([][]float64{
			{1, 1, 1, 0},
			{2, 2, 0, 1},
			{0, 0, 1, 1},
		}, 4),
		Sense: []Sense{LE, LE, LE},
		B:     []float64{4, 6, 3},
		Upper: []float64{1.5, 1, 2, math.Inf(1)},
	}
	want := solveOK(t, p)
	if want.Status != Optimal {
		t.Fatalf("cold reference: %v", want.Status)
	}

	var w Workspace
	rv := &w.rv
	rv.load(p)
	rv.coldBasis()
	rv.banArtificials()
	rv.setObjective(p.Obj)
	// Columns 0 and 1 take the slacks' places in rows 0 and 1.
	for row, col := range []int{0, 1} {
		old := rv.basis[row]
		rv.status[old], rv.inBasis[old] = atLower, -1
		rv.setDir(old)
		rv.basis[row], rv.inBasis[col], rv.status[col], rv.dir[col] = col, row, basic, 0
	}
	rv.refactorize()
	if rv.broken || !rv.repaired {
		t.Fatalf("singular refactorization: broken=%v repaired=%v", rv.broken, rv.repaired)
	}
	if rv.inBasis[0] >= 0 && rv.inBasis[1] >= 0 {
		t.Fatalf("both copies of the column are still basic: basis %v", rv.basis[:rv.m])
	}
	if rv.primalFeasible() {
		t.Fatalf("repaired basis is feasible (xB %v); the restore path went untested", rv.xB[:rv.m])
	}
	got := rv.result(p, rv.iterate(), false)
	if got.Status != Optimal || math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("after repair: %v/%v, cold %v", got.Status, got.Objective, want.Objective)
	}
	certify(t, p, got)
	if rv.refactors != 1 {
		t.Errorf("%d refactorizations, want the one that repaired", rv.refactors)
	}
}

// A pivot-row entry that cancels to exactly zero partway through the
// row-wise scatter and is then reached again must count once in the dual's
// infeasibility certificate. Here B = [x0 x1 x2] makes row 0 of B^{-1}
// (1, -1, 1), so x3's entry sums 1·1 − 1·1 = 0 over rows 0 and 1 and ends at
// −2⁻³¹ from row 2: below pivotTol, so x3 cannot enter, but its bound of 10⁶
// lets it repair 2⁻³¹·10⁶ ≈ 4.7e-4 of row 0's 7e-4 violation. Counted once
// the row is certified infeasible on the warm basis; counted twice (9.3e-4)
// the dual could not certify it, gave up and the solve restarted cold. The
// row it certified is the Farkas vector the answer carries; Check must
// accept it, and the cold solve's phase-1 one.
func TestDualCertifiesRowWithCancelledEntry(t *testing.T) {
	p := &Problem{
		Obj: []float64{0, 0, 0, -1},
		Cols: NewCSCFromDense([][]float64{
			{1, 1, 0, 1},
			{0, 1, 1, 1},
			{0, 0, 1, -math.Ldexp(1, -31)},
		}, 4),
		Sense: []Sense{EQ, EQ, EQ},
		B:     []float64{1, 2.0007, 1},
		Upper: []float64{math.Inf(1), math.Inf(1), math.Inf(1), 1e6},
	}
	// x0, x1, x2 basic in rows 0, 1, 2; x3 at its lower bound.
	warm := &Basis{m: 3, nStruct: 4, nReal: 4, data: []int32{0, 1, 2, int32(basic), int32(basic), int32(basic), int32(atLower)}}
	sol, err := Simplex{}.SolveWarm(p, warm)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible || !sol.WarmStarted || sol.Iters != 0 {
		t.Fatalf("status %v, warm-started %v after %d pivots; want infeasible, certified on the warm basis with no pivot",
			sol.Status, sol.WarmStarted, sol.Iters)
	}
	certify(t, p, sol)
	if cold := solveOK(t, p); cold.Status != Infeasible {
		t.Fatalf("cold reference: %v", cold.Status)
	}
}
