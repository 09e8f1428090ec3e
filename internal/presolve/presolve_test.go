package presolve_test

import (
	"math"
	"testing"

	"vmalloc/internal/lp"
	"vmalloc/internal/milp"
	"vmalloc/internal/presolve"
	"vmalloc/internal/relax"
	"vmalloc/internal/workload"
)

// solveBoth solves p unreduced and through presolve.Solve and returns
// both solutions.
func solveBoth(t *testing.T, p *lp.Problem) (raw, pre *lp.Solution) {
	t.Helper()
	raw, err := lp.Simplex{}.SolveWarm(p, nil)
	if err != nil {
		t.Fatalf("raw solve: %v", err)
	}
	pre, err = presolve.Solve(p)
	if err != nil {
		t.Fatalf("presolved solve: %v", err)
	}
	if raw.Status != pre.Status {
		t.Fatalf("status mismatch: raw %v, presolved %v", raw.Status, pre.Status)
	}
	return raw, pre
}

// checkEquivalent asserts objective agreement to 1e-9 (relative) and
// certifies the presolved answer on the original problem (certifyWith).
func checkEquivalent(t *testing.T, p *lp.Problem, raw, pre *lp.Solution) {
	t.Helper()
	if raw.Status != lp.Optimal {
		return
	}
	scale := 1 + math.Abs(raw.Objective)
	if d := math.Abs(raw.Objective - pre.Objective); d > 1e-9*scale {
		t.Fatalf("objective mismatch: raw %.15g, presolved %.15g (diff %g)", raw.Objective, pre.Objective, d)
	}
	certifyWith(t, p, pre, raw)
}

// certifyWith certifies a presolved optimum of p with the duals of ref, the
// unpresolved solve: any duals give a valid weak-duality bound, so lp.Check
// proves the postsolved X feasible for p, its objective Obj·X, and optimal
// to the check's margin, with no dual postsolve.
func certifyWith(t *testing.T, p *lp.Problem, pre, ref *lp.Solution) {
	t.Helper()
	if _, err := lp.Check(p, &lp.Solution{Status: lp.Optimal, X: pre.X, Objective: pre.Objective, Duals: ref.Duals}); err != nil {
		t.Fatalf("presolved answer fails the certificate of the unpresolved duals: %v", err)
	}
}

func inf() float64 { return math.Inf(1) }

// fixedAndEmpty is max 2a + b + 3c with a free-ish in [0,4] unconstrained
// (empty col), b fixed at 2, c in a real constraint, plus a vacuous 0 <= 5
// row: a model presolve eliminates entirely.
func fixedAndEmpty() *lp.Problem {
	return &lp.Problem{
		Obj:   []float64{2, 1, 3},
		Cols:  lp.NewCSCFromDense([][]float64{{0, 1, 1}, {0, 0, 0}}, 3),
		Sense: []lp.Sense{lp.LE, lp.LE},
		B:     []float64{5, 5},
		Lower: []float64{0, 2, 0},
		Upper: []float64{4, 2, 10},
	}
}

// TestRuleFixedAndEmpty exercises fixed variables (equal bounds), empty
// columns, and empty rows in one model.
func TestRuleFixedAndEmpty(t *testing.T) {
	p := fixedAndEmpty()
	red, err := presolve.Reduce(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if red.Outcome() != presolve.Solved {
		t.Fatalf("outcome %v, want Solved (everything removable)", red.Outcome())
	}
	full, err := red.Postsolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	// a=4 (empty col at preferred bound), b=2 (fixed), c=3 (singleton row
	// bound b+c<=5 after b substituted).
	want := []float64{4, 2, 3}
	for j, w := range want {
		if math.Abs(full.X[j]-w) > 1e-9 {
			t.Fatalf("x[%d]=%g, want %g", j, full.X[j], w)
		}
	}
	raw, err := lp.Simplex{}.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Objective-raw.Objective) > 1e-9 {
		t.Fatalf("objective %g, want %g", full.Objective, raw.Objective)
	}
}

// TestBackendSolvedOutcome solves a model presolve eliminates entirely
// through Solve: the reduction counts every column eliminated, and the
// answer is Postsolve(nil)'s, bit for bit, with no basis, certified by
// lp.Check with the unpresolved simplex's duals.
func TestBackendSolvedOutcome(t *testing.T) {
	p := fixedAndEmpty()
	red, err := presolve.Reduce(p, nil)
	if err != nil || red.Outcome() != presolve.Solved {
		t.Fatalf("outcome %v (%v), want Solved", red.Outcome(), err)
	}
	if st := red.Stats(); st.ColsBefore-st.ColsAfter != p.NumVars() {
		t.Fatalf("presolve stats %+v, want all %d columns eliminated", st, p.NumVars())
	}
	want, err := red.Postsolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := lp.Simplex{}.SolveWarm(p, nil)
	if err != nil || raw.Status != lp.Optimal {
		t.Fatalf("unpresolved solve: %v %v", raw.Status, err)
	}
	got, err := presolve.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != lp.Optimal || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%v/%v, want optimal/%v", got.Status, got.Objective, want.Objective)
	}
	for j, x := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(x) {
			t.Fatalf("x[%d] = %v, want %v", j, got.X[j], x)
		}
	}
	if got.Basis != nil {
		t.Fatal("a fully presolved model returned a basis")
	}
	certifyWith(t, p, got, raw)
}

// TestRuleSingletonRow checks singleton rows become bound tightenings in
// every sense/sign combination.
func TestRuleSingletonRow(t *testing.T) {
	p := &lp.Problem{
		Obj: []float64{1, 1, -1, 1},
		Cols: lp.NewCSCFromDense([][]float64{
			{2, 0, 0, 0},  // 2a <= 6  -> a <= 3
			{0, -1, 0, 0}, // -b <= -1 -> b >= 1
			{0, 0, 3, 0},  // 3c = 6   -> c = 2
			{0, 0, 0, 1},  // d >= 0.5
			{1, 1, 1, 1},  // keeps the model nontrivial
		}, 4),
		Sense: []lp.Sense{lp.LE, lp.LE, lp.EQ, lp.GE, lp.LE},
		B:     []float64{6, -1, 6, 0.5, 7},
		Upper: []float64{10, 10, 10, 10},
	}
	raw, pre := solveBoth(t, p)
	checkEquivalent(t, p, raw, pre)
	red, err := presolve.Reduce(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := red.Stats(); s.DroppedRows < 4 {
		t.Fatalf("expected >=4 dropped singleton rows, got stats %+v", s)
	}
}

// TestRuleRedundantAndForcing checks redundant rows are dropped and forcing
// rows fix their variables.
func TestRuleRedundantAndForcing(t *testing.T) {
	p := &lp.Problem{
		Obj: []float64{1, 2, 5},
		Cols: lp.NewCSCFromDense([][]float64{
			{1, 1, 0}, // a+b <= 100: redundant (max activity 2)
			{1, 1, 0}, // a+b >= 0: redundant (min activity 0)
			{0, 1, 1}, // b+c <= 0: forcing (min activity 0) -> b=c=0
		}, 3),
		Sense: []lp.Sense{lp.LE, lp.GE, lp.LE},
		B:     []float64{100, 0, 0},
		Upper: []float64{1, 1, 1},
	}
	red, err := presolve.Reduce(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if red.Outcome() != presolve.Solved {
		t.Fatalf("outcome %v, want Solved", red.Outcome())
	}
	full, err := red.Postsolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0, 0}
	for j, w := range want {
		if math.Abs(full.X[j]-w) > 1e-12 {
			t.Fatalf("x[%d]=%g, want %g", j, full.X[j], w)
		}
	}
}

// TestRuleSubstitution checks equality substitution: a singleton column in
// an equality row (zero fill) and a general substitution whose host row
// survives as an inequality.
func TestRuleSubstitution(t *testing.T) {
	// max x + y + 10f subject to f + x + y = 1.5 (f in [0,10] appears only
	// here and is NOT implied free: f = 1.5-x-y in [-0.5, 1.5] exceeds
	// [0,10] below), x + 2y <= 2.
	p := &lp.Problem{
		Obj:   []float64{1, 1, 10},
		Cols:  lp.NewCSCFromDense([][]float64{{1, 1, 1}, {1, 2, 0}}, 3),
		Sense: []lp.Sense{lp.EQ, lp.LE},
		B:     []float64{1.5, 2},
		Upper: []float64{1, 1, 10},
	}
	raw, pre := solveBoth(t, p)
	checkEquivalent(t, p, raw, pre)
	red, err := presolve.Reduce(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := red.Stats(); s.SubstCols == 0 {
		t.Fatalf("expected a substitution, got stats %+v", s)
	}
}

// TestRuleBoundPropagation checks iterated propagation reaches a fixpoint
// across chained rows.
func TestRuleBoundPropagation(t *testing.T) {
	// x <= y/2 (via 2x - y <= 0 with y <= 1 -> x <= 0.5), then y <= z/2
	// similarly; propagation must chain z's bound through y into x.
	p := &lp.Problem{
		Obj:   []float64{1, 0, 0},
		Cols:  lp.NewCSCFromDense([][]float64{{2, -1, 0}, {0, 2, -1}}, 3),
		Sense: []lp.Sense{lp.LE, lp.LE},
		B:     []float64{0, 0},
		Upper: []float64{100, 100, 1},
	}
	raw, pre := solveBoth(t, p)
	checkEquivalent(t, p, raw, pre)
	if math.Abs(pre.Objective-0.25) > 1e-9 {
		t.Fatalf("objective %g, want 0.25", pre.Objective)
	}
}

// TestInfeasibleDetection checks presolve proves infeasibility without a
// simplex call, and that Solve's answer, which the simplex then gives on
// the unreduced model, carries a Farkas vector lp.Check accepts.
func TestInfeasibleDetection(t *testing.T) {
	p := &lp.Problem{
		Obj:   []float64{1, 1},
		Cols:  lp.NewCSCFromDense([][]float64{{1, 1}}, 2),
		Sense: []lp.Sense{lp.GE},
		B:     []float64{5},
		Upper: []float64{1, 1},
	}
	red, err := presolve.Reduce(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if red.Outcome() != presolve.Infeasible {
		t.Fatalf("outcome %v, want Infeasible", red.Outcome())
	}
	sol, err := presolve.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Infeasible {
		t.Fatalf("status %v, want Infeasible", sol.Status)
	}
	if _, err := lp.Check(p, sol); err != nil {
		t.Fatalf("Solve's infeasible answer fails its certificate: %v", err)
	}
}

// TestUnboundedDetection checks an empty improving column with no upper
// bound is reported unbounded, by presolve and, with a ray, by Solve.
func TestUnboundedDetection(t *testing.T) {
	p := &lp.Problem{
		Obj:   []float64{1, 1},
		Cols:  lp.NewCSCFromDense([][]float64{{1, 0}}, 2),
		Sense: []lp.Sense{lp.LE},
		B:     []float64{1},
		Upper: []float64{1, inf()},
	}
	red, err := presolve.Reduce(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if red.Outcome() != presolve.Unbounded {
		t.Fatalf("outcome %v, want Unbounded", red.Outcome())
	}
	sol, err := presolve.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Unbounded {
		t.Fatalf("status %v, want Unbounded", sol.Status)
	}
	if _, err := lp.Check(p, sol); err != nil {
		t.Fatalf("Solve's unbounded answer fails its certificate: %v", err)
	}
}

// TestPostsolveSlackOfMorphedEquality is the smallest model found (by
// differential fuzzing of the reducer) on which an equality row morphs into
// an inequality through substitution and then loses a doubleton: its
// synthetic slack has no column in the full model, and postsolve must still
// recover the unreduced optimum.
func TestPostsolveSlackOfMorphedEquality(t *testing.T) {
	p := &lp.Problem{
		Obj: []float64{3, 1, 3, 0},
		Cols: lp.NewCSCFromDense([][]float64{
			{1, -0.5, -1, -2},
			{0, -0.5, 0, 0},
			{0, -0.5, 1, -1.57},
		}, 4),
		Sense: []lp.Sense{lp.EQ, lp.GE, lp.EQ},
		B:     []float64{-3.5, -0.5, 0.9299999999999999},
		Lower: []float64{1, 0, 0, 0},
		Upper: []float64{inf(), inf(), 5, 1},
	}
	raw, pre := solveBoth(t, p)
	checkEquivalent(t, p, raw, pre)
	red, err := presolve.Reduce(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if red.Outcome() != presolve.Reduced {
		t.Fatalf("outcome %v, want Reduced", red.Outcome())
	}
	sol, err := lp.Simplex{}.SolveWarm(red.Problem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := red.Postsolve(sol)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(full.Objective - raw.Objective); d > 1e-9*(1+math.Abs(raw.Objective)) {
		t.Fatalf("postsolved objective %.15g vs raw %.15g", full.Objective, raw.Objective)
	}
	certifyWith(t, p, full, raw)
}

// parkScenarios returns 100+ varied park instances: the S4 equivalence
// corpus.
func parkScenarios() []workload.Scenario {
	var scns []workload.Scenario
	for _, hosts := range []int{2, 3, 5} {
		for _, services := range []int{4, 8, 16} {
			for _, cov := range []float64{0, 0.5, 1.0} {
				for _, slack := range []float64{0.3, 0.7} {
					for seed := int64(1); seed <= 2; seed++ {
						scns = append(scns, workload.Scenario{
							Hosts: hosts, Services: services,
							COV: cov, Slack: slack, Seed: seed,
						})
					}
				}
			}
		}
	}
	return scns // 3*3*3*2*2 = 108 instances
}

// TestEquivalenceRandomParks is the headline equivalence gate: across 100+
// random park relaxations the reduced-model objective must match the
// unreduced solve to 1e-9 and the reconstructed primal must pass lp.Check
// with the unreduced solve's duals, through presolve.Solve and through
// Reduce, the simplex and Postsolve step by step.
func TestEquivalenceRandomParks(t *testing.T) {
	scns := parkScenarios()
	if len(scns) < 100 {
		t.Fatalf("corpus too small: %d instances", len(scns))
	}
	for _, scn := range scns {
		p := workload.Generate(scn)
		enc := relax.Encode(p)
		raw, pre := solveBoth(t, enc.LP)
		checkEquivalent(t, enc.LP, raw, pre)
		if raw.Status != lp.Optimal {
			continue
		}

		red, err := presolve.Reduce(enc.LP, nil)
		if err != nil {
			t.Fatalf("%v: %v", scn, err)
		}
		if red.Outcome() != presolve.Reduced {
			t.Fatalf("%v: outcome %v", scn, red.Outcome())
		}
		if s := red.Stats(); s.RowsAfter >= s.RowsBefore && s.ColsAfter >= s.ColsBefore {
			t.Errorf("%v: presolve removed nothing: %+v", scn, s)
		}
		rsol, err := lp.Simplex{}.SolveWarm(red.Problem(), nil)
		if err != nil {
			t.Fatalf("%v: reduced solve: %v", scn, err)
		}
		full, err := red.Postsolve(rsol)
		if err != nil {
			t.Fatalf("%v: postsolve: %v", scn, err)
		}
		scale := 1 + math.Abs(raw.Objective)
		if d := math.Abs(full.Objective - raw.Objective); d > 1e-9*scale {
			t.Fatalf("%v: postsolved objective %.15g vs raw %.15g", scn, full.Objective, raw.Objective)
		}
		certifyWith(t, enc.LP, full, raw)
	}
}

// presolvedBnB is a test-side reference branch and bound that reduces every
// node afresh: depth first, each node's LP (binaries fixed through Lower =
// Upper) solved cold through presolve.Solve, branching on the first
// fractional binary.
func presolvedBnB(t *testing.T, p *milp.Problem) (best float64, found bool) {
	t.Helper()
	n := p.LP.NumVars()
	var visit func(lower, upper []float64)
	visit = func(lower, upper []float64) {
		q := p.LP
		q.Lower, q.Upper = lower, upper
		s, err := presolve.Solve(&q)
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != lp.Optimal || (found && s.Objective <= best+1e-9) {
			return
		}
		for _, j := range p.Binary {
			if f := s.X[j] - math.Floor(s.X[j]); f > 1e-6 && f < 1-1e-6 {
				for _, v := range []float64{1, 0} {
					lo, up := append([]float64(nil), lower...), append([]float64(nil), upper...)
					lo[j], up[j] = v, v
					visit(lo, up)
				}
				return
			}
		}
		best, found = s.Objective, true
	}
	visit(make([]float64, n), append([]float64(nil), p.LP.Upper...))
	return best, found
}

// TestEquivalenceUnderMILP proves presolve is exact under branch and bound:
// a search that presolves every node's bound-fixed LP reaches the optimum of
// milp.Solve, which runs its tree unreduced, warm from node to node.
func TestEquivalenceUnderMILP(t *testing.T) {
	count := 0
	for _, hosts := range []int{2, 3} {
		for _, services := range []int{4, 6} {
			for seed := int64(1); seed <= 3; seed++ {
				scn := workload.Scenario{Hosts: hosts, Services: services, COV: 0.5, Slack: 0.5, Seed: seed}
				p := workload.Generate(scn)
				enc := relax.Encode(p)
				var bins []int
				for j := 0; j < enc.J; j++ {
					for h := 0; h < enc.H; h++ {
						bins = append(bins, enc.EVar(j, h))
					}
				}
				mp := &milp.Problem{LP: *enc.LP, Binary: bins}
				sol, err := milp.Solve(mp, nil)
				if err != nil {
					t.Fatalf("%v: %v", scn, err)
				}
				want, found := presolvedBnB(t, mp)
				if sol.HasIncumbent != found {
					t.Fatalf("%v: incumbent %v, presolved reference found %v", scn, sol.HasIncumbent, found)
				}
				if found {
					if d := math.Abs(sol.Objective - want); d > 1e-9*(1+math.Abs(want)) {
						t.Fatalf("%v: MILP objective %.15g vs presolved %.15g", scn, sol.Objective, want)
					}
				}
				count++
			}
		}
	}
	if count == 0 {
		t.Fatal("no MILP instances exercised")
	}
}
