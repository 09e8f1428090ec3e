package presolve_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"vmalloc/internal/lp"
	"vmalloc/internal/presolve"
	"vmalloc/internal/relax"
	"vmalloc/internal/workload"
)

// reuseInstance is a 4x16 relaxation and a deep copy maker for it, so each
// case perturbs its own problem.
func reuseInstance() (p *lp.Problem, clone func() *lp.Problem) {
	p = relax.Encode(workload.Generate(workload.Scenario{Hosts: 4, Services: 16, COV: 0.5, Slack: 0.5, Seed: 7})).LP
	clone = func() *lp.Problem {
		q := *p
		c := *p.Cols
		c.ColPtr = append([]int(nil), p.Cols.ColPtr...)
		c.RowIdx = append([]int(nil), p.Cols.RowIdx...)
		c.Val = append([]float64(nil), p.Cols.Val...)
		q.Cols = &c
		q.Obj = append([]float64(nil), p.Obj...)
		q.B = append([]float64(nil), p.B...)
		q.Sense = append([]lp.Sense(nil), p.Sense...)
		q.Upper = append([]float64(nil), p.Upper...)
		return &q
	}
	return p, clone
}

// aggregateRow returns the index of the first aggregate-capacity row: the
// first inequality with more than two coefficients.
func aggregateRow(t *testing.T, p *lp.Problem) int {
	t.Helper()
	count := make([]int, p.NumRows())
	for _, i := range p.Cols.RowIdx {
		count[i]++
	}
	for i, c := range count {
		if p.Sense[i] == lp.LE && c > 2 {
			return i
		}
	}
	t.Fatal("no aggregate row")
	return -1
}

func sameSolution(t *testing.T, what string, got, want *lp.Solution) {
	t.Helper()
	if got.Status != want.Status || got.Iters != want.Iters || got.WarmStarted != want.WarmStarted ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: status/iters/warm/objective %v/%d/%v/%v, want %v/%d/%v/%v", what,
			got.Status, got.Iters, got.WarmStarted, got.Objective, want.Status, want.Iters, want.WarmStarted, want.Objective)
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: x[%d] = %v, want %v", what, j, got.X[j], want.X[j])
		}
	}
	if (got.Basis == nil) != (want.Basis == nil) {
		t.Fatalf("%s: basis presence differs", what)
	}
	if want.Basis != nil && !reflect.DeepEqual(got.Basis.WithAttachment(nil), want.Basis.WithAttachment(nil)) {
		t.Fatalf("%s: basis differs", what)
	}
}

// TestTokenReuseOnlyForEqualProblems pins when the warm token's reduction
// stands in for a fresh Reduce: for an element-for-element equal problem
// (however it was rebuilt), and for nothing else — one bound, one right-hand
// side, one coefficient or one sense apart, the solve reduces afresh and
// answers exactly what a tokenless solve answers.
func TestTokenReuseOnlyForEqualProblems(t *testing.T) {
	p, clone := reuseInstance()
	b := presolve.Backend{}
	cold, err := b.SolveWarm(p, nil)
	if err != nil || cold.Status != lp.Optimal {
		t.Fatalf("cold solve: %v %v", cold, err)
	}
	token := cold.Basis
	agg := aggregateRow(t, p)

	if !presolve.Reuse(token, clone()) {
		t.Fatal("an equal problem rebuilt from scratch did not reuse the token's reduction")
	}

	for _, tc := range []struct {
		name string
		edit func(q *lp.Problem)
	}{
		{"one bound", func(q *lp.Problem) { q.Upper[3] = 0.5 }},
		{"one rhs", func(q *lp.Problem) { q.B[agg] *= 0.75 }},
		{"one coefficient", func(q *lp.Problem) { q.Cols.Val[5] *= 1.5 }},
		{"one sense", func(q *lp.Problem) { q.Sense[agg] = lp.EQ }},
		{"lower bounds appear", func(q *lp.Problem) { q.Lower = make([]float64, q.NumVars()); q.Lower[3] = 0.25 }},
	} {
		q := clone()
		tc.edit(q)
		if presolve.Reuse(token, q) {
			t.Fatalf("%s: the stale reduction was reused", tc.name)
		}
		fresh, err := b.SolveWarm(q, nil)
		if err != nil {
			t.Fatalf("%s: fresh solve: %v", tc.name, err)
		}
		warm, err := b.SolveWarm(q, token)
		if err != nil {
			t.Fatalf("%s: token solve: %v", tc.name, err)
		}
		if warm.Status != fresh.Status {
			t.Fatalf("%s: status %v with the token, %v without", tc.name, warm.Status, fresh.Status)
		}
		if fresh.Status == lp.Optimal {
			if d := math.Abs(warm.Objective - fresh.Objective); d > 1e-9*(1+math.Abs(fresh.Objective)) {
				t.Fatalf("%s: objective %.15g with the token, %.15g without", tc.name, warm.Objective, fresh.Objective)
			}
			checkFeasible(t, q, warm.X)
		}
	}

	// Editing the solved problem in place must not revive its reduction
	// either: the token compares against the reducer's own copy.
	saved := p.B[agg]
	p.B[agg] *= 0.75
	if presolve.Reuse(token, p) {
		t.Fatal("an in-place edit of the solved problem reused the stale reduction")
	}
	p.B[agg] = saved
	if !presolve.Reuse(token, p) {
		t.Fatal("undoing the edit did not restore reuse")
	}
}

// TestTokenStillWarmStartsWithoutReuse checks the fallback keeps the half of
// the token that still applies: a capacity one percent tighter reduces afresh
// to the same shape, and the old basis installs on it.
func TestTokenStillWarmStartsWithoutReuse(t *testing.T) {
	p, clone := reuseInstance()
	b := presolve.Backend{}
	cold, err := b.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := clone()
	q.B[aggregateRow(t, p)] *= 0.99
	if presolve.Reuse(cold.Basis, q) {
		t.Fatal("a different right-hand side reused the reduction")
	}
	warm, err := b.SolveWarm(q, cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("same-shaped re-reduction did not warm-start from the token's basis")
	}
}

// TestReusedSolveIdenticalToFresh checks that skipping Reduce changes
// nothing observable: the same basis handed in with and without its
// reduction gives bit-identical X, Objective, Basis and Iters.
func TestReusedSolveIdenticalToFresh(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := paperRelaxation(seed)
		b := presolve.Backend{}
		cold, err := b.SolveWarm(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != lp.Optimal {
			continue
		}
		if !presolve.Reuse(cold.Basis, paperRelaxation(seed)) {
			t.Fatalf("seed %d: re-encoded relaxation did not reuse the reduction", seed)
		}
		reused, err := b.SolveWarm(paperRelaxation(seed), cold.Basis)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := b.SolveWarm(p, cold.Basis.WithAttachment(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reused.WarmStarted {
			t.Fatalf("seed %d: reused solve did not warm-start", seed)
		}
		sameSolution(t, "reused vs fresh", reused, fresh)
		if !reflect.DeepEqual(reused.Presolve, fresh.Presolve) {
			t.Fatalf("seed %d: presolve stats %+v vs %+v", seed, reused.Presolve, fresh.Presolve)
		}
	}
}

// TestTokenSharedAcrossGoroutines hammers one token from many goroutines on
// both paths — equal problem (reduction reused) and moved bound (reduced
// afresh, basis still installed) — the way exp.Runner's parallel workers
// would; run under -race it is the proof the attachment is read-only.
func TestTokenSharedAcrossGoroutines(t *testing.T) {
	p, clone := reuseInstance()
	b := presolve.Backend{}
	cold, err := b.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := clone()
	moved.Upper[3] = 0.5
	wantSame, err := b.SolveWarm(clone(), cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	wantMoved, err := b.SolveWarm(moved, cold.Basis)
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 8, 10
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q, want := clone(), wantSame
				if (w+r)%2 == 1 {
					q.Upper[3] = 0.5
					want = wantMoved
				}
				got, err := b.SolveWarm(q, cold.Basis)
				if err != nil {
					errs <- err.Error()
					return
				}
				if got.Status != want.Status || got.Iters != want.Iters ||
					math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
					errs <- "concurrent solve diverged from the sequential one"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
