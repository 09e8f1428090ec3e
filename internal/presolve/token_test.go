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
	if !reflect.DeepEqual(got.Basis, want.Basis) {
		t.Fatalf("%s: basis differs", what)
	}
}

// TestTokenStillWarmStartsWithoutReuse checks a token warm-starts a
// different problem: a capacity one percent tighter reduces to the same
// shape, and the old basis installs on it.
func TestTokenStillWarmStartsWithoutReuse(t *testing.T) {
	p, clone := reuseInstance()
	b := presolve.Backend{}
	cold, err := b.SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := clone()
	q.B[aggregateRow(t, p)] *= 0.99
	warm, err := b.SolveWarm(q, cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("same-shaped re-reduction did not warm-start from the token's basis")
	}
}

// TestReusedSolveIdenticalToFresh offers a token to an equal problem held in
// another object — what relax does when its remembered answer was evicted:
// the solve reduces afresh — the reduction's counters are the cold one's —
// installs the basis with no pivot and returns the cold solve's bits and
// basis.
func TestReusedSolveIdenticalToFresh(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		b := presolve.Backend{}
		cold, err := b.SolveWarm(paperRelaxation(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != lp.Optimal {
			continue
		}
		reused, err := b.SolveWarm(paperRelaxation(seed), cold.Basis)
		if err != nil {
			t.Fatal(err)
		}
		if !reused.WarmStarted || reused.Iters != 0 {
			t.Fatalf("seed %d: token solve warm=%v after %d iterations, want a 0-pivot install", seed, reused.WarmStarted, reused.Iters)
		}
		// Only the work counters may differ from the cold solve's.
		reused.Iters, reused.WarmStarted = cold.Iters, cold.WarmStarted
		sameSolution(t, "token vs cold", reused, cold)
		coldRed, err := presolve.Reduce(paperRelaxation(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		reusedRed, err := presolve.Reduce(paperRelaxation(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reusedRed.Stats(), coldRed.Stats()) {
			t.Fatalf("seed %d: presolve stats %+v vs %+v", seed, reusedRed.Stats(), coldRed.Stats())
		}
	}
}

// TestTokenSharedAcrossGoroutines hammers one token from many goroutines on
// an equal problem and on one with a moved bound, the way exp.Runner's
// parallel workers would; run under -race it is the proof the token is
// read-only.
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
