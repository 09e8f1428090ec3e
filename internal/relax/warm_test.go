package relax

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"vmalloc/internal/core"
	"vmalloc/internal/testutil/grid"
	"vmalloc/internal/workload"
)

// sameBits fails unless two relaxation solves agree bit for bit on
// feasibility, MinYield and every fractional placement e_jh.
func sameBits(t *testing.T, what string, got, want *Relaxed) {
	t.Helper()
	if got.Feasible != want.Feasible || math.Float64bits(got.MinYield) != math.Float64bits(want.MinYield) {
		t.Fatalf("%s: feasible/MinYield %v/%v, want %v/%v", what, got.Feasible, got.MinYield, want.Feasible, want.MinYield)
	}
	for j := range want.E {
		for h, v := range want.E[j] {
			if math.Float64bits(got.E[j][h]) != math.Float64bits(v) {
				t.Fatalf("%s: E[%d][%d] = %v, want %v", what, j, h, got.E[j][h], v)
			}
		}
	}
}

func mustSolve(t *testing.T, p *core.Problem) *Relaxed {
	t.Helper()
	rel, err := SolveRelaxed(p)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// isHit reports whether a solve was answered from the table: a hit hands
// out the remembered answer's token, a solve makes its own or, infeasible,
// none. Only a feasible remembered answer tells the two apart, which is
// what every miss test remembers.
func isHit(got, remembered *Relaxed) bool {
	return got.Basis == remembered.Basis
}

// TestRepeatSolveIsBitIdenticalHit pins the table's contract on the paper's
// 8x64 relaxations: a second SolveRelaxed of the same *core.Problem is
// answered from memory — no pivot, no refactorization, the first solve's
// token — and returns exactly the bits a cold solve of an independent clone
// returns, infeasible instances included. Under the race detector every
// tenth instance runs.
func TestRepeatSolveIsBitIdenticalHit(t *testing.T) {
	step := 1
	if raceEnabled {
		step = 10
	}
	hits, infeasible := 0, 0
	for i := 0; i < goldenBounds; i += step {
		scn := grid.Scenario(i)
		p := workload.Generate(scn)
		first := mustSolve(t, p)
		again := mustSolve(t, p)
		if !isHit(again, first) || !again.WarmStarted || again.Iters != 0 || again.Refactorizations != 0 || again.Basis != first.Basis {
			t.Fatalf("%s: repeat solve hit=%v warm=%v after %d iterations and %d refactorizations, want a hit with none",
				scn, isHit(again, first), again.WarmStarted, again.Iters, again.Refactorizations)
		}
		sameBits(t, scn.String()+": hit vs cold clone", again, mustSolve(t, p.Clone()))
		hits++
		if !first.Feasible {
			infeasible++
		}
	}
	if hits == infeasible {
		t.Fatal("no feasible instance exercised")
	}
	if !raceEnabled && infeasible == 0 {
		t.Fatal("no infeasible instance exercised")
	}
}

// TestInPlaceEditReducesAfresh edits one service's need between two solves
// of the same problem: the table still hands over the old token, but the
// answer is not reused — the solve reduces afresh and answers what a cold
// solve of the edited problem answers.
func TestInPlaceEditReducesAfresh(t *testing.T) {
	p := workload.Generate(grid.Scenario(4))
	first := mustSolve(t, p)
	if !first.Feasible {
		t.Fatal("instance should be feasible")
	}
	s := &p.Services[3]
	s.NeedAgg, s.NeedElem = s.NeedAgg.Scale(0.5), s.NeedElem.Scale(0.5)
	edited := mustSolve(t, p)
	if isHit(edited, first) {
		t.Fatal("an in-place edit was answered from memory")
	}
	cold := mustSolve(t, p.Clone())
	if !edited.Feasible || math.Abs(edited.MinYield-cold.MinYield) > 1e-9 {
		t.Fatalf("edited problem: MinYield %.15g, cold clone %.15g", edited.MinYield, cold.MinYield)
	}
	if edited.MinYield < first.MinYield-1e-9 {
		t.Fatalf("halving a need lowered the bound: %.15g -> %.15g", first.MinYield, edited.MinYield)
	}
}

// TestMemoMissesOnEdit edits, in place, one entry of each vector the
// encoding reads: every edit misses and answers what a cold solve of the
// edited problem answers.
func TestMemoMissesOnEdit(t *testing.T) {
	for _, tc := range []struct {
		name string
		vec  func(p *core.Problem) []float64
	}{
		{"ReqElem", func(p *core.Problem) []float64 { return p.Services[5].ReqElem }},
		{"ReqAgg", func(p *core.Problem) []float64 { return p.Services[5].ReqAgg }},
		{"NeedElem", func(p *core.Problem) []float64 { return p.Services[5].NeedElem }},
		{"NeedAgg", func(p *core.Problem) []float64 { return p.Services[5].NeedAgg }},
		{"Elementary", func(p *core.Problem) []float64 { return p.Nodes[2].Elementary }},
		{"Aggregate", func(p *core.Problem) []float64 { return p.Nodes[2].Aggregate }},
	} {
		p := workload.Generate(grid.Scenario(4))
		first := mustSolve(t, p)
		v := tc.vec(p)
		v[slices.Index(v, slices.Max(v))] *= 0.75
		edited := mustSolve(t, p)
		if isHit(edited, first) {
			t.Fatalf("%s: an in-place edit was answered from memory", tc.name)
		}
		cold := mustSolve(t, p.Clone())
		if edited.Feasible != cold.Feasible || math.Abs(edited.MinYield-cold.MinYield) > 1e-9 {
			t.Fatalf("%s: edited MinYield %.15g (feasible %v), cold clone %.15g (feasible %v)",
				tc.name, edited.MinYield, edited.Feasible, cold.MinYield, cold.Feasible)
		}
	}
}

// TestEvictionCostsOnlyTime solves one more distinct problem than the table
// holds: the oldest is evicted, its next solve is cold, and it still returns
// its first solve's bits.
func TestEvictionCostsOnlyTime(t *testing.T) {
	ps := make([]*core.Problem, warmTableSize+1)
	rels := make([]*Relaxed, len(ps))
	for i := range ps {
		ps[i] = workload.Generate(workload.Scenario{Hosts: 4, Services: 16, COV: 0.5, Slack: 0.5, Seed: int64(i + 1)})
		rels[i] = mustSolve(t, ps[i])
		if !rels[i].Feasible {
			t.Fatalf("instance %d should be feasible", i)
		}
	}
	if recall(ps[0]).rel != nil {
		t.Fatal("the oldest problem was not evicted")
	}
	for _, p := range ps[1:] {
		if recall(p).rel == nil {
			t.Fatal("a recently solved problem was evicted")
		}
	}
	again := mustSolve(t, ps[0])
	if again.WarmStarted || isHit(again, rels[0]) {
		t.Fatal("an evicted problem was still answered from memory or warm-started")
	}
	sameBits(t, "after eviction", again, rels[0])
}

// TestTableConcurrentUse runs eight goroutines through the table at once,
// each on its own problem and all on one shared problem; every answer must
// be the sequential cold answer bit for bit. Under -race it is the proof
// the table and the tokens it hands out are safe to share.
func TestTableConcurrentUse(t *testing.T) {
	const workers, rounds = 8, 3
	gen := func(i int) *core.Problem {
		return workload.Generate(workload.Scenario{Hosts: 4, Services: 16, COV: 0.5, Slack: 0.5, Seed: int64(100 + i)})
	}
	want := make([]*Relaxed, workers+1)
	for i := range want {
		want[i] = mustSolve(t, gen(i))
	}
	shared := gen(workers)
	own := make([]*core.Problem, workers)
	for i := range own {
		own[i] = gen(i)
	}
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, c := range []struct {
					p    *core.Problem
					want *Relaxed
				}{{own[w], want[w]}, {shared, want[workers]}} {
					got, err := SolveRelaxed(c.p)
					if err != nil {
						errs <- err.Error()
						return
					}
					if got.Feasible != c.want.Feasible || math.Float64bits(got.MinYield) != math.Float64bits(c.want.MinYield) {
						errs <- "concurrent solve diverged from the sequential cold solve"
						return
					}
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

// TestTableRetentionBounded is the memory gate: however many problems are
// solved, the table keeps at most warmTableSize of them — and of their
// snapshots and answers — reachable once the caller drops them.
func TestTableRetentionBounded(t *testing.T) {
	const n = 4 * warmTableSize
	probs, snaps, answers := solveAndDrop(t, n)
	runtime.GC()
	runtime.GC()
	for _, c := range []struct {
		what  string
		alive int
	}{{"problems", countAlive(probs)}, {"snapshots", countAlive(snaps)}, {"answers", countAlive(answers)}} {
		if c.alive > warmTableSize {
			t.Errorf("%d of %d solved problems' %s still reachable, want at most %d", c.alive, n, c.what, warmTableSize)
		}
	}
}

// solveAndDrop solves n distinct problems and returns only weak pointers to
// them and to the snapshots and answers the table took of them.
func solveAndDrop(t *testing.T, n int) (probs, snaps []weak.Pointer[core.Problem], answers []weak.Pointer[Relaxed]) {
	for i := 0; i < n; i++ {
		p := workload.Generate(workload.Scenario{Hosts: 4, Services: 16, COV: 0.5, Slack: 0.5, Seed: int64(200 + i)})
		mustSolve(t, p)
		e := recall(p)
		if e.rel == nil {
			t.Fatal("a just-solved problem has no entry")
		}
		probs = append(probs, weak.Make(p))
		snaps = append(snaps, weak.Make(e.snap))
		answers = append(answers, weak.Make(e.rel))
	}
	return probs, snaps, answers
}

// countAlive counts the weak pointers whose value is still reachable.
func countAlive[T any](refs []weak.Pointer[T]) int {
	alive := 0
	for _, r := range refs {
		if r.Value() != nil {
			alive++
		}
	}
	return alive
}
