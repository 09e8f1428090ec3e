package relax

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"weak"

	"vmalloc/internal/core"
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

// TestRepeatSolveIsBitIdenticalHit pins the table's contract on the paper's
// 8x64 relaxations: a second SolveRelaxed of the same *core.Problem is a warm
// hit that takes no pivot and reuses the first solve's reduction, and it
// returns exactly the bits a cold solve of an independent clone returns.
// Under the race detector every tenth instance runs.
func TestRepeatSolveIsBitIdenticalHit(t *testing.T) {
	step := 1
	if raceEnabled {
		step = 10
	}
	hits := 0
	for i := 0; i < goldenBounds; i += step {
		scn := boundScenario(i)
		p := workload.Generate(scn)
		first := mustSolve(t, p)
		if !first.Feasible {
			continue
		}
		again := mustSolve(t, p)
		if !again.WarmStarted || again.Iters != 0 {
			t.Fatalf("%s: repeat solve warm=%v after %d iterations, want a warm hit with none", scn, again.WarmStarted, again.Iters)
		}
		if again.Basis.Attachment() != first.Basis.Attachment() {
			t.Fatalf("%s: repeat solve reduced afresh instead of reusing the reduction", scn)
		}
		sameBits(t, scn.String()+": hit vs cold clone", again, mustSolve(t, p.Clone()))
		hits++
	}
	if hits == 0 {
		t.Fatal("no feasible instance exercised")
	}
}

// TestInPlaceEditReducesAfresh edits one service's need between two solves
// of the same problem: the table still hands over the old token, but the
// presolving solve sees the edit, reduces afresh and answers what a cold
// solve of the edited problem answers.
func TestInPlaceEditReducesAfresh(t *testing.T) {
	p := workload.Generate(boundScenario(4))
	first := mustSolve(t, p)
	if !first.Feasible {
		t.Fatal("instance should be feasible")
	}
	s := &p.Services[3]
	s.NeedAgg, s.NeedElem = s.NeedAgg.Scale(0.5), s.NeedElem.Scale(0.5)
	edited := mustSolve(t, p)
	if edited.Basis.Attachment() == first.Basis.Attachment() {
		t.Fatal("an in-place edit reused the stale reduction")
	}
	cold := mustSolve(t, p.Clone())
	if !edited.Feasible || math.Abs(edited.MinYield-cold.MinYield) > 1e-9 {
		t.Fatalf("edited problem: MinYield %.15g, cold clone %.15g", edited.MinYield, cold.MinYield)
	}
	if edited.MinYield < first.MinYield-1e-9 {
		t.Fatalf("halving a need lowered the bound: %.15g -> %.15g", first.MinYield, edited.MinYield)
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
	if rememberedBasis(ps[0]) != nil {
		t.Fatal("the oldest problem was not evicted")
	}
	for _, p := range ps[1:] {
		if rememberedBasis(p) == nil {
			t.Fatal("a recently solved problem was evicted")
		}
	}
	again := mustSolve(t, ps[0])
	if again.WarmStarted {
		t.Fatal("an evicted problem still warm-started")
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
// solved, the table keeps at most warmTableSize of them (and their tokens)
// reachable once the caller drops them.
func TestTableRetentionBounded(t *testing.T) {
	const n = 4 * warmTableSize
	refs := solveAndDrop(t, n)
	runtime.GC()
	runtime.GC()
	alive := 0
	for _, r := range refs {
		if r.Value() != nil {
			alive++
		}
	}
	if alive > warmTableSize {
		t.Fatalf("%d of %d solved problems still reachable, want at most %d", alive, n, warmTableSize)
	}
}

// solveAndDrop solves n distinct problems and returns only weak pointers to
// them.
func solveAndDrop(t *testing.T, n int) []weak.Pointer[core.Problem] {
	refs := make([]weak.Pointer[core.Problem], n)
	for i := range refs {
		p := workload.Generate(workload.Scenario{Hosts: 4, Services: 16, COV: 0.5, Slack: 0.5, Seed: int64(200 + i)})
		mustSolve(t, p)
		refs[i] = weak.Make(p)
	}
	return refs
}
