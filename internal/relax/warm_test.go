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

// solveHit solves p and reports whether the table answered it: a hit
// leaves p's entry as it was, a miss remembers a new answer in its place.
func solveHit(t *testing.T, p *core.Problem) (*Relaxed, bool) {
	t.Helper()
	before := recall(p).rel
	rel := mustSolve(t, p)
	return rel, before != nil && recall(p).rel == before
}

// TestRepeatSolveIsBitIdenticalHit pins the table's contract on the paper's
// 8x64 relaxations: a second SolveRelaxed of the same *core.Problem is
// answered from memory and returns exactly the bits a cold solve of an
// independent clone returns, infeasible instances included. Under the race
// detector every tenth instance runs.
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
		again, hit := solveHit(t, p)
		if !hit {
			t.Fatalf("%s: repeat solve of an unedited problem missed the table", scn)
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

// editedScenarios is how many 8x64 golden parks the in-place edit tests
// solve, edit and re-solve; under the race detector every tenth runs.
const editedScenarios = 60

// editStep is the stride through the edited parks.
func editStep() int {
	if raceEnabled {
		return 10
	}
	return 1
}

// scaleMax scales, in place, the largest entry of v.
func scaleMax(v []float64, f float64) {
	v[slices.Index(v, slices.Max(v))] *= f
}

// TestInPlaceEditReducesAfresh edits each of 60 8x64 parks in place three
// times — a service's need, a service's requirement, a node's capacity —
// and re-solves it after each edit: every re-solve misses the table and
// returns, bit for bit, what a cold solve of a clone of the edited problem
// returns, so the answer depends on the problem's data alone and not on
// what the pointer held before. The need and requirement edits loosen the
// problem, so they cannot lower the bound.
func TestInPlaceEditReducesAfresh(t *testing.T) {
	edits := []struct {
		name   string
		looser bool
		edit   func(p *core.Problem, i int)
	}{
		{"need", true, func(p *core.Problem, i int) {
			s := &p.Services[i%len(p.Services)]
			for _, v := range [][]float64{s.NeedElem, s.NeedAgg} {
				for d := range v {
					v[d] *= 0.5
				}
			}
		}},
		{"requirement", true, func(p *core.Problem, i int) {
			s := &p.Services[(i+1)%len(p.Services)]
			scaleMax(s.ReqElem, 0.75)
			scaleMax(s.ReqAgg, 0.75)
		}},
		{"capacity", false, func(p *core.Problem, i int) {
			scaleMax(p.Nodes[i%len(p.Nodes)].Aggregate, 0.75)
		}},
	}
	for i := 0; i < editedScenarios; i += editStep() {
		scn := grid.Scenario(i)
		p := workload.Generate(scn)
		prev := mustSolve(t, p)
		for _, e := range edits {
			what := scn.String() + ": " + e.name + " edit"
			e.edit(p, i)
			edited, hit := solveHit(t, p)
			if hit {
				t.Fatalf("%s: answered from memory", what)
			}
			sameBits(t, what+" vs cold clone", edited, mustSolve(t, p.Clone()))
			if e.looser && prev.Feasible && (!edited.Feasible || edited.MinYield < prev.MinYield-1e-9) {
				t.Fatalf("%s: loosening the problem lowered the bound %.15g -> %.15g (feasible %v)",
					what, prev.MinYield, edited.MinYield, edited.Feasible)
			}
			prev = edited
		}
	}
}

// TestMemoMissesOnEdit edits, in place, the largest entry of each vector
// the encoding reads, one vector per fresh problem, on every sixth of the
// edited parks: every edit misses and returns, bit for bit, what a cold
// solve of a clone of the edited problem returns.
func TestMemoMissesOnEdit(t *testing.T) {
	vecs := []struct {
		name string
		vec  func(p *core.Problem, i int) []float64
	}{
		{"ReqElem", func(p *core.Problem, i int) []float64 { return p.Services[i%len(p.Services)].ReqElem }},
		{"ReqAgg", func(p *core.Problem, i int) []float64 { return p.Services[i%len(p.Services)].ReqAgg }},
		{"NeedElem", func(p *core.Problem, i int) []float64 { return p.Services[i%len(p.Services)].NeedElem }},
		{"NeedAgg", func(p *core.Problem, i int) []float64 { return p.Services[i%len(p.Services)].NeedAgg }},
		{"Elementary", func(p *core.Problem, i int) []float64 { return p.Nodes[i%len(p.Nodes)].Elementary }},
		{"Aggregate", func(p *core.Problem, i int) []float64 { return p.Nodes[i%len(p.Nodes)].Aggregate }},
	}
	for i := 0; i < editedScenarios; i += 6 * editStep() {
		scn := grid.Scenario(i)
		for _, tc := range vecs {
			what := scn.String() + ": " + tc.name + " edit"
			p := workload.Generate(scn)
			mustSolve(t, p)
			scaleMax(tc.vec(p, i), 0.75)
			edited, hit := solveHit(t, p)
			if hit {
				t.Fatalf("%s: answered from memory", what)
			}
			sameBits(t, what+" vs cold clone", edited, mustSolve(t, p.Clone()))
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
	again, hit := solveHit(t, ps[0])
	if hit {
		t.Fatal("an evicted problem was still answered from memory")
	}
	sameBits(t, "after eviction", again, rels[0])
}

// TestTableConcurrentUse runs eight goroutines through the table at once,
// each on its own problem and all on one shared problem; every answer must
// be the sequential cold answer bit for bit. Under -race it is the proof
// the table and the answers it hands out are safe to share.
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
