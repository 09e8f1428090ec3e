package vp

import (
	"math/rand"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
)

func TestPermutationsLexOrder(t *testing.T) {
	ps := permutations(3)
	if len(ps) != 6 {
		t.Fatalf("|perms(3)| = %d", len(ps))
	}
	want := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for i := range want {
		if !equalInts(ps[i], want[i]) {
			t.Fatalf("perm %d = %v, want %v", i, ps[i], want[i])
		}
	}
}

// The keyed O(J²D) implementation must produce exactly the same placements
// as the naive D!-list reference across random instances (paper §3.5.2
// claims the improvement is behavior-preserving).
func TestKeyedPPMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	io := Order{Metric: vec.MetricSum, Descending: true}
	for iter := 0; iter < 40; iter++ {
		p := randomProblem(rng, 3, 8)
		for _, y := range []float64{0, 0.4, 0.9} {
			fast, okF := NewSolver(p).Pack(y, Config{Alg: PermutationPack, ItemOrder: io, BinOrder: NoOrder})
			slow, okS := PackPermutationNaive(p, y, io, NoOrder)
			if okF != okS {
				t.Fatalf("iter %d y=%v: success mismatch fast=%v naive=%v", iter, y, okF, okS)
			}
			if !okF {
				continue
			}
			for j := range fast {
				if fast[j] != slow[j] {
					t.Fatalf("iter %d y=%v: placement differs at %d: %v vs %v", iter, y, j, fast, slow)
				}
			}
		}
	}
}

// Same check in 4 dimensions, where the D! lists are non-trivial (24 keys).
func TestKeyedPPMatchesNaive4D(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	io := Order{Metric: vec.MetricMax, Descending: true}
	for iter := 0; iter < 15; iter++ {
		p := random4DProblem(rng, 3, 7)
		fast, okF := NewSolver(p).Pack(0, Config{Alg: PermutationPack, ItemOrder: io, BinOrder: NoOrder})
		slow, okS := PackPermutationNaive(p, 0, io, NoOrder)
		if okF != okS {
			t.Fatalf("iter %d: success mismatch fast=%v naive=%v", iter, okF, okS)
		}
		if !okF {
			continue
		}
		for j := range fast {
			if fast[j] != slow[j] {
				t.Fatalf("iter %d: placement differs: %v vs %v", iter, fast, slow)
			}
		}
	}
}

// random4DProblem builds a 4-dimensional instance (e.g. CPU, memory, disk,
// network) exercising the window machinery beyond the paper's 2-D setup.
func random4DProblem(rng *rand.Rand, h, j int) *core.Problem {
	p := &core.Problem{}
	for i := 0; i < h; i++ {
		agg := vec.Of(0.5+rng.Float64(), 0.5+rng.Float64(), 0.5+rng.Float64(), 0.5+rng.Float64())
		p.Nodes = append(p.Nodes, core.Node{Elementary: agg.Clone(), Aggregate: agg})
	}
	for s := 0; s < j; s++ {
		req := vec.Of(rng.Float64()*0.3, rng.Float64()*0.3, rng.Float64()*0.3, rng.Float64()*0.3)
		p.Services = append(p.Services, core.Service{
			ReqElem: req.Clone(), ReqAgg: req,
			NeedElem: vec.New(4), NeedAgg: vec.New(4),
		})
	}
	return p
}

func TestWindowSizeChangesSelection4D(t *testing.T) {
	// With a window of 1 only the top dimension must match; the full window
	// demands complete complementarity. Both must still produce valid
	// packings; they may differ in which bins items land on.
	rng := rand.New(rand.NewSource(16))
	io := Order{Metric: vec.MetricSum, Descending: true}
	for iter := 0; iter < 10; iter++ {
		p := random4DProblem(rng, 3, 8)
		for _, w := range []int{1, 2, 4} {
			pl, ok := NewSolver(p).Pack(0, Config{Alg: PermutationPack, ItemOrder: io, Window: w})
			if !ok {
				continue
			}
			if err := pl.Validate(p); err != nil {
				t.Fatalf("iter %d w=%d: %v", iter, w, err)
			}
		}
	}
}
