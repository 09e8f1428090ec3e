package vp

import (
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/relax"
	"vmalloc/internal/vec"
)

// equivalenceConfigs covers every algorithm, hetero variant and a spread of
// item/bin orders, including the yield-invariant (SUM, LEX, NONE) and
// non-invariant (MAX, MAXRATIO, MAXDIFFERENCE) order caches and sub-D
// windows.
func equivalenceConfigs() []Config {
	descSum := Order{Metric: vec.MetricSum, Descending: true}
	ascLex := Order{Metric: vec.MetricLex}
	descMax := Order{Metric: vec.MetricMax, Descending: true}
	ascRatio := Order{Metric: vec.MetricMaxRatio}
	descDiff := Order{Metric: vec.MetricMaxDifference, Descending: true}
	return []Config{
		{Alg: FirstFit, ItemOrder: NoOrder, BinOrder: NoOrder},
		{Alg: FirstFit, ItemOrder: descSum, BinOrder: ascLex, Hetero: true},
		{Alg: FirstFit, ItemOrder: descMax, BinOrder: descDiff, Hetero: true},
		{Alg: BestFit, ItemOrder: descSum},
		{Alg: BestFit, ItemOrder: ascRatio, Hetero: true},
		{Alg: PermutationPack, ItemOrder: descSum, BinOrder: NoOrder},
		{Alg: PermutationPack, ItemOrder: descMax, BinOrder: ascLex, Hetero: true},
		{Alg: PermutationPack, ItemOrder: descDiff, BinOrder: descMax, Hetero: true, Window: 1},
		{Alg: ChoosePack, ItemOrder: descSum, BinOrder: NoOrder, Window: 1},
		{Alg: ChoosePack, ItemOrder: ascLex, BinOrder: ascRatio, Hetero: true},
	}
}

func placementsEqual(a, b core.Placement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The arena-backed Solver must produce bit-identical placements to the
// retained naive reference for every strategy, across yields probed out of
// order so the per-step caches are exercised through refreshes.
func TestSolverPackMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	yields := []float64{0, 1, 0.5, 0.25, 0.5, 0.75, 0.125}
	for iter := 0; iter < 60; iter++ {
		p := randomProblem(rng, 3+iter%4, 6+iter%9)
		s := NewSolver(p)
		for _, y := range yields {
			for _, c := range equivalenceConfigs() {
				fast, okFast := s.Pack(y, c)
				naive, okNaive := PackNaive(p, y, c)
				if okFast != okNaive {
					t.Fatalf("iter %d y=%v %v: success mismatch solver=%v naive=%v",
						iter, y, c, okFast, okNaive)
				}
				if !placementsEqual(fast, naive) {
					t.Fatalf("iter %d y=%v %v: placements differ:\nsolver %v\nnaive  %v",
						iter, y, c, fast, naive)
				}
			}
		}
	}
}

// MetaConfigs shares one solver across strategies and binary-search steps;
// the probe sequence is identical to the naive meta, so MinYield must agree
// bit-for-bit (asserted to 1e-9 per the acceptance bar) on 100+ instances.
func TestMetaConfigsMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	configs := append(MetaVPConfigs(),
		Config{Alg: FirstFit, ItemOrder: Order{Metric: vec.MetricMax, Descending: true}, BinOrder: Order{Metric: vec.MetricSum}, Hetero: true},
		Config{Alg: BestFit, ItemOrder: Order{Metric: vec.MetricSum, Descending: true}, Hetero: true},
		Config{Alg: PermutationPack, ItemOrder: Order{Metric: vec.MetricSum, Descending: true}, BinOrder: Order{Metric: vec.MetricLex}, Hetero: true},
	)
	for iter := 0; iter < 110; iter++ {
		p := randomProblem(rng, 3+iter%3, 5+iter%8)
		fast := MetaConfigs(p, configs, 1e-3)
		naive := MetaConfigsNaive(p, configs, 1e-3)
		if fast.Solved != naive.Solved {
			t.Fatalf("iter %d: solved mismatch solver=%v naive=%v", iter, fast.Solved, naive.Solved)
		}
		if !fast.Solved {
			continue
		}
		if math.Abs(fast.MinYield-naive.MinYield) > 1e-9 {
			t.Fatalf("iter %d: MinYield solver=%v naive=%v", iter, fast.MinYield, naive.MinYield)
		}
		if !placementsEqual(fast.Placement, naive.Placement) {
			t.Fatalf("iter %d: placements differ:\nsolver %v\nnaive  %v",
				iter, fast.Placement, naive.Placement)
		}
	}
}

// The LP-bracketed search must agree with the naive packing path fed through
// the identical bracket: the bound changes which yields are probed, not what
// each probe decides.
func TestBoundedSearchMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	configs := MetaVPConfigs()
	opts := SearchOptions{Tol: 1e-3, UpperBound: relax.UpperBound}
	for iter := 0; iter < 25; iter++ {
		p := randomProblem(rng, 3, 6+iter%6)
		fast := MetaConfigsSolver(NewSolver(p), configs, opts)
		naive := SearchMaxYield(p, opts, func(y float64) (core.Placement, bool) {
			for _, c := range configs {
				if pl, ok := PackNaive(p, y, c); ok {
					return pl, true
				}
			}
			return nil, false
		})
		if fast.Solved != naive.Solved {
			t.Fatalf("iter %d: solved mismatch solver=%v naive=%v", iter, fast.Solved, naive.Solved)
		}
		if fast.Solved && math.Abs(fast.MinYield-naive.MinYield) > 1e-9 {
			t.Fatalf("iter %d: MinYield solver=%v naive=%v", iter, fast.MinYield, naive.MinYield)
		}
	}
}

// The bracketed search may probe fewer yields but must land within tolerance
// of the classic unbounded search: the LP bound only removes yields that no
// packing can achieve.
func TestBoundedSearchWithinToleranceOfUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	configs := MetaVPConfigs()
	const tol = 1e-3
	for iter := 0; iter < 15; iter++ {
		p := randomProblem(rng, 3, 7)
		plain := MetaConfigs(p, configs, tol)
		bounded := MetaConfigsSolver(NewSolver(p), configs, SearchOptions{Tol: tol, UpperBound: relax.UpperBound})
		if plain.Solved != bounded.Solved {
			t.Fatalf("iter %d: solved mismatch plain=%v bounded=%v", iter, plain.Solved, bounded.Solved)
		}
		if plain.Solved && math.Abs(plain.MinYield-bounded.MinYield) > tol {
			t.Fatalf("iter %d: bounded MinYield %v vs plain %v differs by more than tol",
				iter, bounded.MinYield, plain.MinYield)
		}
	}
}

// An upper bound that errors must leave the classic search untouched.
func TestBoundedSearchBoundErrorFallsBack(t *testing.T) {
	p := simpleProblem()
	c := Config{Alg: FirstFit}
	plain := Solve(p, c, 1e-3)
	bounded := MetaConfigsSolver(NewSolver(p), []Config{c}, SearchOptions{Tol: 1e-3, UpperBound: func(*core.Problem) (float64, error) {
		return 0, errBound
	}})
	if plain.Solved != bounded.Solved || math.Abs(plain.MinYield-bounded.MinYield) > 1e-12 {
		t.Fatalf("plain %+v vs bounded %+v", plain, bounded)
	}
}

type boundErr struct{}

func (boundErr) Error() string { return "bound unavailable" }

var errBound = boundErr{}

// A negative bound (infeasible relaxation) collapses the bracket to the
// single probe y=0.
func TestBoundedSearchNegativeBound(t *testing.T) {
	p := simpleProblem()
	probes := 0
	res := SearchMaxYield(p, SearchOptions{Tol: 1e-4, UpperBound: func(*core.Problem) (float64, error) {
		return -1, nil
	}}, func(y float64) (core.Placement, bool) {
		probes++
		if y != 0 {
			t.Fatalf("probe at y=%v, want only 0", y)
		}
		return Pack(p, y, Config{Alg: FirstFit})
	})
	if probes != 1 {
		t.Fatalf("probes = %d, want 1", probes)
	}
	if !res.Solved {
		t.Fatal("yield-0 packing should still be attempted and succeed")
	}
}

// Steady-state packing must stay within the acceptance bar of <= 2 allocs
// per op (it is 0 in practice once the order caches are warm).
func TestSolverPackAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := randomProblem(rng, 6, 32)
	s := NewSolver(p)
	for _, c := range equivalenceConfigs() {
		s.Pack(0.5, c) // warm the order caches at this yield
	}
	for _, c := range equivalenceConfigs() {
		c := c
		allocs := testing.AllocsPerRun(20, func() {
			s.Pack(0.5, c)
		})
		if allocs > 2 {
			t.Errorf("%v: %v allocs/op, want <= 2", c, allocs)
		}
	}
}

// Refreshing the arena at a new yield must also stay allocation-free once
// every order has been seen (invariant orders skip the re-sort entirely;
// the rest re-sort into cached buffers).
func TestSolverYieldRefreshAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	p := randomProblem(rng, 6, 32)
	s := NewSolver(p)
	c := Config{Alg: FirstFit, ItemOrder: Order{Metric: vec.MetricSum, Descending: true}, BinOrder: Order{Metric: vec.MetricLex}, Hetero: true}
	s.Pack(0.25, c)
	s.Pack(0.75, c)
	y := 0.1
	allocs := testing.AllocsPerRun(20, func() {
		y += 0.01 // force a full instance refresh every run
		s.Pack(y, c)
	})
	if allocs > 2 {
		t.Errorf("yield-refresh Pack: %v allocs/op, want <= 2", allocs)
	}
}

// Yield-invariance detection must only ever fire for SUM/LEX/NONE orders and
// must match a brute-force check across probed yields.
func TestItemOrderYieldInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		p := randomProblem(rng, 3, 9)
		s := NewSolver(p)
		for _, o := range AllOrders() {
			s.Pack(0.3, Config{Alg: FirstFit, ItemOrder: o, BinOrder: NoOrder})
			e := s.itemOrders[o]
			if e == nil {
				t.Fatalf("order %v has no cache entry after Pack", o)
			}
			if e.invariant {
				if !o.None && o.Metric != vec.MetricSum && o.Metric != vec.MetricLex {
					t.Fatalf("order %v wrongly marked yield-invariant", o)
				}
				// Brute force: the cached permutation must equal a fresh sort
				// at arbitrary yields.
				for _, y := range []float64{0, 0.17, 0.5, 0.83, 1} {
					inst := NewInstance(p, y)
					want := o.Sort(inst.ItemAgg)
					for i := range want {
						if e.perm[i] != want[i] {
							t.Fatalf("order %v marked invariant but differs at y=%v: cached %v want %v",
								o, y, e.perm, want)
						}
					}
				}
			}
		}
	}
}

// Large-magnitude problems (capacities in the millions, e.g. memory in KB)
// must not be wrongly pruned by StepFeasible: its summation-error margin is
// relative to the totals, so the meta still matches the naive reference.
func TestMetaConfigsMatchesNaiveAtLargeMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	configs := MetaVPConfigs()
	const scale = 1e6
	for iter := 0; iter < 20; iter++ {
		p := randomProblem(rng, 3+iter%3, 6+iter%6)
		for h := range p.Nodes {
			for d := range p.Nodes[h].Aggregate {
				p.Nodes[h].Aggregate[d] *= scale
				p.Nodes[h].Elementary[d] *= scale
			}
		}
		for j := range p.Services {
			s := &p.Services[j]
			for d := range s.ReqAgg {
				s.ReqAgg[d] *= scale
				s.ReqElem[d] *= scale
				s.NeedAgg[d] *= scale
				s.NeedElem[d] *= scale
			}
		}
		fast := MetaConfigs(p, configs, 1e-3)
		naive := MetaConfigsNaive(p, configs, 1e-3)
		if fast.Solved != naive.Solved {
			t.Fatalf("iter %d: solved mismatch solver=%v naive=%v", iter, fast.Solved, naive.Solved)
		}
		if fast.Solved && math.Abs(fast.MinYield-naive.MinYield) > 1e-9 {
			t.Fatalf("iter %d: MinYield solver=%v naive=%v", iter, fast.MinYield, naive.MinYield)
		}
	}
}

// Regression: computed SUM keys that tie bitwise at both bracket endpoints
// can still differ at interior yields (floating-point rounding breaks exact
// linearity), so such orders must NOT be cached as yield-invariant — the
// cached permutation would diverge from the naive reference mid-search.
func TestYieldInvarianceFloatRoundingCounterexample(t *testing.T) {
	mk := func(req vec.Vec) core.Service {
		return core.Service{
			ReqElem: req.Clone(), ReqAgg: req,
			NeedElem: vec.Of(0.28, 0), NeedAgg: vec.Of(0.56, 0),
		}
	}
	p := &core.Problem{
		Nodes: []core.Node{
			{Elementary: vec.Of(2, 2), Aggregate: vec.Of(2, 2)},
			{Elementary: vec.Of(2, 2), Aggregate: vec.Of(2, 2)},
		},
		Services: []core.Service{
			mk(vec.Of(0.18, 0.25)),
			mk(vec.Of(0.4, 0.02999999999999997)),
		},
	}
	// The two computed sums tie bitwise at y=0 and y=1 but differ at 0.375.
	sumAt := func(j int, y float64) float64 {
		return p.Services[j].AggAt(y).Sum()
	}
	if sumAt(0, 0) != sumAt(1, 0) || sumAt(0, 1) != sumAt(1, 1) {
		t.Skip("construction no longer ties at the endpoints on this platform")
	}
	if sumAt(0, 0.375) == sumAt(1, 0.375) {
		t.Skip("construction no longer splits at y=0.375 on this platform")
	}
	c := Config{Alg: FirstFit, ItemOrder: Order{Metric: vec.MetricSum}, BinOrder: NoOrder}
	s := NewSolver(p)
	for _, y := range []float64{0, 1, 0.375} {
		fast, okFast := s.Pack(y, c)
		naive, okNaive := PackNaive(p, y, c)
		if okFast != okNaive || !placementsEqual(fast, naive) {
			t.Fatalf("y=%v: solver %v (ok=%v) vs naive %v (ok=%v)", y, fast, okFast, naive, okNaive)
		}
	}
	if e := s.itemOrders[c.ItemOrder]; e != nil && e.invariant {
		t.Fatal("endpoint-tied non-identical keys must not be cached as yield-invariant")
	}
}

// Identical services tie at every yield by construction, so a SUM order over
// them may (and should) still be cached as invariant.
func TestYieldInvarianceIdenticalServices(t *testing.T) {
	svc := core.Service{
		ReqElem: vec.Of(0.1, 0.2), ReqAgg: vec.Of(0.2, 0.2),
		NeedElem: vec.Of(0.1, 0), NeedAgg: vec.Of(0.2, 0),
	}
	p := &core.Problem{
		Nodes:    []core.Node{{Elementary: vec.Of(2, 2), Aggregate: vec.Of(2, 2)}},
		Services: []core.Service{svc, svc, svc},
	}
	s := NewSolver(p)
	c := Config{Alg: FirstFit, ItemOrder: Order{Metric: vec.MetricSum, Descending: true}, BinOrder: NoOrder}
	s.Pack(0.5, c)
	e := s.itemOrders[c.ItemOrder]
	if e == nil || !e.invariant {
		t.Fatal("identical services should allow invariant caching")
	}
}

// Clear must leave the instance indistinguishable from a fresh Reset at the
// same yield.
func TestInstanceClearEqualsReset(t *testing.T) {
	p := simpleProblem()
	inst := NewInstance(p, 0.6)
	inst.Place(0, 0)
	inst.Place(1, 1)
	inst.Clear()
	fresh := NewInstance(p, 0.6)
	if inst.Done() || inst.remaining != fresh.remaining {
		t.Fatalf("clear left remaining=%d", inst.remaining)
	}
	for j := range inst.Placement {
		if inst.Placement[j] != core.Unplaced || inst.placed[j] {
			t.Fatalf("service %d still placed after Clear", j)
		}
	}
	for h := range inst.Load {
		for d := range inst.Load[h] {
			if inst.Load[h][d] != 0 {
				t.Fatalf("bin %d load not cleared: %v", h, inst.Load[h])
			}
		}
	}
	for j := range inst.ItemAgg {
		for d := range inst.ItemAgg[j] {
			if inst.ItemAgg[j][d] != fresh.ItemAgg[j][d] || inst.ItemElem[j][d] != fresh.ItemElem[j][d] {
				t.Fatalf("item %d vectors drifted after Clear", j)
			}
		}
	}
}
