package vp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
)

func node(cpuElem, cpuAgg, mem float64) core.Node {
	return core.Node{Elementary: vec.Of(cpuElem, mem), Aggregate: vec.Of(cpuAgg, mem)}
}

func service(reqCPU, reqMem, needCPU float64) core.Service {
	return core.Service{
		ReqElem:  vec.Of(reqCPU/2, reqMem),
		ReqAgg:   vec.Of(reqCPU, reqMem),
		NeedElem: vec.Of(needCPU/2, 0),
		NeedAgg:  vec.Of(needCPU, 0),
	}
}

func simpleProblem() *core.Problem {
	return &core.Problem{
		Nodes:    []core.Node{node(0.5, 1.0, 1.0), node(0.5, 1.0, 1.0)},
		Services: []core.Service{service(0.1, 0.3, 0.6), service(0.1, 0.3, 0.6)},
	}
}

func TestAllOrdersCount(t *testing.T) {
	if got := len(AllOrders()); got != 11 {
		t.Fatalf("|orders| = %d, want 11", got)
	}
}

func TestOrderSortDirections(t *testing.T) {
	vs := []vec.Vec{vec.Of(0.2, 0.2), vec.Of(0.9, 0.1), vec.Of(0.5, 0.5)}
	asc := Order{Metric: vec.MetricSum}.Sort(vs)
	if asc[0] != 0 || asc[2] != 2 {
		t.Fatalf("asc sum order = %v", asc)
	}
	// Sums are 0.4, 1.0, 1.0: descending puts vector 0 last, and the tie
	// between 1 and 2 is broken stably (1 first).
	desc := Order{Metric: vec.MetricSum, Descending: true}.Sort(vs)
	if desc[0] != 1 || desc[1] != 2 || desc[2] != 0 {
		t.Fatalf("desc sum order = %v", desc)
	}
	none := NoOrder.Sort(vs)
	if none[0] != 0 || none[1] != 1 || none[2] != 2 {
		t.Fatalf("NONE order = %v", none)
	}
}

func TestOrderSortStable(t *testing.T) {
	vs := []vec.Vec{vec.Of(0.5), vec.Of(0.5), vec.Of(0.5)}
	got := Order{Metric: vec.MetricMax, Descending: true}.Sort(vs)
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("ties must preserve natural order: %v", got)
	}
}

func TestInstanceFitsAndPlace(t *testing.T) {
	p := simpleProblem()
	inst := NewInstance(p, 1.0)
	// Item agg at yield 1: (0.7, 0.3).
	if !inst.Fits(0, 0) {
		t.Fatal("item 0 should fit empty bin")
	}
	inst.Place(0, 0)
	if inst.Fits(1, 0) {
		t.Fatal("second item should not fit (CPU 1.4 > 1.0)")
	}
	if !inst.Fits(1, 1) {
		t.Fatal("second item should fit bin 1")
	}
	inst.Place(1, 1)
	if !inst.Done() {
		t.Fatal("all placed")
	}
}

func TestInstanceElementaryFilter(t *testing.T) {
	p := simpleProblem()
	// Shrink node 0's cores so the item's elementary demand fails there.
	p.Nodes[0].Elementary = vec.Of(0.05, 1.0)
	inst := NewInstance(p, 1.0)
	if inst.Fits(0, 0) {
		t.Fatal("elementary filter should reject bin 0")
	}
	if !inst.Fits(0, 1) {
		t.Fatal("bin 1 should accept")
	}
}

func TestPlaceTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	inst := NewInstance(simpleProblem(), 0)
	inst.Place(0, 0)
	inst.Place(0, 1)
}

func TestPackFirstFitSucceedsAtYield1(t *testing.T) {
	p := simpleProblem()
	pl, ok := Pack(p, 1.0, Config{Alg: FirstFit, ItemOrder: NoOrder, BinOrder: NoOrder})
	if !ok {
		t.Fatal("FF should pack at yield 1")
	}
	if pl[0] == pl[1] {
		t.Fatalf("items must spread: %v", pl)
	}
}

func TestPackFailsWhenOverCapacity(t *testing.T) {
	p := simpleProblem()
	p.Services = append(p.Services, service(0.1, 0.9, 0.1)) // mem 0.9 + 0.3 > 1.0 anywhere combined
	p.Services = append(p.Services, service(0.1, 0.9, 0.1))
	_, ok := Pack(p, 1.0, Config{Alg: FirstFit})
	if ok {
		t.Fatal("should fail at yield 1 with four services")
	}
}

func TestBestFitHomogeneousStacks(t *testing.T) {
	p := simpleProblem()
	// At yield 0, items are tiny (0.1 CPU, 0.3 mem): homogeneous BF puts the
	// second item on the fullest bin = where the first went.
	pl, ok := Pack(p, 0, Config{Alg: BestFit})
	if !ok {
		t.Fatal("BF should pack at yield 0")
	}
	if pl[0] != pl[1] {
		t.Fatalf("homogeneous best fit should stack: %v", pl)
	}
}

func TestBestFitHeteroPrefersSmallestRemaining(t *testing.T) {
	p := &core.Problem{
		Nodes:    []core.Node{node(0.5, 2.0, 2.0), node(0.25, 1.0, 1.0)},
		Services: []core.Service{service(0.1, 0.3, 0.0)},
	}
	pl, ok := Pack(p, 0, Config{Alg: BestFit, Hetero: true})
	if !ok {
		t.Fatal("should pack")
	}
	if pl[0] != 1 {
		t.Fatalf("hetero BF should pick the smaller node: %v", pl)
	}
}

func TestPermutationPackComplementsBin(t *testing.T) {
	// One bin, two items: PP should first select the item whose large
	// dimension complements the bin's loaded dimension.
	p := &core.Problem{
		Nodes: []core.Node{{Elementary: vec.Of(1, 1), Aggregate: vec.Of(1, 1)}},
		Services: []core.Service{
			{ // CPU-heavy item
				ReqElem: vec.Of(0.6, 0.1), ReqAgg: vec.Of(0.6, 0.1),
				NeedElem: vec.New(2), NeedAgg: vec.New(2),
			},
			{ // memory-heavy item
				ReqElem: vec.Of(0.1, 0.6), ReqAgg: vec.Of(0.1, 0.6),
				NeedElem: vec.New(2), NeedAgg: vec.New(2),
			},
		},
	}
	pl, ok := Pack(p, 0, Config{Alg: PermutationPack})
	if !ok {
		t.Fatalf("PP should pack both items (loads 0.7, 0.7): %v", pl)
	}
}

func TestChoosePackWindowOneEqualsPermutationPack(t *testing.T) {
	// Paper §3.5.2: with window size 1 PP and CP operate identically.
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 30; iter++ {
		p := randomProblem(rng, 3, 8)
		for _, y := range []float64{0, 0.5} {
			c1 := Config{Alg: PermutationPack, ItemOrder: Order{Metric: vec.MetricSum, Descending: true}, Window: 1}
			c2 := c1
			c2.Alg = ChoosePack
			pl1, ok1 := Pack(p, y, c1)
			pl2, ok2 := Pack(p, y, c2)
			if ok1 != ok2 {
				t.Fatalf("iter %d y=%v: success mismatch PP=%v CP=%v", iter, y, ok1, ok2)
			}
			if ok1 {
				for j := range pl1 {
					if pl1[j] != pl2[j] {
						t.Fatalf("iter %d y=%v: placements differ at %d: %v vs %v", iter, y, j, pl1, pl2)
					}
				}
			}
		}
	}
}

func TestSearchMaxYieldFindsOptimum(t *testing.T) {
	// Single node, single service: yield = (cap - req)/need computable
	// exactly. cap 1.0, req 0.1, need 1.2 -> y* = 0.75.
	p := &core.Problem{
		Nodes:    []core.Node{node(0.5, 1.0, 1.0)},
		Services: []core.Service{service(0.1, 0.3, 1.2)},
	}
	res := Solve(p, Config{Alg: FirstFit}, 1e-4)
	if !res.Solved {
		t.Fatal("should solve")
	}
	if math.Abs(res.MinYield-0.75) > 1e-3 {
		t.Fatalf("yield = %v, want 0.75", res.MinYield)
	}
}

func TestSearchMaxYieldShortCircuitAtOne(t *testing.T) {
	p := simpleProblem()
	calls := 0
	res := SearchMaxYield(p, SearchOptions{Tol: 1e-4}, func(y float64) (core.Placement, bool) {
		calls++
		return Pack(p, y, Config{Alg: FirstFit})
	})
	if !res.Solved || res.MinYield < 1-1e-9 {
		t.Fatalf("yield = %v", res.MinYield)
	}
	if calls != 1 {
		t.Fatalf("expected single call at yield 1, got %d", calls)
	}
}

func TestSearchMaxYieldFailsWhenYieldZeroFails(t *testing.T) {
	p := simpleProblem()
	p.Services[0].ReqAgg = vec.Of(0.1, 9) // cannot ever fit
	res := Solve(p, Config{Alg: FirstFit}, 1e-4)
	if res.Solved {
		t.Fatal("should fail")
	}
}

func TestMetaVPConfigsCount(t *testing.T) {
	if got := len(MetaVPConfigs()); got != 33 {
		t.Fatalf("|METAVP strategies| = %d, want 33", got)
	}
}

func TestMetaVPDominatesEveryMember(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 8; iter++ {
		p := randomProblem(rng, 3, 9)
		meta := MetaVP(p, 1e-3)
		for _, c := range MetaVPConfigs() {
			r := Solve(p, c, 1e-3)
			if r.Solved && !meta.Solved {
				t.Fatalf("iter %d: %v solved but METAVP did not", iter, c)
			}
			if r.Solved && meta.Solved && r.MinYield > meta.MinYield+2e-3 {
				t.Fatalf("iter %d: %v yield %v beats METAVP %v by more than tolerance",
					iter, c, r.MinYield, meta.MinYield)
			}
		}
	}
}

func TestPackedPlacementsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 25; iter++ {
		p := randomProblem(rng, 4, 10)
		for _, alg := range []Algorithm{FirstFit, BestFit, PermutationPack, ChoosePack} {
			c := Config{Alg: alg, ItemOrder: Order{Metric: vec.MetricMax, Descending: true}}
			res := Solve(p, c, 1e-3)
			if !res.Solved {
				continue
			}
			if err := res.Placement.Validate(p); err != nil {
				t.Fatalf("iter %d %v: %v", iter, alg, err)
			}
			if !core.FeasibleAtYield(p, res.Placement, res.MinYield-1e-6) {
				t.Fatalf("iter %d %v: reported yield %v infeasible", iter, alg, res.MinYield)
			}
		}
	}
}

// Property: a packing success at yield y implies the evaluated placement
// achieves at least y.
func TestQuickPackYieldConsistency(t *testing.T) {
	f := func(seed int64, yRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		y := math.Abs(math.Mod(yRaw, 1))
		p := randomProblem(rng, 3, 6)
		pl, ok := Pack(p, y, Config{Alg: FirstFit, ItemOrder: Order{Metric: vec.MetricSum, Descending: true}})
		if !ok {
			return true
		}
		res := core.EvaluatePlacement(p, pl)
		return res.Solved && res.MinYield >= y-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func randomProblem(rng *rand.Rand, h, j int) *core.Problem {
	p := &core.Problem{}
	for i := 0; i < h; i++ {
		cpu := 0.3 + rng.Float64()*0.7
		mem := 0.3 + rng.Float64()*0.7
		p.Nodes = append(p.Nodes, core.Node{
			Elementary: vec.Of(cpu/4, mem),
			Aggregate:  vec.Of(cpu, mem),
		})
	}
	for s := 0; s < j; s++ {
		mem := rng.Float64() * 0.15
		need := rng.Float64() * 0.3
		p.Services = append(p.Services, core.Service{
			ReqElem:  vec.Of(0.01, mem),
			ReqAgg:   vec.Of(0.01, mem),
			NeedElem: vec.Of(need/4, 0),
			NeedAgg:  vec.Of(need, 0),
		})
	}
	return p
}
