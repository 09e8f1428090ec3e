package hvp

import (
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
	"vmalloc/internal/vp"
)

func TestStrategyCounts(t *testing.T) {
	if got := len(Strategies()); got != 253 {
		t.Fatalf("|METAHVP| = %d, want 253", got)
	}
	if got := len(LightStrategies()); got != 60 {
		t.Fatalf("|METAHVPLIGHT| = %d, want 60", got)
	}
}

func TestAllStrategiesAreHetero(t *testing.T) {
	for _, c := range Strategies() {
		if !c.Hetero {
			t.Fatalf("strategy %v not marked heterogeneous", c)
		}
	}
	for _, c := range LightStrategies() {
		if !c.Hetero {
			t.Fatalf("light strategy %v not marked heterogeneous", c)
		}
	}
}

func TestLightIsSubsetOfFull(t *testing.T) {
	full := make(map[string]bool)
	for _, c := range Strategies() {
		full[c.String()] = true
	}
	for _, c := range LightStrategies() {
		if !full[c.String()] {
			t.Fatalf("light strategy %v not in METAHVP set", c)
		}
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
			ReqElem:  vec.Of(0.005, mem),
			ReqAgg:   vec.Of(0.005, mem),
			NeedElem: vec.Of(need/4, 0),
			NeedAgg:  vec.Of(need, 0),
		})
	}
	return p
}

func TestMetaHVPSolvesAndValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	solved := 0
	for iter := 0; iter < 10; iter++ {
		p := randomProblem(rng, 4, 12)
		res := MetaHVP(p, 1e-3)
		if !res.Solved {
			continue
		}
		solved++
		if err := res.Placement.Validate(p); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if res.MinYield < 0 || res.MinYield > 1 {
			t.Fatalf("iter %d: yield %v", iter, res.MinYield)
		}
	}
	if solved == 0 {
		t.Fatal("METAHVP solved nothing across 10 random instances")
	}
}

func TestMetaHVPAtLeastMatchesLight(t *testing.T) {
	// METAHVP tries a strict superset of strategies per binary-search step,
	// so it succeeds whenever METAHVPLIGHT does, with yield no worse than
	// the search tolerance below it.
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 6; iter++ {
		p := randomProblem(rng, 4, 10)
		full := MetaHVP(p, 1e-3)
		light := MetaHVPLight(p, 1e-3)
		if light.Solved && !full.Solved {
			t.Fatalf("iter %d: light solved, full did not", iter)
		}
		if light.Solved && full.Solved && light.MinYield > full.MinYield+2e-3 {
			t.Fatalf("iter %d: light %v > full %v", iter, light.MinYield, full.MinYield)
		}
	}
}

// On a strongly heterogeneous instance, bin-capacity-aware first fit
// (ascending capacity) must beat naive first fit in natural order when the
// natural order lists big nodes first: filling big nodes with small items
// wastes the only homes of big items.
func TestHeteroBinSortingHelps(t *testing.T) {
	p := &core.Problem{}
	// One big node listed first, three small ones.
	big := core.Node{Elementary: vec.Of(1, 2), Aggregate: vec.Of(4, 2)}
	small := core.Node{Elementary: vec.Of(0.5, 0.4), Aggregate: vec.Of(1, 0.4)}
	p.Nodes = []core.Node{big, small, small, small}
	// Three small services then one big service (natural order).
	smallSvc := core.Service{
		ReqElem: vec.Of(0.1, 0.3), ReqAgg: vec.Of(0.1, 0.3),
		NeedElem: vec.Of(0.1, 0), NeedAgg: vec.Of(0.2, 0),
	}
	bigSvc := core.Service{
		ReqElem: vec.Of(0.8, 1.5), ReqAgg: vec.Of(3.0, 1.5),
		NeedElem: vec.Of(0.2, 0), NeedAgg: vec.Of(0.8, 0),
	}
	p.Services = []core.Service{smallSvc, smallSvc, smallSvc, bigSvc}

	naive := vp.NewSolver(p).Pack
	// Natural order at yield 0: smalls land on the big node (first fit),
	// big service still fits? big needs mem 1.5; big node has 2 - 3*0.3 =
	// 1.1 < 1.5 -> fails.
	_, okNaive := naive(0, vp.Config{Alg: vp.FirstFit, ItemOrder: vp.NoOrder, BinOrder: vp.NoOrder})
	if okNaive {
		t.Fatal("naive FF should fail on this construction")
	}
	// Ascending-capacity bins: smalls go to small nodes, big node stays
	// free for the big service.
	_, okSorted := naive(0, vp.Config{
		Alg: vp.FirstFit, Hetero: true,
		BinOrder: vp.Order{Metric: vec.MetricSum},
	})
	if !okSorted {
		t.Fatal("capacity-sorted FF should succeed")
	}
	// And METAHVP, which includes that strategy, must solve it too.
	if res := MetaHVP(p, 1e-3); !res.Solved {
		t.Fatal("METAHVP should solve the instance")
	}
}

// Bin ordering must actually be applied: with ascending-capacity first fit,
// the smallest feasible node receives the first item.
func TestBinOrderApplied(t *testing.T) {
	big := core.Node{Elementary: vec.Of(1, 2), Aggregate: vec.Of(4, 2)}
	small := core.Node{Elementary: vec.Of(0.5, 0.5), Aggregate: vec.Of(1, 0.5)}
	p := &core.Problem{
		Nodes: []core.Node{big, small},
		Services: []core.Service{{
			ReqElem: vec.Of(0.1, 0.2), ReqAgg: vec.Of(0.1, 0.2),
			NeedElem: vec.New(2), NeedAgg: vec.New(2),
		}},
	}
	pl, ok := vp.NewSolver(p).Pack(0, vp.Config{
		Alg: vp.FirstFit, Hetero: true,
		ItemOrder: vp.NoOrder,
		BinOrder:  vp.Order{Metric: vec.MetricSum},
	})
	if !ok || pl[0] != 1 {
		t.Fatalf("ascending bins should pick the small node: %v (ok=%v)", pl, ok)
	}
	pl, ok = vp.NewSolver(p).Pack(0, vp.Config{
		Alg: vp.FirstFit, Hetero: true,
		ItemOrder: vp.NoOrder,
		BinOrder:  vp.Order{Metric: vec.MetricSum, Descending: true},
	})
	if !ok || pl[0] != 0 {
		t.Fatalf("descending bins should pick the big node: %v (ok=%v)", pl, ok)
	}
}

// METAHVP on the paper's Figure 1 instance must place the service on node B
// and reach yield 1, matching the worked example.
func TestMetaHVPFigure1(t *testing.T) {
	p := &core.Problem{
		Nodes: []core.Node{
			{Elementary: vec.Of(0.8, 1.0), Aggregate: vec.Of(3.2, 1.0)},
			{Elementary: vec.Of(1.0, 0.5), Aggregate: vec.Of(2.0, 0.5)},
		},
		Services: []core.Service{{
			ReqElem: vec.Of(0.5, 0.5), ReqAgg: vec.Of(1.0, 0.5),
			NeedElem: vec.Of(0.5, 0.0), NeedAgg: vec.Of(1.0, 0.0),
		}},
	}
	res := MetaHVP(p, 1e-4)
	if !res.Solved || res.Placement[0] != 1 || math.Abs(res.MinYield-1.0) > 1e-9 {
		t.Fatalf("res = %+v", res)
	}
}
