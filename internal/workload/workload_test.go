package workload

import (
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/core"
)

func baseScenario() Scenario {
	return Scenario{Hosts: 16, Services: 40, COV: 0.5, Slack: 0.4, Seed: 1}
}

func TestGenerateShapes(t *testing.T) {
	p := Generate(baseScenario())
	if p.NumNodes() != 16 || p.NumServices() != 40 {
		t.Fatalf("H,J = %d,%d", p.NumNodes(), p.NumServices())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every vector is cut from a shared array, so its capacity must end
	// where it does: an append then copies instead of writing a neighbour.
	for _, n := range p.Nodes {
		for _, v := range [][]float64{n.Elementary, n.Aggregate} {
			if cap(v) != len(v) {
				t.Fatalf("%s: vector of len %d has cap %d", n.Name, len(v), cap(v))
			}
		}
	}
	for _, s := range p.Services {
		for _, v := range [][]float64{s.ReqElem, s.ReqAgg, s.NeedElem, s.NeedAgg} {
			if cap(v) != len(v) {
				t.Fatalf("%s: vector of len %d has cap %d", s.Name, len(v), cap(v))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(baseScenario())
	b := Generate(baseScenario())
	for h := range a.Nodes {
		if a.Nodes[h].Aggregate[CPU] != b.Nodes[h].Aggregate[CPU] {
			t.Fatal("same seed must reproduce the same platform")
		}
	}
	for j := range a.Services {
		if a.Services[j].NeedAgg[CPU] != b.Services[j].NeedAgg[CPU] {
			t.Fatal("same seed must reproduce the same services")
		}
	}
	c := Generate(Scenario{Hosts: 16, Services: 40, COV: 0.5, Slack: 0.4, Seed: 2})
	same := true
	for j := range a.Services {
		if a.Services[j].NeedAgg[CPU] != c.Services[j].NeedAgg[CPU] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestCapacityTruncation(t *testing.T) {
	scn := baseScenario()
	scn.COV = 1.0
	scn.Hosts = 500
	rng := rand.New(rand.NewSource(3))
	for _, n := range Platform(scn, rng) {
		cpu, mem := n.Aggregate[CPU], n.Aggregate[Mem]
		if cpu < CapacityMin || cpu > CapacityMax || mem < CapacityMin || mem > CapacityMax {
			t.Fatalf("capacity out of range: %v", n.Aggregate)
		}
		if math.Abs(n.Elementary[CPU]-cpu/4) > 1e-12 {
			t.Fatalf("not quad-core: %v vs %v", n.Elementary[CPU], cpu)
		}
		if n.Elementary[Mem] != mem {
			t.Fatal("memory should be arbitrarily divisible")
		}
	}
}

func TestHomogeneousPlatformAtZeroCOV(t *testing.T) {
	scn := baseScenario()
	scn.COV = 0
	p := Generate(scn)
	for _, n := range p.Nodes {
		if n.Aggregate[CPU] != CapacityMedian || n.Aggregate[Mem] != CapacityMedian {
			t.Fatalf("COV 0 should be fully homogeneous: %v", n.Aggregate)
		}
	}
}

func TestHeterogeneityModes(t *testing.T) {
	scn := baseScenario()
	scn.COV = 1.0

	scn.Mode = HeteroCPUHomogeneous
	p := Generate(scn)
	memVaries := false
	for _, n := range p.Nodes {
		if n.Aggregate[CPU] != CapacityMedian {
			t.Fatal("CPU should be pinned")
		}
		if n.Aggregate[Mem] != CapacityMedian {
			memVaries = true
		}
	}
	if !memVaries {
		t.Fatal("memory should vary")
	}

	scn.Mode = HeteroMemHomogeneous
	p = Generate(scn)
	cpuVaries := false
	for _, n := range p.Nodes {
		if n.Aggregate[Mem] != CapacityMedian {
			t.Fatal("memory should be pinned")
		}
		if n.Aggregate[CPU] != CapacityMedian {
			cpuVaries = true
		}
	}
	if !cpuVaries {
		t.Fatal("CPU should vary")
	}
}

func TestCPUNeedsNormalized(t *testing.T) {
	p := Generate(baseScenario())
	totalNeed := 0.0
	for j := range p.Services {
		totalNeed += p.Services[j].NeedAgg[CPU]
	}
	totalCap := p.TotalAggregate()[CPU]
	if math.Abs(totalNeed-totalCap) > 1e-9*totalCap {
		t.Fatalf("sum needs %v != sum capacity %v", totalNeed, totalCap)
	}
}

func TestMemorySlackScaling(t *testing.T) {
	for _, slack := range []float64{0.1, 0.5, 0.9} {
		scn := baseScenario()
		scn.Slack = slack
		p := Generate(scn)
		totalReq := 0.0
		for j := range p.Services {
			totalReq += p.Services[j].ReqAgg[Mem]
		}
		totalMem := p.TotalAggregate()[Mem]
		wantUsed := (1 - slack) * totalMem
		if math.Abs(totalReq-wantUsed) > 1e-9*totalMem {
			t.Fatalf("slack %v: memory requirements %v, want %v", slack, totalReq, wantUsed)
		}
	}
}

func TestElementaryCPUNeedIsPerCore(t *testing.T) {
	p := Generate(baseScenario())
	for j := range p.Services {
		s := &p.Services[j]
		// NeedAgg = cores * NeedElem by construction.
		ratio := s.NeedAgg[CPU] / s.NeedElem[CPU]
		rounded := math.Round(ratio)
		if math.Abs(ratio-rounded) > 1e-9 || rounded < 1 || rounded > 8 {
			t.Fatalf("service %d: agg/elem = %v, want integer core count in [1,8]", j, ratio)
		}
		if s.ReqElem[CPU] != DefaultGoogle().ElemCPURequirement {
			t.Fatalf("service %d: elementary CPU requirement should be the common reference", j)
		}
	}
}

func TestSampleCoresDistribution(t *testing.T) {
	g := DefaultGoogle()
	rng := rand.New(rand.NewSource(9))
	counts := map[int]int{}
	n := 20000
	for i := 0; i < n; i++ {
		counts[g.sampleCores(rng)]++
	}
	for i, c := range g.CoreChoices {
		got := float64(counts[c]) / float64(n)
		want := g.CoreWeights[i]
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("core %d frequency %v, want ~%v", c, got, want)
		}
	}
}

func TestSampleMemBounds(t *testing.T) {
	g := DefaultGoogle()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 5000; i++ {
		m := g.sampleMem(rng)
		if m < g.MemMin || m > g.MemMax {
			t.Fatalf("mem %v out of [%v,%v]", m, g.MemMin, g.MemMax)
		}
	}
}

func TestPerturbCPUNeeds(t *testing.T) {
	p := Generate(baseScenario())
	rng := rand.New(rand.NewSource(4))
	maxErr := 0.1
	est := PerturbCPUNeeds(p, maxErr, rng)
	changed := false
	for j := range p.Services {
		tr := p.Services[j].NeedAgg[CPU]
		e := est.Services[j].NeedAgg[CPU]
		if e != tr {
			changed = true
		}
		if e < 0.001-1e-12 {
			t.Fatalf("estimate below floor: %v", e)
		}
		if math.Abs(e-tr) > maxErr+1e-12 && e > 0.001+1e-12 {
			t.Fatalf("service %d: error %v exceeds max %v", j, math.Abs(e-tr), maxErr)
		}
		if est.Services[j].NeedElem[CPU] > est.Services[j].NeedAgg[CPU]+1e-12 {
			t.Fatalf("service %d: elementary estimate exceeds aggregate", j)
		}
	}
	if !changed {
		t.Fatal("perturbation changed nothing")
	}
	// True problem untouched.
	q := Generate(baseScenario())
	for j := range p.Services {
		if p.Services[j].NeedAgg[CPU] != q.Services[j].NeedAgg[CPU] {
			t.Fatal("PerturbCPUNeeds mutated its input")
		}
	}
}

func TestPerturbZeroErrorIsIdentityShaped(t *testing.T) {
	p := Generate(baseScenario())
	rng := rand.New(rand.NewSource(4))
	est := PerturbCPUNeeds(p, 0, rng)
	for j := range p.Services {
		if math.Abs(est.Services[j].NeedAgg[CPU]-p.Services[j].NeedAgg[CPU]) > 1e-12 {
			t.Fatal("zero max error must not change needs")
		}
	}
}

// meanCPUNeed returns the average aggregate CPU need over services, the
// reference quantity the paper uses to express error magnitudes.
func meanCPUNeed(p *core.Problem) float64 {
	if p.NumServices() == 0 {
		return 0
	}
	s := 0.0
	for j := range p.Services {
		s += p.Services[j].NeedAgg[CPU]
	}
	return s / float64(p.NumServices())
}

func TestMeanCPUNeed(t *testing.T) {
	p := Generate(baseScenario())
	m := meanCPUNeed(p)
	// Total need equals total capacity (16 nodes, ~0.5 each with clamping),
	// so the mean per service is total/40.
	want := p.TotalAggregate()[CPU] / 40
	if math.Abs(m-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", m, want)
	}
	if meanCPUNeed(&core.Problem{}) != 0 {
		t.Fatal("empty problem mean should be 0")
	}
}

// The paper reports mean CPU needs of 0.317/0.127/0.063 for 100/250/500
// services on 64 hosts: with needs normalized to total capacity the mean
// scales as H*0.5/J. Check our generator preserves that scaling shape.
func TestMeanNeedScalesInverselyWithServices(t *testing.T) {
	base := Scenario{Hosts: 64, COV: 0.5, Slack: 0.4, Seed: 7}
	var prev float64
	for i, j := range []int{100, 250, 500} {
		scn := base
		scn.Services = j
		m := meanCPUNeed(Generate(scn))
		if i > 0 && m >= prev {
			t.Fatalf("mean need should decrease with service count: %v then %v", prev, m)
		}
		prev = m
	}
}
