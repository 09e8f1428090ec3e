package exp

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"vmalloc/internal/workload"
)

func smallGrid() GridSpec {
	return GridSpec{
		Hosts:    8,
		Services: []int{16},
		COVs:     []float64{0, 0.5},
		Slacks:   []float64{0.5},
		Seeds:    []int64{1, 2},
	}
}

func TestGridSpecScenarios(t *testing.T) {
	g := GridSpec{
		Hosts:    4,
		Services: []int{10, 20},
		COVs:     []float64{0, 1},
		Slacks:   []float64{0.3, 0.6},
		Seeds:    []int64{1, 2, 3},
	}
	scns := g.Scenarios()
	if len(scns) != 2*2*2*3 {
		t.Fatalf("|scenarios| = %d, want 24", len(scns))
	}
}

func TestRunnerProducesCompleteResultSet(t *testing.T) {
	scns := smallGrid().Scenarios()
	algos := []Algo{MetaGreedyAlgo(), MetaHVPLightAlgo(1e-3)}
	rs := (&Runner{Workers: 2}).Run(scns, algos)
	if len(rs.Scenarios) != len(scns) {
		t.Fatalf("scenarios lost: %d", len(rs.Scenarios))
	}
	for _, a := range algos {
		outs := rs.ByAlgo[a.Name]
		if len(outs) != len(scns) {
			t.Fatalf("%s: %d outcomes", a.Name, len(outs))
		}
		for i, o := range outs {
			if o.Solved && (o.MinYield < 0 || o.MinYield > 1) {
				t.Fatalf("%s[%d]: yield %v", a.Name, i, o.MinYield)
			}
		}
	}
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	scns := smallGrid().Scenarios()
	algos := []Algo{MetaHVPLightAlgo(1e-3)}
	a := (&Runner{Workers: 1}).Run(scns, algos)
	b := (&Runner{Workers: 4}).Run(scns, algos)
	for i := range scns {
		oa := a.ByAlgo[NameMetaHVPLight][i]
		ob := b.ByAlgo[NameMetaHVPLight][i]
		if oa.Solved != ob.Solved || math.Abs(oa.MinYield-ob.MinYield) > 1e-12 {
			t.Fatalf("instance %d: (%v,%v) vs (%v,%v)", i, oa.Solved, oa.MinYield, ob.Solved, ob.MinYield)
		}
	}
}

func TestComparePairMetrics(t *testing.T) {
	rs := &ResultSet{
		Scenarios: make([]workload.Scenario, 4),
		ByAlgo: map[string][]Outcome{
			"A": {
				{Solved: true, MinYield: 0.6},
				{Solved: true, MinYield: 0.4},
				{Solved: true, MinYield: 0.5},
				{Solved: false},
			},
			"B": {
				{Solved: true, MinYield: 0.5},
				{Solved: true, MinYield: 0.5},
				{Solved: false},
				{Solved: true, MinYield: 0.9},
			},
		},
	}
	pw := rs.ComparePair("A", "B")
	// Common instances: 0 (+20%) and 1 (-20%) -> YAB = 0.
	if math.Abs(pw.YAB) > 1e-9 {
		t.Fatalf("YAB = %v, want 0", pw.YAB)
	}
	// A-only 1, B-only 1 over 4 instances -> SAB = 0.
	if math.Abs(pw.SAB) > 1e-9 {
		t.Fatalf("SAB = %v, want 0", pw.SAB)
	}
	if pw.Both != 2 || pw.AOnly != 1 || pw.BOnly != 1 {
		t.Fatalf("counts = %+v", pw)
	}
	// Against itself the comparison is clean zero.
	self := rs.ComparePair("A", "A")
	if self.YAB != 0 || self.SAB != 0 {
		t.Fatalf("self comparison = %+v", self)
	}
}

func TestSuccessAndYieldStats(t *testing.T) {
	rs := &ResultSet{
		Scenarios: make([]workload.Scenario, 2),
		ByAlgo: map[string][]Outcome{
			"A": {
				{Solved: true, MinYield: 0.4, Elapsed: time.Second},
				{Solved: false, Elapsed: 3 * time.Second},
			},
		},
	}
	if got := rs.SuccessRate("A"); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("success = %v", got)
	}
	if got := rs.MeanYield("A"); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("mean yield = %v", got)
	}
	if got := rs.MeanRuntime("A"); got != 2*time.Second {
		t.Fatalf("mean runtime = %v", got)
	}
}

func TestYieldDifferenceSeries(t *testing.T) {
	scn := func(cov float64) workload.Scenario { return workload.Scenario{COV: cov} }
	rs := &ResultSet{
		Scenarios: []workload.Scenario{scn(0), scn(0), scn(1)},
		ByAlgo: map[string][]Outcome{
			"A":   {{Solved: true, MinYield: 0.5}, {Solved: true, MinYield: 0.7}, {Solved: true, MinYield: 0.2}},
			"REF": {{Solved: true, MinYield: 0.6}, {Solved: true, MinYield: 0.6}, {Solved: true, MinYield: 0.5}},
		},
	}
	covs, diffs := rs.YieldDifferenceSeries("A", "REF")
	if len(covs) != 2 || covs[0] != 0 || covs[1] != 1 {
		t.Fatalf("covs = %v", covs)
	}
	if math.Abs(diffs[0]-0.0) > 1e-9 { // (-0.1 + 0.1)/2
		t.Fatalf("diff at cov 0 = %v", diffs[0])
	}
	if math.Abs(diffs[1]+0.3) > 1e-9 {
		t.Fatalf("diff at cov 1 = %v", diffs[1])
	}
}

func TestFilter(t *testing.T) {
	scns := smallGrid().Scenarios()
	rs := (&Runner{Workers: 2}).Run(scns, []Algo{MetaGreedyAlgo()})
	sub := rs.Filter(func(s workload.Scenario) bool { return s.COV == 0 })
	if len(sub.Scenarios) != 2 {
		t.Fatalf("filtered %d", len(sub.Scenarios))
	}
	for _, s := range sub.Scenarios {
		if s.COV != 0 {
			t.Fatal("filter leak")
		}
	}
	if len(sub.ByAlgo[NameMetaGreedy]) != 2 {
		t.Fatal("outcomes not filtered")
	}
}

func TestTableRenderings(t *testing.T) {
	scns := smallGrid().Scenarios()
	algos := []Algo{MetaGreedyAlgo(), MetaHVPLightAlgo(1e-3)}
	rs := (&Runner{}).Run(scns, algos)
	t1 := rs.Table1([]string{NameMetaGreedy, NameMetaHVPLight})
	if !strings.Contains(t1, NameMetaGreedy) || !strings.Contains(t1, "%") {
		t.Fatalf("table1:\n%s", t1)
	}
	t2 := rs.Table2([]string{NameMetaGreedy, NameMetaHVPLight})
	if !strings.Contains(t2, "16 tasks") {
		t.Fatalf("table2:\n%s", t2)
	}
	fig := rs.FigureYieldVsCOV([]string{NameMetaGreedy}, NameMetaHVPLight)
	if !strings.Contains(fig, "cov") {
		t.Fatalf("fig:\n%s", fig)
	}
	sum := rs.SuccessSummary([]string{NameMetaGreedy})
	if !strings.Contains(sum, "solved") {
		t.Fatalf("summary:\n%s", sum)
	}
}

func TestErrorExperimentShapes(t *testing.T) {
	e := &ErrorExperiment{
		Scenarios: []workload.Scenario{
			{Hosts: 8, Services: 16, COV: 0.5, Slack: 0.5, Seed: 1},
			{Hosts: 8, Services: 16, COV: 0.5, Slack: 0.5, Seed: 2},
		},
		MaxErrors:  []float64{0, 0.1},
		Thresholds: []float64{0, 0.1},
		Workers:    2,
	}
	curves := e.Run()
	if len(curves) != 2 {
		t.Fatalf("|curves| = %d", len(curves))
	}
	for _, c := range curves {
		if c.Instances == 0 {
			t.Fatal("no instances succeeded")
		}
		if c.Ideal <= 0 || c.Ideal > 1 {
			t.Fatalf("ideal = %v", c.Ideal)
		}
		for th, v := range c.Weight {
			if v < 0 || v > 1 {
				t.Fatalf("weight[%v] = %v", th, v)
			}
		}
	}
	// At zero error with zero threshold, ALLOCWEIGHTS matches the ideal.
	z := curves[0]
	if math.Abs(z.Weight[0]-z.Ideal) > 0.05 {
		t.Fatalf("zero-error weight %v should track ideal %v", z.Weight[0], z.Ideal)
	}
	text := FigureErrorCurves(curves, e.Thresholds)
	if !strings.Contains(text, "zero-knowledge") {
		t.Fatalf("render:\n%s", text)
	}
}

func TestErrorMonotonicityShape(t *testing.T) {
	// The ideal curve must not depend on the error level; check it is
	// constant across max errors for the same scenarios.
	e := &ErrorExperiment{
		Scenarios:  []workload.Scenario{{Hosts: 8, Services: 20, COV: 0.5, Slack: 0.4, Seed: 3}},
		MaxErrors:  []float64{0, 0.2},
		Thresholds: []float64{0},
	}
	curves := e.Run()
	if math.Abs(curves[0].Ideal-curves[1].Ideal) > 1e-12 {
		t.Fatalf("ideal should be error-independent: %v vs %v", curves[0].Ideal, curves[1].Ideal)
	}
}

// The error curves must be the same bits at any worker count: each
// (max error, scenario) cell draws its perturbation from its own seed, and
// the averages fold the cells in index order.
func TestErrorExperimentDeterministicAcrossWorkers(t *testing.T) {
	var scns []workload.Scenario
	for seed := int64(1); seed <= 4; seed++ {
		scns = append(scns, workload.Scenario{Hosts: 8, Services: 20, COV: 0.5, Slack: 0.3 + 0.15*float64(seed), Seed: seed})
	}
	run := func(workers int) []ErrorCurves {
		return (&ErrorExperiment{
			Scenarios:  scns,
			MaxErrors:  []float64{0, 0.1, 0.3},
			Thresholds: []float64{0, 0.1},
			Workers:    workers,
			SeedSalt:   0x5eed,
		}).Run()
	}
	one, many := run(1), run(4*runtime.GOMAXPROCS(0))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, w := range one {
		g := many[i]
		if g.Instances != w.Instances || !same(g.MaxErr, w.MaxErr) || !same(g.Ideal, w.Ideal) ||
			!same(g.ZeroKnowledge, w.ZeroKnowledge) || !same(g.Caps, w.Caps) {
			t.Fatalf("curve %d: %+v at 4xGOMAXPROCS workers vs %+v at 1", i, g, w)
		}
		for th := range w.Weight {
			if !same(g.Weight[th], w.Weight[th]) || !same(g.Equal[th], w.Equal[th]) {
				t.Fatalf("curve %d threshold %v: %+v vs %+v", i, th, g, w)
			}
		}
	}
}

func TestFullRosterOnTinyInstances(t *testing.T) {
	// The LP-based algorithms must run end-to-end on reduced sizes.
	scns := GridSpec{
		Hosts: 4, Services: []int{8}, COVs: []float64{0.5},
		Slacks: []float64{0.6}, Seeds: []int64{1},
	}.Scenarios()
	rs := (&Runner{}).Run(scns, FullRoster(1e-3, 42))
	for _, name := range []string{NameRRND, NameRRNZ, NameMetaGreedy, NameMetaVP, NameMetaHVP} {
		if _, ok := rs.ByAlgo[name]; !ok {
			t.Fatalf("missing %s", name)
		}
	}
	// METAHVP should solve this easy instance.
	if !rs.ByAlgo[NameMetaHVP][0].Solved {
		t.Fatal("METAHVP failed on an easy instance")
	}
}

func TestSuccessBySlack(t *testing.T) {
	scn := func(slack float64) workload.Scenario { return workload.Scenario{Slack: slack} }
	rs := &ResultSet{
		Scenarios: []workload.Scenario{scn(0.1), scn(0.1), scn(0.5), scn(0.5)},
		ByAlgo: map[string][]Outcome{
			"A": {
				{Solved: false}, {Solved: true, MinYield: 0.2},
				{Solved: true, MinYield: 0.6}, {Solved: true, MinYield: 0.7},
			},
		},
	}
	slacks, rates := rs.SuccessBySlack("A")
	if len(slacks) != 2 || slacks[0] != 0.1 || slacks[1] != 0.5 {
		t.Fatalf("slacks = %v", slacks)
	}
	if math.Abs(rates[0]-0.5) > 1e-12 || math.Abs(rates[1]-1.0) > 1e-12 {
		t.Fatalf("rates = %v", rates)
	}
}

// Success rate should not decrease as slack rises (harder -> easier), a
// sanity check of the §4 hardness claim on real sweeps.
func TestHardnessMonotoneOnRealSweep(t *testing.T) {
	grid := GridSpec{
		Hosts: 8, Services: []int{40}, COVs: []float64{0.5},
		Slacks: []float64{0.1, 0.5, 0.9}, Seeds: []int64{1, 2, 3},
	}
	rs := (&Runner{}).Run(grid.Scenarios(), []Algo{MetaHVPLightAlgo(1e-3)})
	_, rates := rs.SuccessBySlack(NameMetaHVPLight)
	for i := 1; i < len(rates); i++ {
		if rates[i] < rates[i-1]-1e-9 {
			t.Fatalf("success rate decreased with slack: %v", rates)
		}
	}
}

// lpGrid is the paper-scale LP tier's grid: 8 hosts, 64 services, the three
// heterogeneities.
func lpGrid() []workload.Scenario {
	return GridSpec{
		Hosts: 8, Services: []int{64}, COVs: []float64{0, 0.5, 1.0},
		Slacks: []float64{0.5}, Seeds: []int64{1, 2},
	}.Scenarios()
}

// sameOutcomes fails unless two sweeps agree bit for bit on every outcome of
// the named algorithms.
func sameOutcomes(t *testing.T, what string, got, want *ResultSet, names []string) {
	t.Helper()
	for _, name := range names {
		for i := range want.ByAlgo[name] {
			g, w := got.ByAlgo[name][i], want.ByAlgo[name][i]
			if g.Solved != w.Solved || math.Float64bits(g.MinYield) != math.Float64bits(w.MinYield) {
				t.Fatalf("%s: %s on scenario %d: %+v vs %+v", what, name, i, g, w)
			}
		}
	}
}

// The LP roster, whose RRNZ reads each instance's relaxation from the answer
// RRND's solve left in relax's table, must give exactly the results of the
// true cold path: every entry on its own independently generated instance,
// which no earlier solve has seen. A hit changes solve time, never bits.
func TestLPRosterMatchesColdRoster(t *testing.T) {
	scns := lpGrid()
	warm := (&Runner{}).Run(scns, LPRoster(7))
	cold := &ResultSet{Scenarios: scns, ByAlgo: map[string][]Outcome{}}
	for _, a := range LPRoster(7) {
		for _, scn := range scns {
			res := a.Run(workload.Generate(scn))
			cold.ByAlgo[a.Name] = append(cold.ByAlgo[a.Name], Outcome{Solved: res.Solved, MinYield: res.MinYield})
		}
	}
	sameOutcomes(t, "warm roster vs cold", warm, cold, []string{NameRRND, NameRRNZ})
}

// The full roster must report the same bits however many workers share the
// relaxation answer table: at four times GOMAXPROCS workers the table may
// evict an instance's answer before its second solve, which costs time only.
func TestFullRosterDeterministicAcrossWorkers(t *testing.T) {
	scns := lpGrid()
	algos := FullRoster(1e-3, 7)
	one := (&Runner{Workers: 1}).Run(scns, algos)
	many := (&Runner{Workers: 4 * runtime.GOMAXPROCS(0)}).Run(scns, algos)
	sameOutcomes(t, "4xGOMAXPROCS workers vs 1", many, one, one.Algos)
}
