// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5–§6) at benchmark-friendly scale, plus the ablation benches called out
// in DESIGN.md. Full-scale regeneration lives in cmd/experiments (-full).
package vmalloc

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"vmalloc/internal/engine"
	"vmalloc/internal/exp"
	"vmalloc/internal/greedy"
	"vmalloc/internal/hvp"
	"vmalloc/internal/journal"
	"vmalloc/internal/lp"
	"vmalloc/internal/milp"
	"vmalloc/internal/obs"
	"vmalloc/internal/platform"
	"vmalloc/internal/presolve"
	"vmalloc/internal/relax"
	"vmalloc/internal/sched"
	"vmalloc/internal/trace"
	"vmalloc/internal/vec"
	"vmalloc/internal/vp"
	"vmalloc/internal/workload"
)

// benchGrid is the reduced instance family shared by the table benches.
func benchGrid(services int) []workload.Scenario {
	return exp.GridSpec{
		Hosts:    8,
		Services: []int{services},
		COVs:     []float64{0, 0.5, 1.0},
		Slacks:   []float64{0.5},
		Seeds:    []int64{1, 2},
	}.Scenarios()
}

// BenchmarkTable1PairwiseComparison regenerates the Table 1 pairwise
// (Y_{A,B}, S_{A,B}) matrix over METAGREEDY/METAVP/METAHVP/METAHVPLIGHT.
func BenchmarkTable1PairwiseComparison(b *testing.B) {
	scns := benchGrid(32)
	names := []string{exp.NameMetaGreedy, exp.NameMetaVP, exp.NameMetaHVP, exp.NameMetaHVPLight}
	for i := 0; i < b.N; i++ {
		rs := (&exp.Runner{}).Run(scns, exp.HeuristicRoster(1e-3))
		_ = rs.Table1(names)
	}
}

// lpPaperGrid is the paper-scale LP tier: well past the reduced sizes the
// dense simplex was limited to (the sparse warm-started revised simplex
// replaces GLPK).
func lpPaperGrid() []workload.Scenario {
	return exp.GridSpec{
		Hosts: 8, Services: []int{64}, COVs: []float64{0, 0.5, 1.0},
		Slacks: []float64{0.5}, Seeds: []int64{1, 2},
	}.Scenarios()
}

// BenchmarkTable1LPRounding regenerates the RRND/RRNZ rows of Table 1 at the
// paper-scale LP tier. RRNZ's relaxation of each instance is RRND's answer,
// remembered in relax's table.
func BenchmarkTable1LPRounding(b *testing.B) {
	scns := lpPaperGrid()
	for i := 0; i < b.N; i++ {
		rs := (&exp.Runner{}).Run(scns, exp.LPRoster(1))
		_ = rs.Table1([]string{exp.NameRRND, exp.NameRRNZ})
	}
}

// BenchmarkRelaxRepeat times one instance of the LP tier the way solve-lp
// runs it: the bound, RRND and RRNZ, three relaxation solves of one 8x64
// problem. Each iteration generates a fresh problem outside the timer, so the
// bound solves cold and both rounding entries are answered from relax's
// table. Run with -benchmem.
func BenchmarkRelaxRepeat(b *testing.B) {
	scns := lpPaperGrid()
	roster := exp.LPRoster(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := workload.Generate(scns[i%len(scns)])
		b.StartTimer()
		if _, err := RelaxedUpperBound(p); err != nil {
			b.Fatal(err)
		}
		for _, a := range roster {
			_ = a.Run(p)
		}
	}
}

// TestRelaxMemoHitAllocs gates what a repeat relaxation solve of an unedited
// problem allocates: it is answered from relax's table with a copy of the
// remembered answer — the Relaxed, E's row headers and one backing array —
// and nothing else.
func TestRelaxMemoHitAllocs(t *testing.T) {
	p := workload.Generate(lpPaperGrid()[2])
	solve := func() {
		if _, err := relax.SolveRelaxed(p); err != nil {
			t.Fatal(err)
		}
	}
	solve() // the miss that fills the table
	if got := testing.AllocsPerRun(20, solve); got > 3 {
		t.Errorf("%.0f allocs per memo hit, want <= 3", got)
	}
}

// BenchmarkLPSolveCheck solves the Eqs. 1–7 relaxations of the paper-scale
// LP grid with the revised simplex and certifies each answer with lp.Check;
// the check sub-benchmark times the certificates alone.
func BenchmarkLPSolveCheck(b *testing.B) {
	var lps []*lp.Problem
	var sols []*lp.Solution
	for _, scn := range lpPaperGrid() {
		p := relax.Encode(workload.Generate(scn)).LP
		sol, err := lp.Simplex{}.SolveWarm(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		lps, sols = append(lps, p), append(sols, sol)
	}
	b.Run("solve+check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range lps {
				sol, err := lp.Simplex{}.SolveWarm(p, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := lp.Check(p, sol); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, p := range lps {
				if _, err := lp.Check(p, sols[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestPaperScaleLPSparseVsDense certifies the revised simplex on the full
// paper-scale LP grid: every relaxation is optimal, and lp.Check accepts
// its X and the weak-duality bound of its duals, which must meet the
// objective to 1e-9 relative. How long solve and certificate take,
// BenchmarkLPSolveCheck measures.
func TestPaperScaleLPSparseVsDense(t *testing.T) {
	for _, scn := range lpPaperGrid() {
		enc := relax.Encode(workload.Generate(scn))
		sol, err := lp.Simplex{}.SolveWarm(enc.LP, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("%+v: status %v", scn, sol.Status)
		}
		bound, err := lp.Check(enc.LP, sol)
		if err != nil {
			t.Fatalf("%+v: %v", scn, err)
		}
		if math.Abs(bound-sol.Objective) > 1e-9*(1+math.Abs(sol.Objective)) {
			t.Fatalf("%+v: dual bound %v, objective %v", scn, bound, sol.Objective)
		}
	}
}

// BenchmarkLPRosterPresolve times the cold relaxation solves of the
// paper-scale RRND/RRNZ roster, one per 8x64 relaxation, through the plain
// sparse simplex and through the presolving solve relax runs, on the same
// encoded relaxations. The presolve sub-bench's edge is
// the reduction pipeline's payoff — Eq. 3/Eq. 7 substitutions eliminate
// every phase-1 artificial, so reduced models solve in a single phase.
func BenchmarkLPRosterPresolve(b *testing.B) {
	var lps []*lp.Problem
	for _, scn := range lpPaperGrid() {
		lps = append(lps, relax.Encode(workload.Generate(scn)).LP)
	}
	for _, tc := range []struct {
		name  string
		solve func(*lp.Problem, *lp.Basis) (*lp.Solution, error)
	}{
		{"simplex", lp.Simplex{}.SolveWarm},
		{"presolve", func(p *lp.Problem, _ *lp.Basis) (*lp.Solution, error) { return presolve.Solve(p) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range lps {
					if _, err := tc.solve(p, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestLPRosterPresolveMatchesSimplex checks the presolve tier on the
// paper-scale (8 hosts x 64 services) LP grid: the presolving solve must
// reach the plain simplex's optimal objective on every relaxation to 1e-9
// (the optimal vertex may differ — these degenerate LPs have alternative
// optima — so the rounded roster yields are not compared). How much faster
// the presolved solves run, BenchmarkLPRosterPresolve measures.
func TestLPRosterPresolveMatchesSimplex(t *testing.T) {
	for i, scn := range lpPaperGrid() {
		enc := relax.Encode(workload.Generate(scn))
		plainSol, err := lp.Simplex{}.SolveWarm(enc.LP, nil)
		if err != nil {
			t.Fatal(err)
		}
		preSol, err := presolve.Solve(enc.LP)
		if err != nil {
			t.Fatal(err)
		}
		if plainSol.Status != preSol.Status {
			t.Fatalf("scenario %d: status %v (simplex) vs %v (presolve)", i, plainSol.Status, preSol.Status)
		}
		if plainSol.Status != lp.Optimal {
			continue
		}
		if math.Abs(plainSol.Objective-preSol.Objective) > 1e-9*(1+math.Abs(plainSol.Objective)) {
			t.Fatalf("scenario %d: objective %v (simplex) vs %v (presolve)", i, plainSol.Objective, preSol.Objective)
		}
	}
}

// presolveBenchInputs returns the two shapes the presolve goldens pin: a
// paper-scale 8x64 relaxation, the reduction every relaxation solve pays
// for, and a 3x8 branch-and-bound node (two placements branched to 0, one to
// 1).
func presolveBenchInputs() (relaxed, child *lp.Problem) {
	relaxed = relax.Encode(workload.Generate(lpPaperGrid()[2])).LP

	enc := relax.Encode(workload.Generate(workload.Scenario{Hosts: 3, Services: 8, COV: 0.5, Slack: 0.5, Seed: 1}))
	q := *enc.LP
	q.Upper = append([]float64(nil), enc.LP.Upper...)
	q.Lower = make([]float64, q.NumVars())
	q.Upper[enc.EVar(0, 0)], q.Upper[enc.EVar(1, 2)] = 0, 0
	q.Lower[enc.EVar(2, 1)] = 1
	return relaxed, &q
}

// BenchmarkPresolveReduce times the reducer alone on the two production
// shapes; run with -benchmem, B/op and allocs/op are what is left after the
// pooled scratch: the Reduction itself and the reduced model.
func BenchmarkPresolveReduce(b *testing.B) {
	relaxed, child := presolveBenchInputs()
	run := func(p *lp.Problem) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := presolve.Reduce(p, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("relax8x64", run(relaxed))
	b.Run("milpchild3x8", run(child))
}

// TestPresolveReduceAllocs gates the allocation count of a warmed-up Reduce:
// what a reduction allocates is what it returns (the Reduction, its postsolve
// records and maps, the reduced model), a number that does not grow with the
// 512 eliminations a paper-scale relaxation performs.
func TestPresolveReduceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	relaxed, child := presolveBenchInputs()
	for _, tc := range []struct {
		name string
		p    *lp.Problem
		max  float64
	}{
		{"relax8x64", relaxed, 32},
		{"milpchild3x8", child, 32},
	} {
		reduce := func() {
			if _, err := presolve.Reduce(tc.p, nil); err != nil {
				t.Fatal(err)
			}
		}
		reduce() // warm the scratch pool
		if got := testing.AllocsPerRun(20, reduce); got > tc.max {
			t.Errorf("%s: %.0f allocs per warmed-up Reduce, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// TestEncodeAllocs gates the allocation count of relax.Encode on a
// paper-scale 8x64 problem: the model's rows are walked once to size every
// array and once to fill it, so the count does not grow with the 3,648
// entries of the matrix — eight allocations: the Encoding, the Problem and
// CSC headers, the column starts, the row indices, senses, one block for
// values, right-hand side, objective and bounds, and the scratch of
// demanded dimensions.
func TestEncodeAllocs(t *testing.T) {
	p := workload.Generate(lpPaperGrid()[2])
	encode := func() { relax.Encode(p) }
	encode()
	if got := testing.AllocsPerRun(20, encode); got > 10 {
		t.Errorf("%.0f allocs per Encode, want <= 10", got)
	}
}

// TestGenerateAllocs gates, in counts, what seeding a stream, drawing an
// instance and copying one allocate. A drawn instance takes one array for all
// node vectors and one for all service vectors, one string of names per set
// and a recycled random source, so its count does not grow with its size; a
// copy takes one array per service and per node.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	small := workload.Scenario{Hosts: 8, Services: 64, COV: 0.5, Slack: 0.5, Seed: 1}
	large := workload.Scenario{Hosts: 64, Services: 512, COV: 0.5, Slack: 0.5, Seed: 1}
	p := workload.Generate(small)
	for _, tc := range []struct {
		name string
		run  func()
		max  float64
	}{
		{"NewRand", func() { workload.NewRand(1) }, 2},
		{"Generate8x64", func() { workload.Generate(small) }, 20},
		{"Generate64x512", func() { workload.Generate(large) }, 20},
		{"Clone8x64", func() { p.Clone() }, 6},
	} {
		tc.run() // warm the source pool
		if got := testing.AllocsPerRun(20, tc.run); got > tc.max {
			t.Errorf("%s: %.0f allocs, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// simplexBenchInputs returns the two shapes the simplex is paid for in
// production: the reduced model of a paper-scale 8x64 relaxation (what a
// cold relaxation solve hands the simplex after presolve), and an exact 3x8
// placement MILP, whose branch and bound runs every node on one workspace.
func simplexBenchInputs(tb testing.TB) (reduced *lp.Problem, exact *milp.Problem) {
	tb.Helper()
	relaxed, _ := presolveBenchInputs()
	red, err := presolve.Reduce(relaxed, nil)
	if err != nil || red.Outcome() != presolve.Reduced {
		tb.Fatalf("reduce: %v (outcome %v)", err, red.Outcome())
	}
	enc := relax.Encode(workload.Generate(workload.Scenario{Hosts: 3, Services: 8, COV: 0.5, Slack: 0.5, Seed: 1}))
	bins := make([]int, 0, enc.J*enc.H)
	for j := 0; j < enc.J; j++ {
		for h := 0; h < enc.H; h++ {
			bins = append(bins, enc.EVar(j, h))
		}
	}
	return red.Problem(), &milp.Problem{LP: *enc.LP, Binary: bins}
}

// BenchmarkSimplex times a cold simplex solve of the reduced 8x64 model and
// an exact 3x8 branch and bound; run with -benchmem, allocs/op is what a
// solve allocates on a warmed-up workspace (TestSimplexAllocs gates it).
func BenchmarkSimplex(b *testing.B) {
	reduced, exact := simplexBenchInputs(b)
	b.Run("cold8x64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (lp.Simplex{}).SolveWarm(reduced, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("milp3x8", func(b *testing.B) {
		b.ReportAllocs()
		nodes := 0
		for i := 0; i < b.N; i++ {
			sol, err := milp.Solve(exact, nil)
			if err != nil {
				b.Fatal(err)
			}
			nodes = sol.Nodes
		}
		b.ReportMetric(float64(nodes), "nodes/op")
	})
}

// TestSimplexAllocs gates what the simplex allocates, in counts: a cold
// solve of the reduced 8x64 model on a warmed-up pooled workspace allocates
// the Solution it returns and nothing else — three allocations, see
// revised.result; every arena grows once per workspace, never per solve —
// and branch and bound allocates a bounded handful per node (the node, and
// for a node that branches the Solution and basis its children start from).
// Branch and bound runs on one goroutine and one workspace, so the count
// does not depend on GOMAXPROCS, which AllocsPerRun pins to 1.
func TestSimplexAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	reduced, exact := simplexBenchInputs(t)
	cold := func() {
		if _, err := (lp.Simplex{}).SolveWarm(reduced, nil); err != nil {
			t.Fatal(err)
		}
	}
	cold() // warm the workspace pool
	if got := testing.AllocsPerRun(20, cold); got > 3 {
		t.Errorf("cold8x64: %.0f allocs per warmed-up solve, want <= 3", got)
	}
	nodes := 0
	tree := func() {
		sol, err := milp.Solve(exact, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = sol.Nodes
	}
	tree()
	if got := testing.AllocsPerRun(5, tree) / float64(nodes); got > 8 {
		t.Errorf("milp3x8: %.1f allocs per node over %d nodes, want <= 8", got, nodes)
	}
}

// BenchmarkTable2Runtimes times each Table 2 algorithm on one representative
// instance per service count, the quantity the paper reports in seconds.
func BenchmarkTable2Runtimes(b *testing.B) {
	for _, services := range []int{25, 50, 100} {
		p := workload.Generate(workload.Scenario{
			Hosts: 8, Services: services, COV: 0.5, Slack: 0.5, Seed: 1,
		})
		for _, algo := range exp.HeuristicRoster(1e-3) {
			b.Run(fmt.Sprintf("%s/%dtasks", algo.Name, services), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = algo.Run(p)
				}
			})
		}
	}
}

// figBench runs the Figures 2–4 series (yield difference from METAHVP vs
// COV) for the given heterogeneity mode.
func figBench(b *testing.B, mode workload.HeterogeneityMode) {
	scns := exp.GridSpec{
		Hosts: 8, Services: []int{40},
		COVs: []float64{0, 0.3, 0.6, 0.9}, Slacks: []float64{0.3},
		Seeds: []int64{1, 2}, Mode: mode,
	}.Scenarios()
	names := []string{exp.NameMetaGreedy, exp.NameMetaVP}
	for i := 0; i < b.N; i++ {
		rs := (&exp.Runner{}).Run(scns, exp.HeuristicRoster(1e-3))
		_ = rs.FigureYieldVsCOV(names, exp.NameMetaHVP)
	}
}

// BenchmarkFig2YieldVsCOV regenerates the Figure 2 series (fully
// heterogeneous platforms; the appendix figures 8–34 vary slack/services).
func BenchmarkFig2YieldVsCOV(b *testing.B) { figBench(b, workload.HeteroBoth) }

// BenchmarkFig3CPUHomogeneous regenerates Figure 3 (CPU held homogeneous).
func BenchmarkFig3CPUHomogeneous(b *testing.B) { figBench(b, workload.HeteroCPUHomogeneous) }

// BenchmarkFig4MemHomogeneous regenerates Figure 4 (memory held homogeneous).
func BenchmarkFig4MemHomogeneous(b *testing.B) { figBench(b, workload.HeteroMemHomogeneous) }

// errBench runs the Figures 5–7 error-mitigation series at the given service
// count (the appendix figures 35–66 vary slack and COV).
func errBench(b *testing.B, services int) {
	e := &exp.ErrorExperiment{
		Scenarios: []workload.Scenario{
			{Hosts: 8, Services: services, COV: 0.5, Slack: 0.4, Seed: 1},
			{Hosts: 8, Services: services, COV: 0.5, Slack: 0.4, Seed: 2},
		},
		MaxErrors:  []float64{0, 0.1, 0.3},
		Thresholds: []float64{0, 0.1, 0.3},
		SeedSalt:   0x5eed,
	}
	for i := 0; i < b.N; i++ {
		curves := e.Run()
		_ = exp.FigureErrorCurves(curves, e.Thresholds)
	}
}

// BenchmarkFig5ErrorMitigation100 regenerates the Figure 5 series (smallest
// service count: few large services).
func BenchmarkFig5ErrorMitigation100(b *testing.B) { errBench(b, 16) }

// BenchmarkFig6ErrorMitigation250 regenerates the Figure 6 series.
func BenchmarkFig6ErrorMitigation250(b *testing.B) { errBench(b, 40) }

// BenchmarkFig7ErrorMitigation500 regenerates the Figure 7 series (many
// small services).
func BenchmarkFig7ErrorMitigation500(b *testing.B) { errBench(b, 80) }

// vpPaperProblem is the paper-scale heuristic-tier instance: 16 hosts and
// 128 services puts it above the largest service count the paper times in
// Table 2.
func vpPaperProblem() *Problem {
	return workload.Generate(workload.Scenario{
		Hosts: 16, Services: 128, COV: 0.5, Slack: 0.4, Seed: 1,
	})
}

// BenchmarkMetaHeuristicsPaperScale times the full meta-heuristic roster on
// the paper-scale instance with allocation reporting.
func BenchmarkMetaHeuristicsPaperScale(b *testing.B) {
	p := vpPaperProblem()
	runs := []struct {
		name string
		run  func()
	}{
		{"METAVP", func() { _ = vp.MetaVP(p, 1e-3) }},
		{"METAHVP", func() { _ = hvp.MetaHVP(p, 1e-3) }},
		{"METAHVPLIGHT", func() { _ = hvp.MetaHVPLight(p, 1e-3) }},
		{"METAGREEDY", func() { _ = greedy.MetaGreedy(p, false) }},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.run()
			}
		})
	}
}

// BenchmarkSolverPackPaperScale measures one steady-state Pack per strategy
// family on a warm solver arena: the allocs/op column is the acceptance bar
// (<= 2; 0 in practice).
func BenchmarkSolverPackPaperScale(b *testing.B) {
	p := vpPaperProblem()
	io := vp.Order{Metric: vec.MetricSum, Descending: true}
	bo := vp.Order{Metric: vec.MetricLex}
	for _, tc := range []struct {
		name string
		c    vp.Config
	}{
		{"FF", vp.Config{Alg: vp.FirstFit, ItemOrder: io, BinOrder: bo, Hetero: true}},
		{"BF", vp.Config{Alg: vp.BestFit, ItemOrder: io, Hetero: true}},
		{"PP", vp.Config{Alg: vp.PermutationPack, ItemOrder: io, BinOrder: bo, Hetero: true}},
		{"CP", vp.Config{Alg: vp.ChoosePack, ItemOrder: io, BinOrder: bo, Hetero: true, Window: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := vp.NewSolver(p)
			s.Pack(0.5, tc.c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = s.Pack(0.5, tc.c)
			}
		})
	}
}

// TestPaperScaleMetaHVPSpeedup pins the tentpole acceptance criteria: on the
// paper-scale instance the arena-backed METAHVP must (a) agree bit-for-bit
// with the retained naive reference — same probe sequence, identical
// MinYield — and (b) run at least 5x faster. The timing half is skipped in
// -short mode and under the race detector, where instrumentation makes
// wall-clock assertions flaky.
func TestPaperScaleMetaHVPSpeedup(t *testing.T) {
	p := vpPaperProblem()
	configs := hvp.Strategies()
	timing := !testing.Short() && !raceEnabled

	// Min of three runs per side (the standard noise-robust estimator, so a
	// transient scheduler hiccup cannot flake the ratio assertion) — but only
	// when the timing assertion will actually run; the equivalence half
	// needs one run per side.
	runs := 1
	if timing {
		runs = 3
	}
	timeBest := func(f func() *Result) (*Result, time.Duration) {
		var res *Result
		best := time.Duration(math.MaxInt64)
		for i := 0; i < runs; i++ {
			start := time.Now()
			res = f()
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return res, best
	}
	fast, fastElapsed := timeBest(func() *Result { return vp.MetaConfigs(p, configs, 1e-3) })
	naive, naiveElapsed := timeBest(func() *Result { return vp.MetaConfigsNaive(p, configs, 1e-3) })

	if fast.Solved != naive.Solved {
		t.Fatalf("solved mismatch: solver=%v naive=%v", fast.Solved, naive.Solved)
	}
	if fast.Solved && math.Abs(fast.MinYield-naive.MinYield) > 1e-9 {
		t.Fatalf("MinYield solver=%v naive=%v", fast.MinYield, naive.MinYield)
	}
	if !timing {
		return
	}
	speedup := float64(naiveElapsed) / float64(fastElapsed)
	t.Logf("METAHVP paper scale: naive %v, arena %v (%.1fx)", naiveElapsed, fastElapsed, speedup)
	if speedup < 5 {
		t.Fatalf("arena METAHVP only %.1fx faster than the naive reference (naive %v, arena %v), want >= 5x",
			speedup, naiveElapsed, fastElapsed)
	}
}

// BenchmarkMetaHVPLightSpeedup reproduces the §5.1 run-time comparison:
// METAHVP vs METAHVPLIGHT on the same instance (512×2000 in the paper,
// reduced here).
func BenchmarkMetaHVPLightSpeedup(b *testing.B) {
	p := workload.Generate(workload.Scenario{
		Hosts: 16, Services: 120, COV: 0.5, Slack: 0.4, Seed: 1,
	})
	b.Run("METAHVP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = hvp.MetaHVP(p, 1e-3)
		}
	})
	b.Run("METAHVPLIGHT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = hvp.MetaHVPLight(p, 1e-3)
		}
	})
}

// BenchmarkTheorem1TightInstance evaluates EQUALWEIGHTS on the tight
// instance of Theorem 1 (n_1 = 1, n_j = 1/J).
func BenchmarkTheorem1TightInstance(b *testing.B) {
	const J = 64
	needs := make([]float64, J)
	needs[0] = 1
	for j := 1; j < J; j++ {
		needs[j] = 1.0 / J
	}
	nc := &sched.NodeCPU{
		Capacity: 1, Req: make([]float64, J),
		Estimated: make([]float64, J), TrueNeed: needs,
	}
	for i := 0; i < b.N; i++ {
		_ = nc.MinYield(sched.EqualWeights)
	}
}

// BenchmarkMILPvsHeuristics reproduces the §3.2 workflow on a tiny
// instance: the exact optimum (EXACT's search over placements, and branch
// and bound on the encoded MILP, its test oracle), its rational upper bound,
// and the METAHVP approximation.
func BenchmarkMILPvsHeuristics(b *testing.B) {
	p := workload.Generate(workload.Scenario{
		Hosts: 3, Services: 6, COV: 0.5, Slack: 0.6, Seed: 1,
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relax.SolveExact(p, &milp.Options{MaxNodes: 5000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("milp", func(b *testing.B) {
		enc := relax.Encode(p)
		mp := &milp.Problem{LP: *enc.LP}
		for j := 0; j < enc.J; j++ {
			for h := 0; h < enc.H; h++ {
				mp.Binary = append(mp.Binary, enc.EVar(j, h))
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sol, err := milp.Solve(mp, &milp.Options{MaxNodes: 5000}); err != nil || sol.Status != milp.Optimal {
				b.Fatalf("status %v, error %v", sol.Status, err)
			}
		}
	})
	b.Run("relaxation-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relax.UpperBound(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("METAHVP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = hvp.MetaHVP(p, 1e-3)
		}
	})
}

// BenchmarkAblationPPKeyMapping compares the paper's improved O(J²D)
// Permutation-Pack against the naive Leinberger D!-list reference. The gap
// appears with dimension count (D! candidate keys to probe), so the bench
// uses a 4-resource instance (24 keys) as well as the paper's 2-D case.
func BenchmarkAblationPPKeyMapping(b *testing.B) {
	p2 := workload.Generate(workload.Scenario{
		Hosts: 8, Services: 64, COV: 0.5, Slack: 0.5, Seed: 1,
	})
	p4 := fourDimProblem(8, 64)
	io := vp.Order{Metric: vec.MetricSum, Descending: true}
	for _, tc := range []struct {
		name string
		p    *Problem
		y    float64
	}{{"D=2", p2, 0.5}, {"D=4", p4, 0}} {
		b.Run("keyed/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = vp.NewSolver(tc.p).Pack(tc.y, vp.Config{Alg: vp.PermutationPack, ItemOrder: io, BinOrder: vp.NoOrder})
			}
		})
		b.Run("naive/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = vp.PackPermutationNaive(tc.p, tc.y, io, vp.NoOrder)
			}
		})
	}
}

// BenchmarkAblationWindowSize varies the Permutation-Pack window on a
// 4-dimensional instance, where windows smaller than D actually prune the
// key comparison.
func BenchmarkAblationWindowSize(b *testing.B) {
	p := fourDimProblem(8, 64)
	io := vp.Order{Metric: vec.MetricSum, Descending: true}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = vp.NewSolver(p).Pack(0, vp.Config{Alg: vp.PermutationPack, ItemOrder: io, Window: w})
			}
		})
	}
}

// BenchmarkAblationYieldTolerance varies the binary-search tolerance around
// the paper's 1e-4 default.
func BenchmarkAblationYieldTolerance(b *testing.B) {
	p := workload.Generate(workload.Scenario{
		Hosts: 8, Services: 48, COV: 0.5, Slack: 0.5, Seed: 1,
	})
	for _, tol := range []float64{1e-2, 1e-3, 1e-4} {
		b.Run(fmt.Sprintf("tol=%g", tol), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = hvp.MetaHVPLight(p, tol)
			}
		})
	}
}

// BenchmarkPlatformSimulation runs the §8 dynamic hosting simulation (the
// platform package) for a short horizon with METAHVPLIGHT reallocation and
// the adaptive threshold controller.
func BenchmarkPlatformSimulation(b *testing.B) {
	nodes := workload.Platform(workload.Scenario{Hosts: 8, COV: 0.5, Seed: 1},
		randNew(1))
	cfg := platform.Config{
		Nodes:        nodes,
		ArrivalRate:  2,
		MeanLifetime: 5,
		Horizon:      30,
		Epoch:        3,
		MaxErr:       0.2,
		Threshold:    platform.AdaptiveThreshold,
		Seed:         1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := platform.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// steadyEngine builds a one-domain engine at the acceptance-criteria steady
// state — the 16-host platform hosting the ~80 services a rate-8 /
// lifetime-10 arrival process sustains — and warms it with one
// reallocation. The service stream is seeded, so every variant sees the
// identical history (their placers are result-identical by construction).
// A nil placer selects the engine's own persistent solvers.
func steadyEngine(tb testing.TB, placer engine.Placer) (*engine.Engine, *rand.Rand, []int) {
	tb.Helper()
	nodes := workload.Platform(workload.Scenario{
		Hosts: 16, COV: 0.5, Mode: workload.HeteroBoth, Seed: 1,
	}, randNew(1))
	e, err := engine.New(engine.Config{Nodes: nodes, Placer: placer, Workers: engine.DomainWorkers(1), Now: time.Now})
	if err != nil {
		tb.Fatal(err)
	}
	totalCPU := 0.0
	for _, n := range nodes {
		totalCPU += n.Aggregate[0]
	}
	rng := randNew(7)
	meanNeed := 0.7 * totalCPU / 80
	var ids []int
	for len(ids) < 80 {
		svc := steadyService(rng, meanNeed)
		if id, _, ok := e.Add(svc, svc); ok {
			ids = append(ids, id)
		}
	}
	if ep := e.Reallocate(); !ep.Result.Solved {
		tb.Fatal("steady-state warmup epoch failed")
	}
	return e, rng, ids
}

// steadyService draws one service sized for the steady-state benchmark.
func steadyService(rng *rand.Rand, meanNeed float64) Service {
	mem := math.Exp(rng.NormFloat64()*0.8-3.0) * 0.5
	if mem < 0.001 {
		mem = 0.001
	}
	need := meanNeed * (0.5 + rng.Float64())
	return Service{
		ReqElem: Of(0.01, mem), ReqAgg: Of(0.01, mem),
		NeedElem: Of(need/4, 0), NeedAgg: Of(need, 0),
	}
}

// churnEngine departs k seeded-random services and admits k fresh ones —
// one inter-epoch interval of the steady-state arrival process.
func churnEngine(e *engine.Engine, rng *rand.Rand, ids []int, k int, meanNeed float64) []int {
	for i := 0; i < k && len(ids) > 0; i++ {
		j := rng.Intn(len(ids))
		e.Remove(ids[j])
		ids = append(ids[:j], ids[j+1:]...)
	}
	for i := 0; i < k; i++ {
		svc := steadyService(rng, meanNeed)
		if id, _, ok := e.Add(svc, svc); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// BenchmarkEngineEpochRealloc measures one steady-state epoch (churn of 4
// services + full reallocation) at the acceptance scale: 16 hosts, ~80 live
// services. "rebuild" is the rebuild-per-epoch baseline (a fresh
// METAHVPLIGHT solver each epoch — the pre-engine hot path, wired in as the
// engine's Placer), "engine" the persistent engine on its GOMAXPROCS
// workers. Both compute bit-identical placements, so the engine/rebuild
// ratio of ns/op and allocs/op is the arena-reuse win plus whatever the
// cores add.
func BenchmarkEngineEpochRealloc(b *testing.B) {
	for _, tc := range []struct {
		name   string
		placer engine.Placer
	}{
		{"rebuild", func(p *Problem) *Result { return hvp.MetaHVPLight(p, 0) }},
		{"engine", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e, rng, ids := steadyEngine(b, tc.placer)
			meanNeed := 0.7 * 16.0 / 80 // matches steadyEngine sizing closely enough for churn
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids = churnEngine(e, rng, ids, 4, meanNeed)
				if ep := e.Reallocate(); !ep.Result.Solved {
					b.Fatal("epoch failed")
				}
			}
		})
	}
}

// shardedBenchCluster builds a K-shard cluster at the sharded-tier
// acceptance scale — 64 hosts, 512 live services — and returns the live
// ids.
func shardedBenchCluster(tb testing.TB, shards int) (*Cluster, *rand.Rand, []int) {
	tb.Helper()
	c, err := NewShardedCluster(clusterNodes(64), &ShardedOptions{Shards: shards, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ids := make([]int, 0, 512)
	for len(ids) < 512 {
		id, ok, err := c.Add(clusterService(rng))
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			tb.Fatal("sharded bench park rejected an admission; resize the workload")
		}
		ids = append(ids, id)
	}
	if ep := c.Reallocate(); !ep.Result.Solved {
		tb.Fatal("warmup epoch failed")
	}
	return c, rng, ids
}

// shardedChurnNeeds perturbs the fluid needs of n services, the steady-state
// churn between sharded epochs.
func shardedChurnNeeds(tb testing.TB, c *Cluster, rng *rand.Rand, ids []int, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		id := ids[rng.Intn(len(ids))]
		need := rng.Float64() * 0.25
		nv := Of(need, 0)
		if err := c.UpdateNeeds(id, Of(need/4, 0), nv.Clone(), Of(need/4, 0), nv.Clone()); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkShardedEpoch measures one steady-state reallocation epoch (churn
// of 8 need updates + scatter-gather reallocate) at 64 hosts x 512 live
// services, across 1, 2 and 4 placement domains. Sharding wins twice: the
// domains solve concurrently, and each solves a smaller packing instance —
// so shards=4 leads even on one core, and scales with cores beyond that.
func BenchmarkShardedEpoch(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			c, rng, ids := shardedBenchCluster(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shardedChurnNeeds(b, c, rng, ids, 8)
				if ep := c.Reallocate(); !ep.Result.Solved {
					b.Fatal("epoch failed")
				}
			}
		})
	}
}

// TestShardedEpochSpeedup pins the sharded-tier acceptance criterion: at 64
// hosts x 512 services, epochs over 4 placement domains must run >= 2x
// faster than over one domain when at least 4 cores are available (below
// that the assertion is skipped — the scatter-gather win needs cores,
// though the smaller per-domain instances usually win even single-core;
// BenchmarkShardedEpoch reports the numbers either way).
func TestShardedEpochSpeedup(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing assertion skipped in -short/race modes")
	}
	epochTime := func(k int) time.Duration {
		c, rng, ids := shardedBenchCluster(t, k)
		const epochs = 6
		best := time.Duration(math.MaxInt64)
		// Min-of-batches: a transient scheduler hiccup cannot flake the
		// ratio.
		for batch := 0; batch < 3; batch++ {
			start := time.Now()
			for i := 0; i < epochs; i++ {
				shardedChurnNeeds(t, c, rng, ids, 8)
				if ep := c.Reallocate(); !ep.Result.Solved {
					t.Fatal("epoch failed")
				}
			}
			if el := time.Since(start) / epochs; el < best {
				best = el
			}
		}
		return best
	}
	one := epochTime(1)
	four := epochTime(4)
	procs := runtime.GOMAXPROCS(0)
	t.Logf("sharded epoch 64x512: shards=1 %v, shards=4 %v (%.2fx, %d procs)", one, four,
		float64(one)/float64(four), procs)
	if four > one*3/2 {
		t.Fatalf("sharded epochs regressed: shards=4 %v vs shards=1 %v", four, one)
	}
	if procs < 4 {
		t.Skipf("%d usable cores: sharded speedup assertion needs >= 4", procs)
	}
	if speedup := float64(one) / float64(four); speedup < 2.0 {
		t.Fatalf("4-shard epoch only %.2fx faster than 1-shard (shards=1 %v, shards=4 %v, %d procs), want >= 2x",
			speedup, one, four, procs)
	}
}

// shardedEpochCtx runs one steady-state epoch, optionally under a live
// trace: churn 8 needs, reallocate through the context-carrying path, and
// finish the trace the way the HTTP middleware would.
func shardedEpochCtx(tb testing.TB, c *Cluster, rng *rand.Rand, ids []int, tracer *obs.Tracer) {
	tb.Helper()
	shardedChurnNeeds(tb, c, rng, ids, 8)
	ctx := context.Background()
	tr := tracer.StartTrace("POST /v1/reallocate", "")
	if tr != nil {
		ctx = obs.ContextWithSpan(ctx, tr.Root())
	}
	ep := c.ReallocateCtx(ctx)
	tr.Finish(200)
	if !ep.Result.Solved {
		tb.Fatal("epoch failed")
	}
}

// BenchmarkShardedEpochTracing measures the tracing tax on the steady-state
// sharded epoch at acceptance scale (64 hosts x 512 services, 4 domains):
// tracing=off uses a nil tracer (the -trace-ring -1 path, zero-value spans
// throughout), tracing=on runs every epoch under a live trace with per-shard
// spans. The two must stay within a few percent of each other —
// TestShardedEpochTracingOverhead gates the ratio.
func BenchmarkShardedEpochTracing(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("tracing=%v", traced), func(b *testing.B) {
			c, rng, ids := shardedBenchCluster(b, 4)
			var tracer *obs.Tracer
			if traced {
				tracer = obs.NewTracer(0, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shardedEpochCtx(b, c, rng, ids, tracer)
			}
		})
	}
}

// TestShardedEpochTracingOverhead pins the observability acceptance
// criterion: a fully traced sharded epoch (root span, per-shard epoch
// spans, trace-ring insertion) must stay within 5% of the untraced epoch at
// 64 hosts x 512 services. Two clusters run the same seeded churn, so
// epoch i does identical solver work on both; each iteration times the pair
// back to back (alternating which side goes first) and the gate is the
// *median* of the per-pair traced/untraced ratios — a scheduler spike hits
// one epoch of one pair and moves one ratio, which the median shrugs off.
// That robustness is what lets a 5% bound hold on narrow shared CI runners.
func TestShardedEpochTracingOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing assertion skipped in -short/race modes")
	}
	cPlain, rngPlain, idsPlain := shardedBenchCluster(t, 4)
	cTraced, rngTraced, idsTraced := shardedBenchCluster(t, 4)
	tracer := obs.NewTracer(0, 0)
	timePlain := func() time.Duration {
		start := time.Now()
		shardedEpochCtx(t, cPlain, rngPlain, idsPlain, nil)
		return time.Since(start)
	}
	timeTraced := func() time.Duration {
		start := time.Now()
		shardedEpochCtx(t, cTraced, rngTraced, idsTraced, tracer)
		return time.Since(start)
	}
	const pairs = 40
	ratios := make([]float64, 0, pairs)
	var plainTotal, tracedTotal time.Duration
	for i := 0; i < pairs; i++ {
		var pe, te time.Duration
		if i%2 == 0 {
			pe = timePlain()
			te = timeTraced()
		} else {
			te = timeTraced()
			pe = timePlain()
		}
		plainTotal += pe
		tracedTotal += te
		ratios = append(ratios, float64(te)/float64(pe))
	}
	sort.Float64s(ratios)
	median := ratios[pairs/2]
	t.Logf("sharded epoch 64x512 over %d pairs: untraced mean %v, traced mean %v, median ratio %.4f (%+.2f%%)",
		pairs, plainTotal/pairs, tracedTotal/pairs, median, (median-1)*100)
	if median > 1.05 {
		t.Fatalf("tracing overhead too high: median traced/untraced epoch ratio %.4f (%+.2f%%), want <= 5%%",
			median, (median-1)*100)
	}
}

// BenchmarkTraceIngestion measures the Google-style trace pipeline: parse a
// synthesized trace, extract marginals, generate an instance from them.
func BenchmarkTraceIngestion(b *testing.B) {
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.Synthesize(1000, 1)); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		emp, err := trace.Extract(recs)
		if err != nil {
			b.Fatal(err)
		}
		p := workload.GenerateSampled(workload.Scenario{
			Hosts: 8, Services: 40, COV: 0.5, Slack: 0.4, Seed: 1,
		}, emp)
		if p.NumServices() != 40 {
			b.Fatal("generation failed")
		}
	}
}

func randNew(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// fourDimProblem builds a deterministic 4-resource instance (CPU, memory,
// disk, network) for the window ablation.
func fourDimProblem(h, j int) *Problem {
	p := &Problem{}
	for i := 0; i < h; i++ {
		agg := Of(1, 1, 1, 1)
		p.Nodes = append(p.Nodes, Node{Elementary: agg.Clone(), Aggregate: agg})
	}
	for s := 0; s < j; s++ {
		req := Of(
			0.05+0.02*float64(s%4),
			0.05+0.02*float64((s+1)%4),
			0.05+0.02*float64((s+2)%4),
			0.05+0.02*float64((s+3)%4),
		)
		p.Services = append(p.Services, Service{
			ReqElem: req.Clone(), ReqAgg: req,
			NeedElem: Of(0, 0, 0, 0), NeedAgg: Of(0, 0, 0, 0),
		})
	}
	return p
}

// --- Durable tier: journal append throughput and recovery time ---

// journalBenchRecord is the small mutation-sized record the throughput
// benches append (an UpdateNeeds of a 2-dimensional service, the most common
// record in a churning cluster).
func journalBenchRecord(id int) *journal.Record {
	return &journal.Record{
		Op: journal.OpUpdateNeeds, ID: id,
		Needs: [4]vec.Vec{
			vec.Of(0.25, 0.0625), vec.Of(0.25, 0.0625),
			vec.Of(0.21, 0.0625), vec.Of(0.21, 0.0625),
		},
	}
}

// BenchmarkJournalAppend measures write-ahead-log append throughput under
// concurrent writers: group commit batches everything enqueued while the
// previous batch is flushing into one write+fsync; it reports records/s.
func BenchmarkJournalAppend(b *testing.B) {
	for _, mode := range []struct {
		name  string
		fsync journal.FsyncMode
	}{
		{"group-fsync", journal.FsyncBatch},
		{"nofsync", journal.FsyncNone},
	} {
		b.Run(mode.name, func(b *testing.B) {
			j, _, err := journal.Open(journal.Options{Dir: b.TempDir(), Fsync: mode.fsync}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.SetParallelism(64) // deep append queues exercise group commit
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rec := journalBenchRecord(1)
				for pb.Next() {
					if err := j.Append(rec); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "records/s")
			}
		})
	}
}

// BenchmarkJournalRecovery measures snapshot+tail replay: each iteration
// recovers a directory holding a fixed-size WAL tail. The
// recovered-records/s metric is the replay throughput the exp recovery
// table sweeps at larger scale.
func BenchmarkJournalRecovery(b *testing.B) {
	const records = 10000
	dir := b.TempDir()
	j, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNone}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := j.Append(journalBenchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		j2, info, err := journal.Open(journal.Options{Dir: dir}, func(r *journal.Record) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			b.Fatal(err)
		}
		if n != records || info.Replayed != records {
			b.Fatalf("replayed %d records, want %d", n, records)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*records/secs, "recovered-records/s")
	}
}

// TestJournalAppendThroughputGate enforces the durable-tier acceptance
// floor: sustained group-commit appends at >= 100k records/s with fsync
// durability. Group commit is what makes this reachable — with hundreds of
// concurrent appenders every fsync covers a large batch, so the per-record
// cost is dominated by encoding, not the disk. Best-of-3 damps CI noise.
func TestJournalAppendThroughputGate(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput gate in short mode")
	}
	if raceEnabled {
		t.Skip("throughput gate under the race detector")
	}
	const (
		goroutines = 512
		perG       = 128
		want       = 100_000.0 // records/s
	)
	best := 0.0
	for attempt := 0; attempt < 3 && best < want; attempt++ {
		j, _, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncBatch}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rec := journalBenchRecord(g)
				for i := 0; i < perG; i++ {
					if err := j.Append(rec); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		rate := float64(goroutines*perG) / time.Since(start).Seconds()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			return
		}
		t.Logf("attempt %d: %.0f records/s (group commit, fsync per batch)", attempt+1, rate)
		if rate > best {
			best = rate
		}
	}
	if best < want {
		t.Fatalf("group-commit append throughput %.0f records/s, want >= %.0f", best, want)
	}
}
