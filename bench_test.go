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
// paper-scale LP tier. The roster shares a warm-start cache: RRNZ re-solves
// each relaxation from the basis RRND left behind.
func BenchmarkTable1LPRounding(b *testing.B) {
	scns := lpPaperGrid()
	for i := 0; i < b.N; i++ {
		rs := (&exp.Runner{}).Run(scns, exp.LPRoster(1))
		_ = rs.Table1([]string{exp.NameRRND, exp.NameRRNZ})
	}
}

// BenchmarkLPSparseVsDense solves the Eqs. 1–7 relaxations of the
// paper-scale LP grid with the dense tableau simplex and the sparse revised
// simplex; the ratio of the two sub-benchmarks is the sparse-path speedup
// tracked across PRs.
func BenchmarkLPSparseVsDense(b *testing.B) {
	var encs []*relax.Encoding
	for _, scn := range lpPaperGrid() {
		encs = append(encs, relax.Encode(workload.Generate(scn)))
	}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, enc := range encs {
				if _, err := lp.Solve(enc.LP); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, enc := range encs {
				if _, err := lp.SolveSparse(enc.LP); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestPaperScaleLPSparseVsDense cross-validates the two solver paths on the
// full paper-scale LP grid (objectives within 1e-6) and asserts the sparse
// path's aggregate ≥5× speedup; the timing half is skipped in -short mode
// and under the race detector, where instrumentation and machine load make
// wall-clock assertions flaky.
func TestPaperScaleLPSparseVsDense(t *testing.T) {
	var denseTotal, sparseTotal time.Duration
	for _, scn := range lpPaperGrid() {
		enc := relax.Encode(workload.Generate(scn))
		start := time.Now()
		dense, err := lp.Solve(enc.LP)
		denseTotal += time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		start = time.Now()
		sparse, err := lp.SolveSparse(enc.LP)
		sparseTotal += time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if dense.Status != sparse.Status {
			t.Fatalf("%+v: status dense=%v sparse=%v", scn, dense.Status, sparse.Status)
		}
		if math.Abs(dense.Objective-sparse.Objective) > 1e-6 {
			t.Fatalf("%+v: objective dense=%v sparse=%v", scn, dense.Objective, sparse.Objective)
		}
	}
	if testing.Short() || raceEnabled {
		return
	}
	if speedup := float64(denseTotal) / float64(sparseTotal); speedup < 5 {
		t.Fatalf("sparse simplex only %.1fx faster than dense on the paper-scale grid (dense %v, sparse %v), want >= 5x",
			speedup, denseTotal, sparseTotal)
	}
}

// lpRosterRun drives the RRND/RRNZ roster over scenarios with the given
// relaxation backend installed (single worker, so timings compare cleanly).
func lpRosterRun(scns []workload.Scenario, be lp.Backend) *exp.ResultSet {
	prev := relax.SetBackend(be)
	defer relax.SetBackend(prev)
	return (&exp.Runner{Workers: 1, DisableAllocStats: true}).Run(scns, exp.LPRoster(1))
}

// BenchmarkLPRosterPresolve times the paper-scale RRND/RRNZ roster through
// the warm-start-only sparse simplex versus the presolving backend (the
// default). The presolve sub-bench's edge over warmonly is the reduction
// pipeline's payoff — Eq. 3/Eq. 7 substitutions eliminate every phase-1
// artificial, so reduced models solve in a single phase — and is gated by
// TestLPRosterPresolveSpeedup and archived in BENCH_lp.json.
func BenchmarkLPRosterPresolve(b *testing.B) {
	scns := lpPaperGrid()
	b.Run("warmonly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = lpRosterRun(scns, lp.Simplex{})
		}
	})
	b.Run("presolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = lpRosterRun(scns, presolve.Backend{})
		}
	})
}

// TestLPRosterPresolveSpeedup is the CI perf gate for the presolve tier on
// the paper-scale (8 hosts x 64 services) LP grid. Equivalence half: the
// presolving backend must reach the warm-start-only simplex's optimal
// objective on every relaxation to 1e-9 (the optimal vertex may differ —
// these degenerate LPs have alternative optima — so the rounded roster
// yields are not compared) and its warm token must actually warm-start the
// RRNZ-style re-solve. Timing half: the presolved RRND/RRNZ roster must run
// >= 1.5x faster; skipped in -short mode and under the race detector, like
// the other wall-clock gates.
func TestLPRosterPresolveSpeedup(t *testing.T) {
	scns := lpPaperGrid()
	pre := presolve.Backend{}
	for i, scn := range scns {
		enc := relax.Encode(workload.Generate(scn))
		plainSol, err := lp.Simplex{}.Solve(enc.LP)
		if err != nil {
			t.Fatal(err)
		}
		preSol, err := pre.Solve(enc.LP)
		if err != nil {
			t.Fatal(err)
		}
		if plainSol.Status != preSol.Status {
			t.Fatalf("scenario %d: status %v (warmonly) vs %v (presolve)", i, plainSol.Status, preSol.Status)
		}
		if plainSol.Status != lp.Optimal {
			continue
		}
		if math.Abs(plainSol.Objective-preSol.Objective) > 1e-9*(1+math.Abs(plainSol.Objective)) {
			t.Fatalf("scenario %d: objective %v (warmonly) vs %v (presolve)", i, plainSol.Objective, preSol.Objective)
		}
		warm, err := pre.SolveWarm(enc.LP, preSol.Basis)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.WarmStarted {
			t.Fatalf("scenario %d: presolve warm token did not install on an identical re-solve", i)
		}
		if math.Abs(warm.Objective-preSol.Objective) > 1e-9*(1+math.Abs(preSol.Objective)) {
			t.Fatalf("scenario %d: warm objective %v vs cold %v", i, warm.Objective, preSol.Objective)
		}
	}

	if testing.Short() || raceEnabled {
		return
	}
	const runs = 3
	timeBest := func(be lp.Backend) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < runs; i++ {
			start := time.Now()
			_ = lpRosterRun(scns, be)
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}
	plainElapsed := timeBest(lp.Simplex{})
	preElapsed := timeBest(pre)
	speedup := float64(plainElapsed) / float64(preElapsed)
	t.Logf("LP roster paper scale: warmonly %v, presolve %v (%.2fx)", plainElapsed, preElapsed, speedup)
	if speedup < 1.5 {
		t.Fatalf("presolved LP roster only %.2fx faster than warm-start-only (warmonly %v, presolve %v), want >= 1.5x",
			speedup, plainElapsed, preElapsed)
	}
}

// presolveBenchInputs returns the two shapes presolve.Reduce is paid for in
// production: a paper-scale 8x64 relaxation, and a 3x8 branch-and-bound child
// (two placements branched to 0, one to 1, integrality marks on) as
// internal/milp hands it over.
func presolveBenchInputs() (relaxed, child *lp.Problem, childOpts *presolve.Options) {
	relaxed = relax.Encode(workload.Generate(lpPaperGrid()[2])).LP

	enc := relax.Encode(workload.Generate(workload.Scenario{Hosts: 3, Services: 8, COV: 0.5, Slack: 0.5, Seed: 1}))
	q := *enc.LP
	q.Upper = append([]float64(nil), enc.LP.Upper...)
	q.Lower = make([]float64, q.NumVars())
	integral := make([]bool, q.NumVars())
	for j := 0; j < enc.J; j++ {
		for h := 0; h < enc.H; h++ {
			integral[enc.EVar(j, h)] = true
		}
	}
	q.Upper[enc.EVar(0, 0)], q.Upper[enc.EVar(1, 2)] = 0, 0
	q.Lower[enc.EVar(2, 1)] = 1
	return relaxed, &q, &presolve.Options{Integral: integral}
}

// BenchmarkPresolveReduce times the reducer alone on the two production
// shapes; run with -benchmem, B/op and allocs/op are what is left after the
// pooled scratch: the Reduction itself and the reduced model.
func BenchmarkPresolveReduce(b *testing.B) {
	relaxed, child, childOpts := presolveBenchInputs()
	run := func(p *lp.Problem, opts *presolve.Options) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := presolve.Reduce(p, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("relax8x64", run(relaxed, nil))
	b.Run("milpchild3x8", run(child, childOpts))
}

// TestPresolveReduceAllocs gates the allocation count of a warmed-up Reduce:
// what a reduction allocates is what it returns (the Reduction, its postsolve
// records and maps, the reduced model), a number that does not grow with the
// 512 eliminations a paper-scale relaxation performs.
func TestPresolveReduceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	relaxed, child, childOpts := presolveBenchInputs()
	for _, tc := range []struct {
		name string
		p    *lp.Problem
		opts *presolve.Options
		max  float64
	}{
		{"relax8x64", relaxed, nil, 32},
		{"milpchild3x8", child, childOpts, 32},
	} {
		reduce := func() {
			if _, err := presolve.Reduce(tc.p, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
		reduce() // warm the scratch pool
		if got := testing.AllocsPerRun(20, reduce); got > tc.max {
			t.Errorf("%s: %.0f allocs per warmed-up Reduce, want <= %.0f", tc.name, got, tc.max)
		}
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
// the paper-scale instance with allocation reporting; cmd/benchjson turns
// this into the BENCH_vp.json trajectory CI archives.
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
// instance: exact branch-and-bound optimum, its rational upper bound, and
// the METAHVP approximation.
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
				_, _ = vp.Pack(tc.p, tc.y, vp.Config{Alg: vp.PermutationPack, ItemOrder: io, BinOrder: vp.NoOrder})
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
				_, _ = vp.Pack(p, 0, vp.Config{Alg: vp.PermutationPack, ItemOrder: io, Window: w})
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

// steadyCluster builds a cluster at the acceptance-criteria steady state —
// the 16-host platform hosting the ~80 services a rate-8 / lifetime-10
// arrival process sustains — and warms it with one reallocation. The service
// stream is seeded, so every variant sees the identical cluster history
// (their placers are result-identical by construction).
func steadyCluster(tb testing.TB, opts *ClusterOptions) (*Cluster, *rand.Rand, []int) {
	tb.Helper()
	nodes := workload.Platform(workload.Scenario{
		Hosts: 16, COV: 0.5, Mode: workload.HeteroBoth, Seed: 1,
	}, randNew(1))
	c, err := NewCluster(nodes, opts)
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
		if id, ok, _ := c.Add(steadyService(rng, meanNeed)); ok {
			ids = append(ids, id)
		}
	}
	if ep := c.Reallocate(); !ep.Result.Solved {
		tb.Fatal("steady-state warmup epoch failed")
	}
	return c, rng, ids
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

// churnCluster departs k seeded-random services and admits k fresh ones —
// one inter-epoch interval of the steady-state arrival process.
func churnCluster(tb testing.TB, c *Cluster, rng *rand.Rand, ids []int, k int, meanNeed float64) []int {
	tb.Helper()
	for i := 0; i < k && len(ids) > 0; i++ {
		j := rng.Intn(len(ids))
		c.Remove(ids[j])
		ids = append(ids[:j], ids[j+1:]...)
	}
	for i := 0; i < k; i++ {
		if id, ok, _ := c.Add(steadyService(rng, meanNeed)); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// BenchmarkEngineEpochRealloc measures one steady-state epoch (churn of 4
// services + full reallocation) at the acceptance scale: 16 hosts, ~80 live
// services. "rebuild" is the rebuild-per-epoch baseline (a fresh
// METAHVPLIGHT solver each epoch — the pre-engine hot path), "engine" the
// persistent engine on its GOMAXPROCS workers. Both compute bit-identical
// placements, so the engine/rebuild ratio of ns/op and allocs/op is the
// arena-reuse win plus whatever the cores add.
func BenchmarkEngineEpochRealloc(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts *ClusterOptions
	}{
		{"rebuild", &ClusterOptions{Placer: func(p *Problem) *Result { return hvp.MetaHVPLight(p, 0) }}},
		{"engine", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, rng, ids := steadyCluster(b, tc.opts)
			meanNeed := 0.7 * 16.0 / 80 // matches steadyCluster sizing closely enough for churn
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids = churnCluster(b, c, rng, ids, 4, meanNeed)
				if ep := c.Reallocate(); !ep.Result.Solved {
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
// BENCH_shard.json records the trajectory either way).
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
// previous batch is flushing into one write+fsync. The records/s metric is
// what BENCH_journal.json tracks.
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
