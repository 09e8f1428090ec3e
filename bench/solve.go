package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"vmalloc"
	"vmalloc/internal/core"
	"vmalloc/internal/exp"
	"vmalloc/internal/greedy"
	"vmalloc/internal/hvp"
	"vmalloc/internal/lp"
	"vmalloc/internal/milp"
	"vmalloc/internal/presolve"
	"vmalloc/internal/relax"
	"vmalloc/internal/vp"
)

// Rounds generated up front; more than any window fits, so the window and not
// the input runs out first. Generation is cheap (no solver runs in it).
const (
	heurMaxRounds = 32
	lpMaxRounds   = 768
	setupRepeats  = 15
	// solve-lp's slice is a block of lpBlockRounds rounds: 32 ops with the
	// same mix of instance kinds in every block, a little under a second.
	lpBlockRounds = 8
	lpTailPct     = 90
)

const yieldTol = 1e-9

// timeSetup runs fn n times and returns the median wall time in seconds:
// set-up is cheap enough to repeat, and one sample would be noise.
func timeSetup(n int, fn func()) float64 {
	var s []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		fn()
		s = append(s, time.Since(t).Seconds())
	}
	return median(s)
}

// verify re-checks one solver result from outside: the reported minimum yield
// must equal the yield recomputed from the placement, and the placement must
// be feasible at it. An unsolved result is an outcome, not a failure. It
// returns the recomputed yield (0 when unsolved).
func verify(res *result, what string, p *core.Problem, r *core.Result, err error) float64 {
	res.attempt(1)
	if err != nil || r == nil {
		res.fail("%s: solver error: %v", what, err)
		return 0
	}
	if !r.Solved {
		return 0
	}
	ev := vmalloc.EvaluatePlacement(p, r.Placement)
	if !ev.Solved || math.Abs(ev.MinYield-r.MinYield) > yieldTol {
		res.fail("%s: reported min-yield %.12g, recomputed %.12g (solved=%v)", what, r.MinYield, ev.MinYield, ev.Solved)
		return 0
	}
	if !vmalloc.FeasibleAtYield(p, r.Placement, r.MinYield) {
		res.fail("%s: placement infeasible at its reported yield %.12g", what, r.MinYield)
		return 0
	}
	return ev.MinYield
}

// runsMetaHVP says whether METAHVP is on an instance's roster. Its 253
// strategies take half a second at 250 services and two at 500 — the paper's
// own reason for METAHVPLIGHT — and a third of a round's time would buy no
// further independent instance: how long an instance takes is a lottery over
// which steps of its yield search fail, and only the number of instances in
// the window averages that out.
func runsMetaHVP(in instance) bool { return in.Scn.Services <= heurSizes[0] }

// heurRoster is the packing-tier roster of Table 1: METAHVP on the
// 100-service instances, the other three at every size.
func heurRoster(in instance) []string {
	if !runsMetaHVP(in) {
		return []string{vmalloc.AlgoMetaGreedy, vmalloc.AlgoMetaVP, vmalloc.AlgoMetaHVPLight}
	}
	return []string{vmalloc.AlgoMetaGreedy, vmalloc.AlgoMetaVP, vmalloc.AlgoMetaHVP, vmalloc.AlgoMetaHVPLight}
}

// timeCall times fn from a collected heap, so that no call pays for the
// garbage of the one before it and the peak heap is one call's.
func timeCall(fn func()) time.Duration {
	runtime.GC()
	t := time.Now()
	fn()
	return time.Since(t)
}

// roundsIn runs whole rounds until the next one would overrun the window
// (always at least one) and returns how many ran.
func roundsIn(window time.Duration, n int, round func(r int)) int {
	start := time.Now()
	var last time.Duration
	r := 0
	for ; r < n; r++ {
		if r > 0 && time.Since(start)+last > window {
			break
		}
		t := time.Now()
		round(r)
		last = time.Since(t)
	}
	return r
}

func runSolveHeur(e *env) (*result, error) {
	res := newResult("solve-heur", e.traced())
	var rounds [][]instance
	setup := timeSetup(setupRepeats, func() { rounds = heurRounds(e.seed, heurMaxRounds) })
	if e.traced() {
		traceSolveHeur(e, res, rounds)
		return res, nil
	}
	// op = one round: the paper's table once, eight instances through their
	// rosters. Every round is new instances, so the rounds of a window are
	// as many independent draws as it can hold.
	var roundMs, yields []float64
	roundsIn(e.window(), len(rounds), func(r int) {
		op := time.Duration(0)
		for _, in := range rounds[r] {
			best := 0.0
			for _, algo := range heurRoster(in) {
				var out *core.Result
				var err error
				op += timeCall(func() { out, err = vmalloc.Solve(algo, in.P, nil) })
				best = math.Max(best, verify(res, algo+" on "+in.Scn.String(), in.P, out, err))
			}
			yields = append(yields, best)
		}
		roundMs = append(roundMs, float64(op)/float64(time.Millisecond))
	})
	res.set("setup_s", setup, setupRepeats)
	res.set("op_p50_ms", median(roundMs), len(roundMs))
	res.set("ops_per_s", float64(len(roundMs))/(sum(roundMs)/1000), len(roundMs))
	res.set("min_yield", mean(yields), len(yields))
	res.set("peak_rss_mb", peakRSSMB(0), 1)
	return res, nil
}

// traceSolveHeur is solve-heur's traced run: the same rounds, but every
// layer is called directly with a span around it. Timings are means per round
// of nine instances; counts come from round 0 alone so that they repeat
// exactly for a fixed seed however many rounds the machine fits.
func traceSolveHeur(e *env, res *result, rounds [][]instance) {
	// Untraced reference for the tracing overhead: round 0 through the
	// public entry point the end-to-end run uses.
	plain := time.Duration(0)
	for _, in := range rounds[0] {
		for _, algo := range heurRoster(in) {
			t := time.Now()
			_, _ = vmalloc.Solve(algo, in.P, nil) // checked in the end-to-end run
			plain += time.Since(t)
		}
	}

	layer := map[string]time.Duration{}
	var packUs []float64
	var stats0 vp.Stats
	var traced0, whole time.Duration
	solved, instances := 0, 0
	n := roundsIn(e.window()*3/4, len(rounds), func(r int) {
		for i, in := range rounds[r] {
			req := r*len(rounds[r]) + i
			root := e.rec.begin("solve-heur instance", -1, req, 0)
			t0 := time.Now()
			call := func(name string, fn func() *core.Result) *core.Result {
				var out *core.Result
				layer[name] += e.rec.timed(name, root, req, 0, func() { out = fn() })
				verify(res, name+" on "+in.Scn.String(), in.P, out, nil)
				return out
			}
			call("greedy.MetaGreedy", func() *core.Result { return greedy.MetaGreedy(in.P, false) })
			call("vp.MetaVP", func() *core.Result { return vp.MetaVP(in.P, 0) })
			if runsMetaHVP(in) {
				call("hvp.MetaHVP", func() *core.Result { return hvp.MetaHVP(in.P, 0) })
			}
			// METAHVPLIGHT on a caller-owned solver, which is how it exposes
			// its work counters.
			solver := vp.NewSolver(in.P)
			light := call("hvp.MetaHVPLight", func() *core.Result {
				return vp.MetaConfigsSolver(solver, hvp.LightStrategies(), vp.SearchOptions{})
			})
			e.rec.end(root)
			whole += time.Since(t0)
			st := solver.TakeStats()
			if r == 0 {
				stats0.Add(st)
			}
			instances++
			if light.Solved {
				solved++
				// One pack per METAHVP strategy at the solved yield: the unit
				// of work all four meta-heuristics are made of.
				var us []float64
				for _, c := range hvp.Strategies() {
					d := e.rec.timed("vp.Pack", -1, req, 1, func() { solver.Pack(light.MinYield, c) })
					us = append(us, float64(d)/float64(time.Microsecond))
				}
				packUs = append(packUs, median(us))
			}
		}
		if r == 0 {
			traced0 = whole
		}
	})
	perRound := func(name string) float64 { return float64(layer[name]) / float64(time.Millisecond) / float64(n) }
	res.set("greedy.meta_ms", perRound("greedy.MetaGreedy"), n)
	res.set("vp.metavp_ms", perRound("vp.MetaVP"), n)
	res.set("hvp.metahvp_ms", perRound("hvp.MetaHVP"), n)
	res.set("hvp.light_ms", perRound("hvp.MetaHVPLight"), n)
	res.set("hvp.solved_frac", float64(solved)/float64(instances), instances)
	res.set("vp.pack_us", median(packUs), len(packUs))
	res.set("vp.packs", float64(stats0.Packs), 1)
	res.set("vp.packs_solved_frac", float64(stats0.PacksSolved)/float64(stats0.Packs), int(stats0.Packs))
	res.set("vp.steps_pruned", float64(stats0.StepsPruned), 1)
	res.set("bench.trace_overhead_frac", float64(traced0-plain)/float64(plain), 1)
	// What an instance's span does not spend inside a layer call.
	res.set("bench.unattributed_frac", float64(e.rec.selfTimes()["solve-heur instance"])/float64(whole), instances)
}

func runSolveLP(e *env) (*result, error) {
	res := newResult("solve-lp", e.traced())
	var rounds []lpRound
	setup := timeSetup(setupRepeats, func() { rounds = lpRounds(e.seed, lpMaxRounds) })
	if e.traced() {
		traceSolveLP(e, res, rounds)
		return res, nil
	}
	// op = one instance. Every instance is new, and the window is read block
	// by block: each block gives its own median and its own rate.
	var opMs, blockP50, blockRate, yields []float64
	roundsIn(e.window(), len(rounds)/lpBlockRounds, func(b int) {
		first := len(opMs)
		record := func(fn func()) { opMs = append(opMs, float64(timeCall(fn))/float64(time.Millisecond)) }
		for _, round := range rounds[b*lpBlockRounds : (b+1)*lpBlockRounds] {
			for _, in := range round.Relax {
				// RRND then RRNZ sharing a warm-start cache: the production LP
				// roster (exp.LPRoster), plus the bound every table reports.
				roster := exp.LPRoster(in.Scn.Seed)
				var bound float64
				var err error
				var rrnd, rrnz *core.Result
				record(func() {
					bound, err = vmalloc.RelaxedUpperBound(in.P)
					rrnd = roster[0].Run(in.P)
					rrnz = roster[1].Run(in.P)
				})
				res.check(err == nil, "LP bound on %s: %v", in.Scn, err)
				yd := verify(res, "RRND on "+in.Scn.String(), in.P, rrnd, nil)
				yz := verify(res, "RRNZ on "+in.Scn.String(), in.P, rrnz, nil)
				// A negative bound says the instance is infeasible even
				// fractionally (about one 8x64 draw in 300 that fitsAlone lets
				// through): an outcome, and then nothing may round to a placement.
				res.check(math.Max(yd, yz) <= math.Max(bound, 0)+1e-6, "rounded yield %g above the LP bound %g on %s", math.Max(yd, yz), bound, in.Scn)
				if rrnz.Solved {
					yields = append(yields, yz)
				}
			}
			in := round.Exact
			var exact *core.Result
			var err error
			record(func() { exact, err = relax.SolveExact(in.P, nil) })
			verify(res, "EXACT on "+in.Scn.String(), in.P, exact, err)
		}
		block := opMs[first:]
		blockP50 = append(blockP50, median(block))
		blockRate = append(blockRate, float64(len(block))/(sum(block)/1000))
	})
	all := summarise(opMs, lpTailPct)
	allRate := float64(len(opMs)) / (sum(opMs) / 1000)
	res.set("setup_s", setup, setupRepeats)
	// Gated: the undisturbed quartile over the blocks.
	res.set("op_p50_ms", lowQuartile(blockP50, all.P50), len(blockP50))
	res.set("ops_per_s", highQuartile(blockRate, allRate), len(blockRate))
	res.set("min_yield", mean(yields), len(yields))
	res.set("peak_rss_mb", peakRSSMB(0), 1)
	// Not gated, printed for the reader: the whole window at once.
	res.setTiming("all_p50_ms", "op_tail_ms", all)
	res.set("all_per_s", allRate, all.N)
	return res, nil
}

// traceSolveLP replays the RRND/RRNZ pipeline stage by stage — Encode,
// Reduce, the simplex cold and then warm from the cold basis, rounding — and
// the exact MILP, each under its own span.
func traceSolveLP(e *env, res *result, rounds []lpRound) {
	plain := time.Duration(0)
	for _, in := range rounds[0].Relax {
		t := time.Now()
		_, _ = relax.SolveRelaxed(in.P) // checked in the end-to-end run
		plain += time.Since(t)
	}

	layer := map[string]time.Duration{}
	var gaps []float64
	var rowsBefore, rowsAfter, iters, refacts, warm, warmTried, nodes int
	var traced0, pipeline time.Duration
	relaxed := 0
	n := roundsIn(e.window()/2, len(rounds), func(r int) {
		for i, in := range rounds[r].Relax {
			req := r*4 + i
			root := e.rec.begin("solve-lp instance", -1, req, 0)
			stage := func(name string, parent int, fn func()) {
				layer[name] += e.rec.timed(name, parent, req, 0, fn)
			}
			// The three stages of one relaxation solve, then the production
			// call that contains them: their difference is what the stages do
			// not explain (postsolve, extracting the fractional placement).
			var enc *relax.Encoding
			var red *presolve.Reduction
			var cold, hot *lp.Solution
			var err error
			stage("relax.Encode", root, func() { enc = relax.Encode(in.P) })
			stage("presolve.Reduce", root, func() { red, err = presolve.Reduce(enc.LP, nil) })
			res.check(err == nil, "presolve.Reduce on %s: %v", in.Scn, err)
			if err != nil || red.Outcome() != presolve.Reduced {
				e.rec.end(root) // the rare draw presolve already decides: no stages to time
				continue
			}
			stage("lp.SolveWarm(cold)", root, func() { cold, err = lp.Simplex{}.SolveWarm(red.Problem(), nil) })
			res.check(err == nil && cold.Status != lp.Unbounded, "cold simplex on %s: %v", in.Scn, err)
			if err != nil || cold.Status != lp.Optimal {
				e.rec.end(root) // infeasible even fractionally: an outcome
				continue
			}
			stage("lp.SolveWarm(warm)", root, func() { hot, err = lp.Simplex{}.SolveWarm(red.Problem(), cold.Basis) })
			res.check(err == nil && hot.Status == lp.Optimal && math.Abs(hot.Objective-cold.Objective) <= 1e-6,
				"warm simplex on %s disagrees with cold: %v", in.Scn, err)
			var rel *relax.Relaxed
			full := e.rec.timed("relax.SolveRelaxed", root, req, 0, func() { rel, err = relax.SolveRelaxed(in.P) })
			pipeline += full
			res.check(err == nil && rel.Feasible, "relax.SolveRelaxed on %s disagrees with its stages: %v", in.Scn, err)
			if err != nil || !rel.Feasible {
				e.rec.end(root)
				continue
			}
			relaxed++
			rng := rand.New(rand.NewSource(in.Scn.Seed))
			var rrnd, rrnz *core.Result
			stage("relax.Round", root, func() {
				rrnd = relax.RRND(in.P, rel, exp.RoundingAttempts, rng)
				rrnz = relax.RRNZ(in.P, rel, exp.RoundingAttempts, rng)
			})
			verify(res, "RRND on "+in.Scn.String(), in.P, rrnd, nil)
			verify(res, "RRNZ on "+in.Scn.String(), in.P, rrnz, nil)
			e.rec.end(root)
			if r == 0 {
				traced0 += full
				st := red.Stats()
				rowsBefore += st.RowsBefore
				rowsAfter += st.RowsAfter
				iters += cold.Iters
				refacts += cold.Refactorizations
				warmTried++
				if hot.WarmStarted {
					warm++
				}
			}
			// Quality headroom: how far the best packing heuristic sits
			// below the LP bound. Its own span, off the LP pipeline's lane.
			var packed *core.Result
			e.rec.timed("hvp.MetaHVP", -1, req, 1, func() { packed = hvp.MetaHVP(in.P, 0) })
			if y := verify(res, "METAHVP on "+in.Scn.String(), in.P, packed, nil); packed.Solved {
				gaps = append(gaps, rel.MinYield-y)
			}
		}
		in := rounds[r].Exact
		enc := relax.Encode(in.P)
		bins := make([]int, 0, enc.J*enc.H)
		for j := 0; j < enc.J; j++ {
			for h := 0; h < enc.H; h++ {
				bins = append(bins, enc.EVar(j, h))
			}
		}
		var sol *milp.Solution
		var err error
		layer["milp.Solve"] += e.rec.timed("milp.Solve", -1, r*4+3, 0, func() {
			sol, err = milp.Solve(&milp.Problem{LP: *enc.LP, Binary: bins}, nil)
		})
		res.check(err == nil, "milp.Solve on %s: %v", in.Scn, err)
		if err == nil && r == 0 {
			nodes += sol.Nodes
		}
	})
	perInstance := func(name string) float64 {
		return float64(layer[name]) / float64(time.Millisecond) / float64(max(relaxed, 1))
	}
	res.set("relax.encode_ms", perInstance("relax.Encode"), relaxed)
	res.set("presolve.reduce_ms", perInstance("presolve.Reduce"), relaxed)
	res.set("lp.solve_ms", perInstance("lp.SolveWarm(cold)"), relaxed)
	res.set("lp.warm_solve_ms", perInstance("lp.SolveWarm(warm)"), relaxed)
	res.set("relax.round_ms", perInstance("relax.Round"), relaxed)
	res.set("milp.solve_ms", float64(layer["milp.Solve"])/float64(time.Millisecond)/float64(n), n)
	res.set("presolve.rows_kept_frac", float64(rowsAfter)/float64(max(rowsBefore, 1)), rowsBefore)
	res.set("lp.iterations", float64(iters), 1)
	res.set("lp.refactorizations", float64(refacts), 1)
	res.set("lp.warm_start_frac", float64(warm)/float64(max(warmTried, 1)), warmTried)
	res.set("milp.nodes", float64(nodes), 1)
	res.set("relax.bound_gap", mean(gaps), len(gaps))
	stages := layer["relax.Encode"] + layer["presolve.Reduce"] + layer["lp.SolveWarm(cold)"]
	res.set("bench.trace_overhead_frac", float64(traced0-plain)/float64(plain), 1)
	res.set("bench.unattributed_frac", 1-float64(stages)/float64(pipeline), relaxed)
}
