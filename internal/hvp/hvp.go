// Package hvp implements the paper's heterogeneous vector-packing algorithms
// (§3.5.4–3.5.5 and §5.1): packing strategies that explicitly sort the bins
// by capacity and measure fullness by remaining capacity, the METAHVP
// combination of all 253 strategies, and the engineered METAHVPLIGHT subset
// of 60 strategies that runs almost an order of magnitude faster with nearly
// identical solution quality.
package hvp

import (
	"sync"
	"sync/atomic"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
	"vmalloc/internal/vp"
)

// Strategies returns the 253 METAHVP strategies: Best-Fit (which imposes its
// own bin selection) over 11 item orders, plus First-Fit and
// Permutation-Pack over 11 item orders × 11 bin orders each:
// 11 + 2·11·11 = 253.
func Strategies() []vp.Config {
	var out []vp.Config
	for _, io := range vp.AllOrders() {
		out = append(out, vp.Config{Alg: vp.BestFit, ItemOrder: io, Hetero: true})
	}
	for _, alg := range []vp.Algorithm{vp.FirstFit, vp.PermutationPack} {
		for _, io := range vp.AllOrders() {
			for _, bo := range vp.AllOrders() {
				out = append(out, vp.Config{Alg: alg, ItemOrder: io, BinOrder: bo, Hetero: true})
			}
		}
	}
	return out
}

// LightStrategies returns the 60 METAHVPLIGHT strategies (§5.1): item
// sortings restricted to descending MAX, SUM, MAXDIFFERENCE and MAXRATIO;
// bin sortings restricted to ascending LEX, MAX and SUM, descending MAX,
// MAXDIFFERENCE and MAXRATIO, and NONE: 4 + 2·4·7 = 60.
func LightStrategies() []vp.Config {
	itemOrders := []vp.Order{
		{Metric: vec.MetricMax, Descending: true},
		{Metric: vec.MetricSum, Descending: true},
		{Metric: vec.MetricMaxDifference, Descending: true},
		{Metric: vec.MetricMaxRatio, Descending: true},
	}
	binOrders := []vp.Order{
		{Metric: vec.MetricLex, Descending: false},
		{Metric: vec.MetricMax, Descending: false},
		{Metric: vec.MetricSum, Descending: false},
		{Metric: vec.MetricMax, Descending: true},
		{Metric: vec.MetricMaxDifference, Descending: true},
		{Metric: vec.MetricMaxRatio, Descending: true},
		vp.NoOrder,
	}
	var out []vp.Config
	for _, io := range itemOrders {
		out = append(out, vp.Config{Alg: vp.BestFit, ItemOrder: io, Hetero: true})
	}
	for _, alg := range []vp.Algorithm{vp.FirstFit, vp.PermutationPack} {
		for _, io := range itemOrders {
			for _, bo := range binOrders {
				out = append(out, vp.Config{Alg: alg, ItemOrder: io, BinOrder: bo, Hetero: true})
			}
		}
	}
	return out
}

// MetaHVP runs METAHVP: at each binary-search step all 253 strategies are
// tried until one succeeds.
func MetaHVP(p *core.Problem, tol float64) *core.Result {
	return vp.MetaConfigs(p, Strategies(), tol)
}

// MetaHVPLight runs METAHVPLIGHT over the reduced strategy set.
func MetaHVPLight(p *core.Problem, tol float64) *core.Result {
	return vp.MetaConfigs(p, LightStrategies(), tol)
}

// MetaDeterministicSolvers runs the meta search with each binary-search step
// raced by one goroutine per solver, while preserving the *sequential*
// semantics exactly: the step returns the successful strategy with the
// lowest roster index, which is precisely the strategy sequential
// MetaConfigs would have stopped at. Callers own the per-worker solvers
// (typically one long-lived set per online engine, Rebind-ed between
// epochs), so repeated epoch re-solves reuse W warm arenas.
//
// Determinism argument: workers claim strategy indices from an atomic
// counter in ascending order. A claimed index is skipped only when a success
// at a strictly lower index is already recorded, so no index below the
// eventual minimum is ever skipped; every such index is packed to completion
// and fails (packing a strategy is deterministic and independent of sibling
// strategies — each Pack starts from a cleared arena). The minimum recorded
// success is therefore exactly the sequential first success, and its
// placement is byte-identical to the sequential one, which is what keeps
// golden trajectories independent of the worker count; the price is that
// workers cannot early-cancel siblings below the current minimum. With one
// solver the step is the plain sequential sweep of vp.MetaConfigsSolver.
func MetaDeterministicSolvers(solvers []*vp.Solver, configs []vp.Config, opts vp.SearchOptions) *core.Result {
	if len(solvers) == 0 || len(configs) == 0 {
		return &core.Result{}
	}
	p := solvers[0].Problem()
	if len(solvers) == 1 {
		return vp.MetaConfigsSolver(solvers[0], configs, opts)
	}
	return vp.SearchMaxYield(p, opts, func(y float64) (core.Placement, bool) {
		// A step no strategy can win fails without spawning any goroutine.
		if !solvers[0].StepFeasible(y) {
			return nil, false
		}
		var (
			next    atomic.Int64
			minIdx  atomic.Int64
			mu      sync.Mutex
			bestPl  core.Placement
			bestIdx = len(configs)
			wg      sync.WaitGroup
		)
		next.Store(-1)
		minIdx.Store(int64(len(configs)))
		for w := 0; w < len(solvers); w++ {
			wg.Add(1)
			go func(sol *vp.Solver) {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					// Indices are claimed in ascending order, so once i cannot
					// beat the recorded minimum no later claim can either.
					if i >= len(configs) || int64(i) > minIdx.Load() {
						return
					}
					if pl, ok := sol.Pack(y, configs[i]); ok {
						mu.Lock()
						if i < bestIdx {
							bestIdx = i
							bestPl = pl.Clone()
							minIdx.Store(int64(i))
						}
						mu.Unlock()
						return // any further claim would be a larger index
					}
				}
			}(solvers[w])
		}
		wg.Wait()
		if bestPl != nil {
			return bestPl, true
		}
		return nil, false
	})
}

// NewSolverPool returns max(1, n) independent solvers for p, the worker set
// for MetaDeterministicSolvers; rebind each of them after mutating the
// problem.
func NewSolverPool(p *core.Problem, n int) []*vp.Solver {
	solvers := make([]*vp.Solver, max(1, n))
	for i := range solvers {
		solvers[i] = vp.NewSolver(p)
	}
	return solvers
}
