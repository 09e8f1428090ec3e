// Package vp implements the vector-packing machinery of paper §3.5: the
// reduction from minimum-yield maximization to heterogeneous vector bin
// packing via binary search on the yield, the First-Fit, Best-Fit,
// Permutation-Pack and Choose-Pack heuristics, the eleven item/bin sorting
// strategies, and the METAVP combination algorithm.
//
// At a fixed yield Y every service becomes an item with aggregate vector
// r^a + Y·n^a and elementary vector r^e + Y·n^e; a bin accepts an item when
// the elementary vector fits within the node's elementary capacity and the
// bin's aggregate load plus the item's aggregate vector fits within the
// node's aggregate capacity.
package vp

import (
	"fmt"
	"sort"

	"vmalloc/internal/core"
	"vmalloc/internal/sliceutil"
	"vmalloc/internal/vec"
)

// DefaultTolerance is the binary-search stopping threshold used in the
// paper's simulations.
const DefaultTolerance = 1e-4

// Order is one of the eleven vector sorting strategies: one of the five
// metrics ascending or descending, or no sorting at all.
type Order struct {
	// None leaves vectors in natural order; Metric/Descending are ignored.
	None       bool
	Metric     vec.Metric
	Descending bool
}

// NoOrder is the "do not sort" strategy.
var NoOrder = Order{None: true}

// String names the order like "DESC(SUM)" or "NONE".
func (o Order) String() string {
	if o.None {
		return "NONE"
	}
	dir := "ASC"
	if o.Descending {
		dir = "DESC"
	}
	return fmt.Sprintf("%s(%s)", dir, o.Metric)
}

// AllOrders returns the 11 sorting strategies of §3.5: 5 metrics × 2
// directions plus NONE.
func AllOrders() []Order {
	out := []Order{NoOrder}
	for _, m := range vec.Metrics() {
		out = append(out, Order{Metric: m, Descending: false})
		out = append(out, Order{Metric: m, Descending: true})
	}
	return out
}

// Sort returns the indices 0..n-1 ordered by o over the given vectors,
// stable with respect to natural order.
func (o Order) Sort(vectors []vec.Vec) []int {
	return o.SortInto(make([]int, len(vectors)), vectors)
}

// SortInto is Sort writing the permutation into idx (which must have one
// entry per vector) instead of allocating, so solvers can reuse permutation
// buffers across binary-search steps.
func (o Order) SortInto(idx []int, vectors []vec.Vec) []int {
	if len(idx) != len(vectors) {
		panic(fmt.Sprintf("vp: order buffer has %d entries, want %d", len(idx), len(vectors)))
	}
	for i := range idx {
		idx[i] = i
	}
	if o.None {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool {
		c := o.Metric.Compare(vectors[idx[a]], vectors[idx[b]])
		if o.Descending {
			return c > 0
		}
		return c < 0
	})
	return idx
}

// Instance is a packing instance: the problem frozen at a common yield. All
// item/bin vectors are views into flat backing arrays allocated once, so an
// Instance can be refreshed at a new yield with Reset in O(J·D) without
// reallocating.
type Instance struct {
	P     *core.Problem
	Yield float64
	// ItemAgg[j] = r^a_j + Y·n^a_j, ItemElem[j] = r^e_j + Y·n^e_j.
	ItemAgg  []vec.Vec
	ItemElem []vec.Vec
	// Load[h] is the current aggregate load of bin h.
	Load []vec.Vec
	// placed[j] reports whether item j has been placed.
	placed []bool
	// Placement is the partial placement built so far.
	Placement core.Placement
	remaining int
	// Flat backing arrays behind ItemAgg/ItemElem/Load.
	aggBuf, elemBuf, loadBuf []float64
}

// NewInstance freezes problem p at yield y.
func NewInstance(p *core.Problem, y float64) *Instance {
	d := p.Dim()
	j, h := p.NumServices(), p.NumNodes()
	inst := &Instance{
		P:         p,
		ItemAgg:   make([]vec.Vec, j),
		ItemElem:  make([]vec.Vec, j),
		Load:      make([]vec.Vec, h),
		placed:    make([]bool, j),
		Placement: core.NewPlacement(j),
		aggBuf:    make([]float64, j*d),
		elemBuf:   make([]float64, j*d),
		loadBuf:   make([]float64, h*d),
	}
	for i := range inst.ItemAgg {
		inst.ItemAgg[i] = vec.Vec(inst.aggBuf[i*d : (i+1)*d])
		inst.ItemElem[i] = vec.Vec(inst.elemBuf[i*d : (i+1)*d])
	}
	for i := range inst.Load {
		inst.Load[i] = vec.Vec(inst.loadBuf[i*d : (i+1)*d])
	}
	inst.Reset(y)
	return inst
}

// Reset refreshes the instance at a new yield: item vectors are recomputed
// in place and all placement state is cleared. No memory is allocated.
func (inst *Instance) Reset(y float64) {
	inst.Yield = y
	for j := range inst.P.Services {
		s := &inst.P.Services[j]
		agg, elem := inst.ItemAgg[j], inst.ItemElem[j]
		for d := range agg {
			agg[d] = s.ReqAgg[d] + y*s.NeedAgg[d]
			elem[d] = s.ReqElem[d] + y*s.NeedElem[d]
		}
	}
	inst.Clear()
}

// Rebind re-points the instance at p after its service list changed, reusing
// the flat backing arrays whenever their capacity suffices (growth is
// amortized ×2, so steady-state online churn allocates nothing). The node
// count and dimensionality must be unchanged. Item vectors and placement
// state are left stale: callers must Reset before packing.
func (inst *Instance) Rebind(p *core.Problem) {
	d := p.Dim()
	j := p.NumServices()
	inst.P = p
	inst.aggBuf = sliceutil.Grow(inst.aggBuf, j*d)
	inst.elemBuf = sliceutil.Grow(inst.elemBuf, j*d)
	inst.ItemAgg = sliceutil.Grow(inst.ItemAgg, j)
	inst.ItemElem = sliceutil.Grow(inst.ItemElem, j)
	for i := 0; i < j; i++ {
		inst.ItemAgg[i] = vec.Vec(inst.aggBuf[i*d : (i+1)*d])
		inst.ItemElem[i] = vec.Vec(inst.elemBuf[i*d : (i+1)*d])
	}
	inst.placed = sliceutil.Grow(inst.placed, j)
	inst.Placement = sliceutil.Grow(inst.Placement, j)
}

// Clear empties every bin, keeping the frozen yield and item vectors: the
// fast path for retrying a different strategy at the same yield.
func (inst *Instance) Clear() {
	for i := range inst.loadBuf {
		inst.loadBuf[i] = 0
	}
	for j := range inst.placed {
		inst.placed[j] = false
		inst.Placement[j] = core.Unplaced
	}
	inst.remaining = len(inst.placed)
}

// Fits reports whether item j currently fits in bin h. It is called inside
// every packing inner loop and must not allocate.
func (inst *Instance) Fits(j, h int) bool {
	n := &inst.P.Nodes[h]
	if !inst.ItemElem[j].LessEq(n.Elementary, core.DefaultEpsilon) {
		return false
	}
	return vec.AddFitsWithin(inst.Load[h], inst.ItemAgg[j], n.Aggregate, core.DefaultEpsilon)
}

// Place commits item j to bin h.
func (inst *Instance) Place(j, h int) {
	if inst.placed[j] {
		panic("vp: item placed twice")
	}
	inst.placed[j] = true
	inst.Placement[j] = h
	inst.Load[h].AccumAdd(inst.ItemAgg[j])
	inst.remaining--
}

// Done reports whether every item is placed.
func (inst *Instance) Done() bool { return inst.remaining == 0 }

// Remaining returns the remaining capacity vector of bin h.
func (inst *Instance) Remaining(h int) vec.Vec {
	return inst.P.Nodes[h].Aggregate.Sub(inst.Load[h])
}

// remainingInto writes the remaining capacity of bin h into out.
func (inst *Instance) remainingInto(out vec.Vec, h int) {
	cap, load := inst.P.Nodes[h].Aggregate, inst.Load[h]
	for d := range out {
		out[d] = cap[d] - load[d]
	}
}

// remainingSum returns the summed remaining capacity of bin h; vec.SumDiff
// keeps heterogeneous Best-Fit tie-breaking bit-identical to the allocating
// Remaining(h).Sum() formulation.
func (inst *Instance) remainingSum(h int) float64 {
	return vec.SumDiff(inst.P.Nodes[h].Aggregate, inst.Load[h])
}

// Algorithm identifies one of the packing heuristics.
type Algorithm int

const (
	// FirstFit places each item in the first bin (in bin order) that fits.
	FirstFit Algorithm = iota
	// BestFit places each item in the fullest bin that fits: greatest load
	// sum in the homogeneous variant, least remaining capacity sum in the
	// heterogeneous variant.
	BestFit
	// PermutationPack fills bin by bin, choosing items whose dimension
	// ranking best complements the bin's (§3.5.2), using the improved
	// O(J²D) key-mapping implementation.
	PermutationPack
	// ChoosePack is Permutation-Pack with the window match relaxed to a set
	// test: an item qualifies if its top-w dimensions land in the bin's
	// top-w positions, regardless of order.
	ChoosePack
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case FirstFit:
		return "FF"
	case BestFit:
		return "BF"
	case PermutationPack:
		return "PP"
	case ChoosePack:
		return "CP"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config fully specifies one packing strategy.
type Config struct {
	Alg       Algorithm
	ItemOrder Order
	// BinOrder applies to FirstFit, PermutationPack and ChoosePack. BestFit
	// imposes its own dynamic bin selection and ignores it.
	BinOrder Order
	// Hetero switches BestFit and PermutationPack/ChoosePack to the
	// heterogeneity-aware variants (§3.5.4): bin fullness and dimension
	// ranking are measured on remaining capacity instead of load.
	Hetero bool
	// Window is the Permutation/Choose-Pack window size w; 0 means all D
	// dimensions.
	Window int
}

// String names the strategy, e.g. "HVP-PP[items=DESC(MAX),bins=ASC(SUM)]".
func (c Config) String() string {
	prefix := "VP"
	if c.Hetero {
		prefix = "HVP"
	}
	if c.Alg == BestFit {
		return fmt.Sprintf("%s-%s[items=%s]", prefix, c.Alg, c.ItemOrder)
	}
	return fmt.Sprintf("%s-%s[items=%s,bins=%s]", prefix, c.Alg, c.ItemOrder, c.BinOrder)
}

// Pack attempts to pack every service at yield y under strategy c, returning
// the placement and whether it is complete. It is the one-shot convenience
// front-end; callers packing the same problem repeatedly (binary-search
// steps, meta-strategy rosters) should hold a Solver, which reuses all
// scratch state and sort permutations across calls.
func Pack(p *core.Problem, y float64, c Config) (core.Placement, bool) {
	return NewSolver(p).Pack(y, c)
}

// TryFunc attempts a packing at a yield, returning a complete placement and
// success. The placement only needs to stay valid until the next invocation
// of the same TryFunc: searches copy any placement they retain, so solvers
// may return views into reused scratch.
type TryFunc func(y float64) (core.Placement, bool)

// SearchOptions tunes SearchMaxYield.
type SearchOptions struct {
	// Tol is the binary-search stopping threshold (DefaultTolerance if <= 0).
	Tol float64
	// UpperBound, when non-nil, is consulted once per search for an a-priori
	// upper bound on the achievable yield — typically the LP relaxation
	// bound (LPBOUND, relax.UpperBound), which every integral solution
	// respects. A bound below 1 shrinks the initial bracket to [0, bound]
	// before any packing runs. Errors fall back to the unbounded bracket; a
	// negative bound (infeasible relaxation) collapses the bracket to the
	// single probe y=0.
	UpperBound func(p *core.Problem) (float64, error)
}

// SearchMaxYield performs the paper's binary search for the largest yield at
// which try succeeds. With no upper bound the probe sequence is exactly the
// classic search: try 1, try 0, then bisect [0, 1]. The returned result
// evaluates the best placement found, so the reported minimum yield can
// slightly exceed the search's lower bound.
func SearchMaxYield(p *core.Problem, opts SearchOptions, try TryFunc) *core.Result {
	tol := opts.Tol
	if tol <= 0 {
		tol = DefaultTolerance
	}
	hi := 1.0
	if opts.UpperBound != nil {
		if ub, err := opts.UpperBound(p); err == nil && ub < hi {
			if ub < 0 {
				ub = 0
			}
			hi = ub
		}
	}
	// The bracket top first: success there is optimal (up to the bound) and
	// short-circuits the search.
	if pl, ok := try(hi); ok {
		return core.EvaluatePlacement(p, pl)
	}
	if hi == 0 { //vmalloc:nondet-ok exact-zero bracket top short-circuits to the empty result
		return &core.Result{}
	}
	pl, ok := try(0)
	if !ok {
		return &core.Result{}
	}
	bestPl := pl.Clone()
	lo := 0.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if pl, ok := try(mid); ok {
			lo = mid
			bestPl = pl.Clone()
		} else {
			hi = mid
		}
	}
	return core.EvaluatePlacement(p, bestPl)
}

// Solve runs one packing strategy inside the yield binary search.
func Solve(p *core.Problem, c Config, tol float64) *core.Result {
	s := NewSolver(p)
	return SearchMaxYield(p, SearchOptions{Tol: tol}, func(y float64) (core.Placement, bool) {
		return s.Pack(y, c)
	})
}

// MetaVPConfigs returns the 33 homogeneous strategies of METAVP (§3.5.3):
// {FF, BF, PP} × 11 item orders, natural bin order.
func MetaVPConfigs() []Config {
	var out []Config
	for _, alg := range []Algorithm{FirstFit, BestFit, PermutationPack} {
		for _, io := range AllOrders() {
			out = append(out, Config{Alg: alg, ItemOrder: io, BinOrder: NoOrder})
		}
	}
	return out
}

// MetaVP runs the METAVP algorithm: at each binary-search step, all 33
// homogeneous strategies are tried until one succeeds.
func MetaVP(p *core.Problem, tol float64) *core.Result {
	return MetaConfigs(p, MetaVPConfigs(), tol)
}

// MetaConfigs is the generic meta-algorithm over an arbitrary strategy set:
// a binary-search step succeeds as soon as any strategy packs the instance.
// One Solver is shared across every strategy and every binary-search step,
// so the instance refresh at each new yield is a single O(J·D) pass and the
// sort permutations are computed once per distinct order, not per strategy.
func MetaConfigs(p *core.Problem, configs []Config, tol float64) *core.Result {
	return MetaConfigsSolver(NewSolver(p), configs, SearchOptions{Tol: tol})
}

// MetaConfigsSolver is MetaConfigs on a caller-owned Solver with search
// options (LP-bound bracketing). Long-lived callers that re-solve a mutating
// problem (online engines reallocating every epoch) hold one Solver for the
// cluster lifetime, Rebind it after editing the service list, and run the
// meta search here with warm bin-order caches and no per-epoch arena
// allocation. Each step first runs the O(J·H·D) StepFeasible
// necessary-condition check: a step no strategy can win is declared failed
// without packing at all. The strategy sweep is the exact sequential
// first-success scan, so results are identical to MetaConfigs on a fresh
// solver over the same problem.
func MetaConfigsSolver(s *Solver, configs []Config, opts SearchOptions) *core.Result {
	return SearchMaxYield(s.Problem(), opts, func(y float64) (core.Placement, bool) {
		if !s.StepFeasible(y) {
			return nil, false
		}
		for _, c := range configs {
			if pl, ok := s.Pack(y, c); ok {
				return pl, true
			}
		}
		return nil, false
	})
}
