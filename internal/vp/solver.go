package vp

import (
	"vmalloc/internal/core"
	"vmalloc/internal/sliceutil"
	"vmalloc/internal/vec"
)

// Solver is the reusable, allocation-free search core behind the METAVP /
// METAHVP meta-heuristics. It owns one arena-backed Instance plus every
// scratch buffer the packing loops need, and caches sort permutations:
//
//   - bin orders depend only on node capacities, never on the yield, so each
//     distinct bin Order is sorted exactly once per Solver lifetime;
//   - item orders are computed once per (order, yield) and shared among all
//     strategies of a meta step that use the same Order — most of the 253
//     METAHVP configs differ only in packing rule, not order;
//   - item orders whose key is provably monotone in r + y·n (SUM, LEX and
//     NONE with matching endpoint permutations) are cached across binary-
//     search steps entirely;
//   - the per-item dimension rankings used by Permutation-/Choose-Pack are
//     computed once per yield and shared by all 121+ PP/CP strategies.
//
// A handful of lazy one-time allocations remain after the constructor: the
// cache entry of each first-seen Order (plus, for the first SUM/LEX order,
// the endpoint vectors backing invariance detection) and the item-rank table
// on the first Permutation-/Choose-Pack call. Once those caches are warm,
// repacking is allocation-free at any yield. A Solver is not safe for
// concurrent use; parallel metas hold one Solver per worker.
type Solver struct {
	p    *core.Problem
	inst *Instance

	// caps[h] aliases node h's aggregate capacity vector for bin sorting.
	caps []vec.Vec

	// capTotal[d] = total aggregate capacity; reqTotal/needTotal are the
	// summed service requirement and need vectors, so StepFeasible can bound
	// total demand at yield y as reqTotal + y·needTotal in O(D).
	capTotal, reqTotal, needTotal []float64

	binOrders  map[Order][]int
	itemOrders map[Order]*itemOrderEntry

	// Yield-1 demand vectors (r+n) and yield-0 requirement views, built
	// lazily for yield-invariance detection of item orders; endpointBuf backs
	// demandVecs and survives Rebind, permBuf is the endpoint-permutation
	// scratch of invariance detection.
	demandVecs    []vec.Vec
	reqVecs       []vec.Vec
	endpointBuf   []float64
	permBuf       []int
	haveEndpoints bool

	// itemRank[j] ranks item j's aggregate dimensions descending; valid for
	// the current yield when haveItemRank.
	itemRank     [][]int
	itemRankBuf  []int
	haveItemRank bool

	// elemFit[j*H+h] caches whether item j's elementary vector fits node h.
	// Elementary fits depend only on the yield, never on bin loads, so one
	// O(J·H·D) pass per yield serves every strategy of the step.
	elemFit     []bool
	haveElemFit bool

	// live is the unplaced-item scratch list of packByBins.
	live []int

	// Scratch for the packing loops (all of dimension D).
	binRank, pos, key, bestKey []int
	rem                        vec.Vec

	yield     float64
	haveYield bool

	// stats counts packing work since the last TakeStats. Plain fields, not
	// atomics: a Solver is single-threaded by contract (parallel meta search
	// gives each worker its own Solver), and the pack loop must stay
	// allocation- and contention-free.
	stats Stats
}

// Stats counts a Solver's work: packing attempts, successful packs, and
// meta steps pruned by the StepFeasible bound before any strategy ran.
type Stats struct {
	Packs       uint64
	PacksSolved uint64
	StepsPruned uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Packs += o.Packs
	s.PacksSolved += o.PacksSolved
	s.StepsPruned += o.StepsPruned
}

// TakeStats returns the counters accumulated since the last call and resets
// them. Call between epochs from the goroutine that owns the Solver.
func (s *Solver) TakeStats() Stats {
	st := s.stats
	s.stats = Stats{}
	return st
}

// itemOrderEntry caches one item-order permutation. invariant entries stay
// valid at every yield; others are refreshed per binary-search step.
type itemOrderEntry struct {
	perm      []int
	invariant bool
	valid     bool
}

// NewSolver returns a Solver for p with all backing arrays allocated.
func NewSolver(p *core.Problem) *Solver {
	d := p.Dim()
	s := &Solver{
		p:          p,
		inst:       NewInstance(p, 0),
		caps:       make([]vec.Vec, p.NumNodes()),
		binOrders:  make(map[Order][]int),
		itemOrders: make(map[Order]*itemOrderEntry),
		elemFit:    make([]bool, p.NumServices()*p.NumNodes()),
		live:       make([]int, 0, p.NumServices()),
		binRank:    make([]int, d),
		pos:        make([]int, d),
		key:        make([]int, d),
		bestKey:    make([]int, d),
		rem:        vec.New(d),
		haveYield:  true, // inst is fresh at yield 0
	}
	s.capTotal = make([]float64, d)
	s.reqTotal = make([]float64, d)
	s.needTotal = make([]float64, d)
	for h := range s.caps {
		s.caps[h] = p.Nodes[h].Aggregate
		for dd := 0; dd < d; dd++ {
			s.capTotal[dd] += p.Nodes[h].Aggregate[dd]
		}
	}
	for j := range p.Services {
		svc := &p.Services[j]
		for dd := 0; dd < d; dd++ {
			s.reqTotal[dd] += svc.ReqAgg[dd]
			s.needTotal[dd] += svc.NeedAgg[dd]
		}
	}
	return s
}

// Problem returns the problem this solver packs.
func (s *Solver) Problem() *core.Problem { return s.p }

// Rebind re-points the solver at problem p after its service list changed,
// reusing every backing array whose capacity still suffices and every cache
// that does not depend on the service list. The platform must be unchanged:
// same node count, dimensionality and capacity vectors (value-checked).
// Under that contract the bin-order permutations and capacity totals carry
// over verbatim, while all per-service state — instance arena, demand
// totals, item-order entries with their yield-invariance proofs, item ranks
// and fit caches — is rebuilt for the new list. Typically p is the same
// *core.Problem the solver was constructed on with Services rewritten in
// place between epochs of an online cluster; a rebound solver behaves
// exactly like a freshly constructed one, at amortized zero allocation.
func (s *Solver) Rebind(p *core.Problem) {
	d := s.p.Dim()
	if p.NumNodes() != s.p.NumNodes() || p.Dim() != d {
		panic("vp: Rebind requires an unchanged platform shape")
	}
	for h := range s.caps {
		agg := p.Nodes[h].Aggregate
		for dd := 0; dd < d; dd++ {
			if s.caps[h][dd] != agg[dd] { //vmalloc:nondet-ok cache validity requires bit-identity with the cached capacities
				panic("vp: Rebind requires unchanged node capacities")
			}
		}
		s.caps[h] = agg
	}
	s.p = p
	s.inst.Rebind(p)
	j := p.NumServices()
	for dd := 0; dd < d; dd++ {
		s.reqTotal[dd], s.needTotal[dd] = 0, 0
	}
	for i := range p.Services {
		svc := &p.Services[i]
		for dd := 0; dd < d; dd++ {
			s.reqTotal[dd] += svc.ReqAgg[dd]
			s.needTotal[dd] += svc.NeedAgg[dd]
		}
	}
	s.haveEndpoints = false
	for o, e := range s.itemOrders { //vmalloc:nondet-ok per-entry permutations are rebuilt independently; result is order-free
		s.initItemOrderEntry(o, e)
	}
	if s.itemRank != nil {
		s.itemRankBuf = sliceutil.Grow(s.itemRankBuf, j*d)
		s.itemRank = sliceutil.Grow(s.itemRank, j)
		for i := 0; i < j; i++ {
			s.itemRank[i] = s.itemRankBuf[i*d : (i+1)*d]
		}
	}
	s.haveItemRank = false
	s.elemFit = sliceutil.Grow(s.elemFit, j*p.NumNodes())
	s.haveElemFit = false
	s.haveYield = false // force an instance Reset on the next prepare
}

// prepare brings the arena to yield y: an O(J·D) refresh plus cache
// invalidation when the yield changed, or a load/placement clear when it
// did not.
func (s *Solver) prepare(y float64) {
	if !s.haveYield || s.yield != y { //vmalloc:nondet-ok cache key match requires bit-identity with the cached yield
		s.inst.Reset(y)
		s.yield, s.haveYield = y, true
		for _, e := range s.itemOrders { //vmalloc:nondet-ok only clears per-entry valid flags; result is order-free
			if !e.invariant {
				e.valid = false
			}
		}
		s.haveItemRank = false
		s.haveElemFit = false
	} else {
		s.inst.Clear()
	}
}

// fits is Instance.Fits with the elementary half served from the per-yield
// cache.
func (s *Solver) fits(j, h int) bool {
	if !s.elemFit[j*s.p.NumNodes()+h] {
		return false
	}
	n := &s.p.Nodes[h]
	return vec.AddFitsWithin(s.inst.Load[h], s.inst.ItemAgg[j], n.Aggregate, core.DefaultEpsilon)
}

// ensureElemFit fills the elementary-fit cache for the current yield.
func (s *Solver) ensureElemFit() {
	if s.haveElemFit {
		return
	}
	numNodes := s.p.NumNodes()
	for j := range s.inst.ItemElem {
		elem := s.inst.ItemElem[j]
		for h := 0; h < numNodes; h++ {
			s.elemFit[j*numNodes+h] = elem.LessEq(s.p.Nodes[h].Elementary, core.DefaultEpsilon)
		}
	}
	s.haveElemFit = true
}

// StepFeasible reports whether any packing strategy could possibly produce a
// complete placement at yield y. It checks two necessary conditions every
// complete placement satisfies under the Fits tolerance: the total item
// demand fits the total bin capacity per dimension, and every single item
// fits at least one empty bin. When either fails, all strategies of a meta
// step must fail, so the step can be declared unsuccessful in O(J·H·D)
// instead of running the full strategy roster — the cheap complement to the
// LP bracket bound for the yields inside the bracket. A true result promises
// nothing; a false result is exact (up to a conservative margin on the
// aggregate sums), so meta results stay bit-identical.
func (s *Solver) StepFeasible(y float64) bool {
	s.prepare(y)
	inst := s.inst
	numNodes := s.p.NumNodes()
	// Each bin's final per-dimension load may exceed its capacity by at most
	// DefaultEpsilon under Fits, so any packable instance keeps total demand
	// within H·eps of total capacity. The remaining terms absorb
	// floating-point summation error — the gap between what packing actually
	// accumulates (Σ fl(r+y·n)) and the precomputed reqTotal + y·needTotal —
	// scaled to the magnitude of the totals so large-valued problems (e.g.
	// capacities in KB) are never wrongly pruned, plus a small absolute
	// floor for near-zero scales.
	fpSlack := 64 * float64(s.p.NumServices()+2) * ulp
	for d, cap := range s.capTotal {
		margin := float64(numNodes)*core.DefaultEpsilon + 1e-9 +
			fpSlack*(cap+s.reqTotal[d]+s.needTotal[d])
		if s.reqTotal[d]+y*s.needTotal[d] > cap+margin {
			s.stats.StepsPruned++
			return false
		}
	}
	s.ensureElemFit()
	for j := range inst.ItemAgg {
		ok := false
		for h := 0; h < numNodes; h++ {
			if s.fits(j, h) {
				ok = true
				break
			}
		}
		if !ok {
			s.stats.StepsPruned++
			return false
		}
	}
	return true
}

// Pack attempts to pack every service at yield y under strategy c. The
// returned placement is a view into the solver's arena: it is valid only
// until the next Pack call, and callers that retain it must Clone it.
func (s *Solver) Pack(y float64, c Config) (core.Placement, bool) {
	s.stats.Packs++
	s.prepare(y)
	s.ensureElemFit()
	items := s.itemOrderPerm(c.ItemOrder)
	var pl core.Placement
	var ok bool
	switch c.Alg {
	case FirstFit:
		pl, ok = s.packFirstFit(items, c)
	case BestFit:
		pl, ok = s.packBestFit(items, c)
	case PermutationPack, ChoosePack:
		pl, ok = s.packByBins(items, c)
	default:
		panic("vp: unknown algorithm")
	}
	if ok {
		s.stats.PacksSolved++
	}
	return pl, ok
}

// binOrderPerm returns bin indices sorted by aggregate capacity under o,
// cached for the Solver's lifetime (capacities are yield-invariant).
func (s *Solver) binOrderPerm(o Order) []int {
	if perm, ok := s.binOrders[o]; ok {
		return perm
	}
	perm := o.SortInto(make([]int, len(s.caps)), s.caps)
	s.binOrders[o] = perm
	return perm
}

// itemOrderPerm returns item indices ordered by o over the current item
// aggregate vectors, shared by every strategy of the current step that uses
// the same order, and across steps when the order is yield-invariant.
func (s *Solver) itemOrderPerm(o Order) []int {
	e := s.itemOrders[o]
	if e == nil {
		e = s.newItemOrderEntry(o)
		s.itemOrders[o] = e
	}
	if !e.valid {
		o.SortInto(e.perm, s.inst.ItemAgg)
		e.valid = true
	}
	return e.perm
}

// newItemOrderEntry builds the cache entry for a first-seen item order,
// detecting yield invariance from the bracket endpoint permutations.
//
// Item vectors are r + y·n, so every scalar key that is a *linear* function
// of the vector (SUM) — and lexicographic comparison, whose per-dimension
// comparisons are linear — evolves linearly in y in exact arithmetic: two
// linear keys that do not cross order between y=0 and y=1 cannot cross
// anywhere inside the bracket. Floating point breaks pure linearity (the
// computed key fl(r + y·n) can wobble by a few ulps between endpoints), so
// endpoint agreement alone is NOT sufficient; an order is only marked
// invariant when every adjacent pair in the sorted permutation is separated
// by more than the maximum possible rounding wobble at both endpoints (or
// is bitwise-identical, hence tied at every yield). MAX, MAXRATIO and
// MAXDIFFERENCE are only piecewise linear in y and may genuinely dip
// between endpoints, so they are never treated as invariant.
func (s *Solver) newItemOrderEntry(o Order) *itemOrderEntry {
	e := &itemOrderEntry{}
	s.initItemOrderEntry(o, e)
	return e
}

// initItemOrderEntry (re)builds an order-cache entry against the solver's
// current service list, re-running invariance detection; Rebind re-inits
// every cached entry through here so stale permutations and stale invariance
// proofs can never leak across epochs.
func (s *Solver) initItemOrderEntry(o Order, e *itemOrderEntry) {
	j := s.p.NumServices()
	e.perm = sliceutil.Grow(e.perm, j)
	e.invariant, e.valid = false, false
	if o.None {
		o.SortInto(e.perm, s.inst.ItemAgg)
		e.invariant, e.valid = true, true
		return
	}
	if o.Metric == vec.MetricSum || o.Metric == vec.MetricLex {
		s.ensureEndpointVecs()
		s.permBuf = sliceutil.Grow(s.permBuf, j)
		permAt1 := s.permBuf
		o.SortInto(e.perm, s.reqVecs)
		o.SortInto(permAt1, s.demandVecs)
		if equalPerms(e.perm, permAt1) && s.orderYieldInvariant(o, e.perm) {
			e.invariant, e.valid = true, true
		}
	}
}

func equalPerms(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ulp is the float64 machine epsilon used to bound rounding wobble in the
// invariance margins.
const ulp = 0x1p-52

// servicesIdentical reports whether two services' aggregate requirement and
// need vectors are component-wise equal, in which case their item vectors
// are the result of identical computations at every yield.
func (s *Solver) servicesIdentical(a, b int) bool {
	sa, sb := &s.p.Services[a], &s.p.Services[b]
	for d := range sa.ReqAgg {
		if sa.ReqAgg[d] != sb.ReqAgg[d] || sa.NeedAgg[d] != sb.NeedAgg[d] { //vmalloc:nondet-ok comparator tie-break: exact equality is required for a deterministic total order
			return false
		}
	}
	return true
}

// orderYieldInvariant verifies, pair by adjacent pair of the sorted
// permutation, that the computed keys keep their strict order at every yield
// in [0,1]. For each non-identical pair the computed-key gap must exceed a
// conservative bound on the floating-point deviation of fl(r + y·n)-derived
// keys from their exact linear interpolation, at both bracket endpoints;
// exact linearity then pins the order everywhere inside. Computed ties
// between non-identical services fail the margin and correctly bail out:
// their true keys may differ and cross between the endpoints even when the
// rounded endpoint keys agree bitwise.
func (s *Solver) orderYieldInvariant(o Order, perm []int) bool {
	d := s.p.Dim()
	for t := 0; t+1 < len(perm); t++ {
		a, b := perm[t], perm[t+1]
		if s.servicesIdentical(a, b) {
			continue
		}
		var g0, g1, margin float64
		switch o.Metric {
		case vec.MetricSum:
			s0a, s0b := s.reqVecs[a].Sum(), s.reqVecs[b].Sum()
			s1a, s1b := s.demandVecs[a].Sum(), s.demandVecs[b].Sum()
			g0, g1 = s0b-s0a, s1b-s1a
			// Per-item key error: one rounding for y·n, one for r+·, plus
			// D-term accumulation — within (D+2)·ulp of the exact sum, which
			// is itself bounded by the yield-1 sum (all entries
			// non-negative). Factor 4 for slack.
			margin = 4 * float64(d+2) * ulp * (s1a + s1b)
		case vec.MetricLex:
			// Dimensions where both services carry bitwise-equal (r, n)
			// compute bitwise-equal components at every yield; the first
			// differing dimension must therefore decide the comparison, with
			// margin, at both endpoints.
			dd := 0
			sa, sb := &s.p.Services[a], &s.p.Services[b]
			for dd < d && sa.ReqAgg[dd] == sb.ReqAgg[dd] && sa.NeedAgg[dd] == sb.NeedAgg[dd] { //vmalloc:nondet-ok comparator tie-break: exact equality is required for a deterministic total order
				dd++
			}
			if dd == d {
				continue // identical (handled above, kept for safety)
			}
			g0 = s.reqVecs[b][dd] - s.reqVecs[a][dd]
			g1 = s.demandVecs[b][dd] - s.demandVecs[a][dd]
			// Component error: two roundings in fl(r + y·n), bounded by the
			// yield-1 component values. Factor 8 for slack.
			margin = 8 * ulp * (s.demandVecs[a][dd] + s.demandVecs[b][dd])
		default:
			return false
		}
		if o.Descending {
			g0, g1 = -g0, -g1
		}
		if g0 <= margin || g1 <= margin {
			return false
		}
	}
	return true
}

// ensureEndpointVecs lazily builds the item vectors at the bracket endpoints
// y=0 (requirements) and y=1 (requirements plus needs), reusing the backing
// buffer across Rebind cycles.
func (s *Solver) ensureEndpointVecs() {
	if s.haveEndpoints {
		return
	}
	d := s.p.Dim()
	j := s.p.NumServices()
	s.reqVecs = sliceutil.Grow(s.reqVecs, j)
	s.demandVecs = sliceutil.Grow(s.demandVecs, j)
	s.endpointBuf = sliceutil.Grow(s.endpointBuf, j*d)
	for i := 0; i < j; i++ {
		svc := &s.p.Services[i]
		s.reqVecs[i] = svc.ReqAgg
		dem := vec.Vec(s.endpointBuf[i*d : (i+1)*d])
		for dd := range dem {
			dem[dd] = svc.ReqAgg[dd] + 1*svc.NeedAgg[dd]
		}
		s.demandVecs[i] = dem
	}
	s.haveEndpoints = true
}

// itemRanks returns the per-item descending dimension rankings for the
// current yield, computing them once and sharing them across every
// Permutation-/Choose-Pack strategy of the step.
func (s *Solver) itemRanks() [][]int {
	if s.haveItemRank {
		return s.itemRank
	}
	d := s.p.Dim()
	if s.itemRank == nil {
		j := s.p.NumServices()
		s.itemRank = make([][]int, j)
		s.itemRankBuf = make([]int, j*d)
		for i := range s.itemRank {
			s.itemRank[i] = s.itemRankBuf[i*d : (i+1)*d]
		}
	}
	for i := range s.itemRank {
		vec.RankInto(s.itemRank[i], s.inst.ItemAgg[i], true)
	}
	s.haveItemRank = true
	return s.itemRank
}

// packFirstFit places each item in the first bin (in bin order) that fits.
func (s *Solver) packFirstFit(items []int, c Config) (core.Placement, bool) {
	inst := s.inst
	bins := s.binOrderPerm(c.BinOrder)
	for _, j := range items {
		ok := false
		for _, h := range bins {
			if s.fits(j, h) {
				inst.Place(j, h)
				ok = true
				break
			}
		}
		if !ok {
			return inst.Placement, false
		}
	}
	return inst.Placement, inst.Done()
}

// packBestFit places each item in the fullest feasible bin: greatest load
// sum in the homogeneous variant, least remaining capacity sum in the
// heterogeneous variant.
func (s *Solver) packBestFit(items []int, c Config) (core.Placement, bool) {
	inst := s.inst
	numNodes := s.p.NumNodes()
	for _, j := range items {
		best, found := -1, false
		var bestScore float64
		for h := 0; h < numNodes; h++ {
			if !s.fits(j, h) {
				continue
			}
			var score float64
			if c.Hetero {
				score = -inst.remainingSum(h)
			} else {
				score = inst.Load[h].Sum()
			}
			if !found || score > bestScore {
				best, bestScore, found = h, score, true
			}
		}
		if !found {
			return inst.Placement, false
		}
		inst.Place(j, best)
	}
	return inst.Placement, inst.Done()
}

// packByBins runs the Permutation-Pack / Choose-Pack loop: for each bin in
// order, repeatedly select the unplaced fitting item whose dimension
// permutation best complements the bin, until nothing more fits.
func (s *Solver) packByBins(items []int, c Config) (core.Placement, bool) {
	inst := s.inst
	d := s.p.Dim()
	w := c.Window
	if w <= 0 || w > d {
		w = d
	}
	bins := s.binOrderPerm(c.BinOrder)
	ranks := s.itemRanks()
	// live holds the unplaced items in item order; placements compact it so
	// every selection scan touches only candidates still in play. Iteration
	// order (hence tie-breaking) is exactly the placed-item-skipping scan of
	// the naive reference.
	live := append(s.live[:0], items...)
	for _, h := range bins {
		for {
			// Rank the bin's dimensions: ascending load (homogeneous) or,
			// equivalently for the heterogeneous variant, descending
			// remaining capacity.
			if c.Hetero {
				inst.remainingInto(s.rem, h)
				vec.RankInto(s.binRank, s.rem, true)
			} else {
				vec.RankInto(s.binRank, inst.Load[h], false)
			}
			vec.RankPositionsInto(s.pos, s.binRank)
			best, bestIdx := -1, -1
			for idx, j := range live {
				if !s.fits(j, h) {
					continue
				}
				ir := ranks[j]
				for i := 0; i < d; i++ {
					s.key[i] = s.pos[ir[i]]
				}
				if c.Alg == ChoosePack {
					// The first within-window item in item order wins — the
					// scan can stop there; with none in the window, fall back
					// to lexicographic keys.
					if vec.KeyWithinWindow(s.key, w) {
						best, bestIdx = j, idx
						copy(s.bestKey, s.key)
						break
					}
					if best == -1 || vec.CompareKeys(s.key, s.bestKey, w) < 0 {
						best, bestIdx = j, idx
						copy(s.bestKey, s.key)
					}
				} else if best == -1 || vec.CompareKeys(s.key, s.bestKey, w) < 0 {
					best, bestIdx = j, idx
					copy(s.bestKey, s.key)
				}
			}
			if best == -1 {
				break
			}
			inst.Place(best, h)
			live = append(live[:bestIdx], live[bestIdx+1:]...)
		}
	}
	return inst.Placement, inst.Done()
}
