package vp

import (
	"vmalloc/internal/core"
	"vmalloc/internal/vec"
)

// PackNaive is the retained reference implementation of Pack: it rebuilds the
// packing instance from scratch, re-sorts items and bins per call, and uses
// the straightforward allocating vector operations in every inner loop —
// exactly the shape of the pre-arena hot path. It produces bit-identical
// placements to Solver.Pack and exists as the equivalence oracle for the
// property tests and as the baseline for the paper-scale speedup benchmarks.
func PackNaive(p *core.Problem, y float64, c Config) (core.Placement, bool) {
	inst := newInstanceNaive(p, y)
	items := c.ItemOrder.Sort(inst.ItemAgg)

	switch c.Alg {
	case FirstFit:
		bins := naiveBinOrder(p, c.BinOrder)
		for _, j := range items {
			ok := false
			for _, h := range bins {
				if naiveFits(inst, j, h) {
					inst.Place(j, h)
					ok = true
					break
				}
			}
			if !ok {
				return inst.Placement, false
			}
		}
	case BestFit:
		for _, j := range items {
			best, found := -1, false
			var bestScore float64
			for h := 0; h < p.NumNodes(); h++ {
				if !naiveFits(inst, j, h) {
					continue
				}
				var score float64
				if c.Hetero {
					// Least total remaining capacity wins.
					score = -inst.Remaining(h).Sum()
				} else {
					// Greatest total load wins.
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
	case PermutationPack, ChoosePack:
		naivePackByBins(inst, items, c)
	default:
		panic("vp: unknown algorithm")
	}
	return inst.Placement, inst.Done()
}

// newInstanceNaive freezes the problem at yield y the way the pre-arena
// implementation did: one fresh vector allocation per item pair and per bin,
// on every call.
func newInstanceNaive(p *core.Problem, y float64) *Instance {
	inst := &Instance{
		P:         p,
		Yield:     y,
		ItemAgg:   make([]vec.Vec, p.NumServices()),
		ItemElem:  make([]vec.Vec, p.NumServices()),
		Load:      make([]vec.Vec, p.NumNodes()),
		placed:    make([]bool, p.NumServices()),
		Placement: core.NewPlacement(p.NumServices()),
		remaining: p.NumServices(),
	}
	for j := range p.Services {
		s := &p.Services[j]
		inst.ItemAgg[j] = s.AggAt(y)
		inst.ItemElem[j] = s.ElemAt(y)
	}
	for h := range inst.Load {
		inst.Load[h] = vec.New(p.Dim())
	}
	return inst
}

// naiveFits is the allocating formulation of Instance.Fits.
func naiveFits(inst *Instance, j, h int) bool {
	n := &inst.P.Nodes[h]
	if !inst.ItemElem[j].LessEq(n.Elementary, core.DefaultEpsilon) {
		return false
	}
	return inst.Load[h].Add(inst.ItemAgg[j]).LessEq(n.Aggregate, core.DefaultEpsilon)
}

// naiveBinOrder re-sorts bin indices by aggregate capacity on every call.
func naiveBinOrder(p *core.Problem, o Order) []int {
	return o.Sort(binCaps(p))
}

// naivePackByBins is the Permutation-/Choose-Pack loop with per-call rank and
// key allocations.
func naivePackByBins(inst *Instance, items []int, c Config) {
	p := inst.P
	d := p.Dim()
	w := c.Window
	if w <= 0 || w > d {
		w = d
	}
	bins := naiveBinOrder(p, c.BinOrder)
	// Item dimension rankings are static for the whole pack.
	itemRank := make([][]int, p.NumServices())
	for _, j := range items {
		itemRank[j] = vec.Rank(inst.ItemAgg[j], true)
	}
	for _, h := range bins {
		for {
			var binRank []int
			if c.Hetero {
				binRank = vec.Rank(inst.Remaining(h), true)
			} else {
				binRank = vec.Rank(inst.Load[h], false)
			}
			best := -1
			var bestKey []int
			bestWithin := false
			for _, j := range items {
				if inst.placed[j] || !naiveFits(inst, j, h) {
					continue
				}
				key := vec.PermutationKey(binRank, itemRank[j])
				if c.Alg == ChoosePack {
					if bestWithin {
						continue
					}
					if vec.KeyWithinWindow(key, w) {
						best, bestKey, bestWithin = j, key, true
					} else if best == -1 || vec.CompareKeys(key, bestKey, w) < 0 {
						best, bestKey = j, key
					}
				} else if best == -1 || vec.CompareKeys(key, bestKey, w) < 0 {
					best, bestKey = j, key
				}
			}
			if best == -1 {
				break
			}
			inst.Place(best, h)
		}
	}
}

// SolveNaive runs one strategy inside the yield binary search with the naive
// packing path.
func SolveNaive(p *core.Problem, c Config, tol float64) *core.Result {
	return SearchMaxYield(p, SearchOptions{Tol: tol}, func(y float64) (core.Placement, bool) {
		return PackNaive(p, y, c)
	})
}

// MetaConfigsNaive is MetaConfigs over the naive packing path: every
// binary-search step rebuilds each strategy's instance and sort permutations
// from scratch. It probes exactly the same (yield, strategy) sequence as
// MetaConfigs, so the two must agree bit-for-bit.
func MetaConfigsNaive(p *core.Problem, configs []Config, tol float64) *core.Result {
	return SearchMaxYield(p, SearchOptions{Tol: tol}, func(y float64) (core.Placement, bool) {
		for _, c := range configs {
			if pl, ok := PackNaive(p, y, c); ok {
				return pl, true
			}
		}
		return nil, false
	})
}

// PackPermutationNaive is the reference implementation of Permutation-Pack
// following Leinberger et al. as described in §3.5.2: items are conceptually
// split into D! lists keyed by their dimension permutation, and for each bin
// the lists are probed in the bin's lexicographic preference order. It
// produces exactly the same packing as the improved key-mapping
// implementation (Pack with Alg=PermutationPack and a full window) but costs
// O(D!·J) per selection instead of O(J·D); it exists for the ablation
// benchmark and as a cross-check oracle in tests.
func PackPermutationNaive(p *core.Problem, y float64, itemOrder, binOrder Order) (core.Placement, bool) {
	inst := NewInstance(p, y)
	items := itemOrder.Sort(inst.ItemAgg)
	d := p.Dim()
	perms := permutations(d)

	itemRank := make([][]int, p.NumServices())
	for _, j := range items {
		itemRank[j] = vec.Rank(inst.ItemAgg[j], true)
	}

	for _, h := range binOrder.Sort(binCaps(p)) {
		for {
			binRank := vec.Rank(inst.Load[h], false)
			placed := false
			// Probe candidate keys from best (identity) to worst.
			for _, key := range perms {
				for _, j := range items {
					if inst.placed[j] || !inst.Fits(j, h) {
						continue
					}
					if !equalInts(vec.PermutationKey(binRank, itemRank[j]), key) {
						continue
					}
					inst.Place(j, h)
					placed = true
					break
				}
				if placed {
					break
				}
			}
			if !placed {
				break
			}
		}
	}
	return inst.Placement, inst.Done()
}

func binCaps(p *core.Problem) []vec.Vec {
	caps := make([]vec.Vec, p.NumNodes())
	for h := range caps {
		caps[h] = p.Nodes[h].Aggregate
	}
	return caps
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// permutations returns every permutation of 0..n-1 in lexicographic order.
func permutations(n int) [][]int {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var out [][]int
	var rec func(k int)
	used := make([]bool, n)
	perm := make([]int, n)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			perm[k] = v
			rec(k + 1)
			used[v] = false
		}
	}
	rec(0)
	return out
}
