// Package vec provides the small dense-vector arithmetic used throughout the
// resource-allocation library. A Vec holds one value per resource dimension
// (CPU, memory, ...). The package also implements the scalarization metrics
// that the paper's vector-packing heuristics use to order items and bins
// (MAX, SUM, MAXRATIO, MAXDIFFERENCE, LEX) and the dimension-permutation
// ranking used by Permutation-Pack.
package vec

import (
	"fmt"
	"math"
	"strings"
)

// Vec is a vector with one non-negative entry per resource dimension.
type Vec []float64

// New returns a zero vector with d dimensions.
func New(d int) Vec { return make(Vec, d) }

// Of returns a vector holding the given values.
func Of(vals ...float64) Vec {
	v := make(Vec, len(vals))
	copy(v, vals)
	return v
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	copy(c, v)
	return c
}

// Dim returns the number of dimensions.
func (v Vec) Dim() int { return len(v) }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec {
	mustMatch(v, w)
	r := make(Vec, len(v))
	for i := range v {
		r[i] = v[i] + w[i]
	}
	return r
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	mustMatch(v, w)
	r := make(Vec, len(v))
	for i := range v {
		r[i] = v[i] - w[i]
	}
	return r
}

// Scale returns v * s.
func (v Vec) Scale(s float64) Vec {
	r := make(Vec, len(v))
	for i := range v {
		r[i] = v[i] * s
	}
	return r
}

// AddScaled returns v + s*w without allocating intermediate vectors.
func (v Vec) AddScaled(s float64, w Vec) Vec {
	mustMatch(v, w)
	r := make(Vec, len(v))
	for i := range v {
		r[i] = v[i] + s*w[i]
	}
	return r
}

// AccumAdd adds w to v in place.
func (v Vec) AccumAdd(w Vec) {
	mustMatch(v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// Zero clears v in place.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// AccumSub subtracts w from v in place.
func (v Vec) AccumSub(w Vec) {
	mustMatch(v, w)
	for i := range v {
		v[i] -= w[i]
	}
}

// LessEq reports whether v <= w component-wise within tolerance eps
// (v[i] <= w[i] + eps for every i).
func (v Vec) LessEq(w Vec, eps float64) bool {
	mustMatch(v, w)
	for i := range v {
		if v[i] > w[i]+eps {
			return false
		}
	}
	return true
}

// AddFitsWithin reports whether load + add <= cap + eps in every dimension,
// without materializing the sum. It is the single authoritative kernel
// behind every packing/greedy fit check: the per-dimension expression
// load[d]+add[d] > cap[d]+eps matches the allocating
// load.Add(add).LessEq(cap, eps) formulation bit-for-bit.
func AddFitsWithin(load, add, cap Vec, eps float64) bool {
	for d := range load {
		if load[d]+add[d] > cap[d]+eps {
			return false
		}
	}
	return true
}

// SumDiff returns sum_d (a[d] - b[d]), accumulating per dimension in index
// order so the result is bit-identical to a.Sub(b).Sum() without the
// intermediate vector.
func SumDiff(a, b Vec) float64 {
	s := 0.0
	for d := range b {
		s += a[d] - b[d]
	}
	return s
}

// Max returns the largest component. Max of the empty vector is 0.
func (v Vec) Max() float64 {
	m := 0.0
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest component. Min of the empty vector is 0.
func (v Vec) Min() float64 {
	m := 0.0
	for i, x := range v {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of all components.
func (v Vec) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// IsZero reports whether every component is exactly zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 { //vmalloc:nondet-ok IsZero is an exact structural-zero predicate by contract
			return false
		}
	}
	return true
}

// String renders the vector as "[a b c]" with compact formatting.
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func mustMatch(v, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// Metric is a scalarization of a vector, used to sort items and bins in the
// vector-packing heuristics (paper §3.5). LEX does not map to a scalar; it is
// handled specially by Compare.
type Metric int

const (
	// MetricMax is the size of the maximum dimension.
	MetricMax Metric = iota
	// MetricSum is the sum of all dimensions.
	MetricSum
	// MetricMaxRatio is the ratio of maximum to minimum dimension.
	MetricMaxRatio
	// MetricMaxDifference is the difference between maximum and minimum
	// dimensions.
	MetricMaxDifference
	// MetricLex orders vectors lexicographically (dimension 0 first). It has
	// no scalar value; Scalar panics for it.
	MetricLex
)

// metricNames indexes Metric names for String.
var metricNames = [...]string{"MAX", "SUM", "MAXRATIO", "MAXDIFFERENCE", "LEX"}

// String returns the paper's name for the metric.
func (m Metric) String() string {
	if m < 0 || int(m) >= len(metricNames) {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricNames[m]
}

// Scalar returns the scalar value of v under metric m. It panics for
// MetricLex, which has no scalar form.
func (m Metric) Scalar(v Vec) float64 {
	switch m {
	case MetricMax:
		return v.Max()
	case MetricSum:
		return v.Sum()
	case MetricMaxRatio:
		mn := v.Min()
		if mn == 0 { //vmalloc:nondet-ok exact-zero capacity sentinel distinguishing 0/0 from division by zero
			if v.Max() == 0 { //vmalloc:nondet-ok exact-zero capacity sentinel distinguishing 0/0 from division by zero
				return 1 // 0/0: treat the zero vector as perfectly balanced
			}
			return math.Inf(1)
		}
		return v.Max() / mn
	case MetricMaxDifference:
		return v.Max() - v.Min()
	case MetricLex:
		panic("vec: MetricLex has no scalar value")
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", int(m)))
	}
}

// Compare orders v against w under metric m, returning a negative number if
// v sorts before w in ascending order, 0 if tied, positive otherwise.
func (m Metric) Compare(v, w Vec) int {
	if m == MetricLex {
		mustMatch(v, w)
		for i := range v {
			switch {
			case v[i] < w[i]:
				return -1
			case v[i] > w[i]:
				return 1
			}
		}
		return 0
	}
	a, b := m.Scalar(v), m.Scalar(w)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Metrics lists every metric in the order used by the paper's strategy
// enumerations.
func Metrics() []Metric {
	return []Metric{MetricMax, MetricSum, MetricMaxRatio, MetricMaxDifference, MetricLex}
}

// Rank returns the permutation of dimension indices that sorts v in the given
// direction; descending=true yields the dimensions from largest to smallest
// value. Ties are broken by dimension index so that the result is
// deterministic. The returned slice p satisfies: p[0] is the index of the
// largest (or smallest) component.
func Rank(v Vec, descending bool) []int {
	return RankInto(make([]int, len(v)), v, descending)
}

// RankInto is Rank writing the permutation into p (which must have len(v)
// entries) instead of allocating. It runs once per bin iteration inside the
// Permutation-Pack selection loop, so it uses a stable insertion sort over
// the handful of resource dimensions: zero allocations (sort.SliceStable's
// reflection swapper allocates) and the exact same permutation, since stable
// sorts under one ordering agree.
func RankInto(p []int, v Vec, descending bool) []int {
	if len(p) != len(v) {
		panic(fmt.Sprintf("vec: rank buffer has %d entries, want %d", len(p), len(v)))
	}
	for i := range p {
		p[i] = i
	}
	for i := 1; i < len(p); i++ {
		x := p[i]
		j := i - 1
		for j >= 0 {
			before := v[x] < v[p[j]]
			if descending {
				before = v[x] > v[p[j]]
			}
			if !before {
				break
			}
			p[j+1] = p[j]
			j--
		}
		p[j+1] = x
	}
	return p
}

// PermutationKey maps an item's dimension ranking into the permutation space
// defined by a bin's dimension ranking, as in the paper's improved
// Permutation-Pack implementation (§3.5.2): key[i] = position of the item's
// i-th ranked dimension within the bin's ranking. An item perfectly matched
// to the bin has key (0, 1, 2, ...).
func PermutationKey(binRank, itemRank []int) []int {
	pos := make([]int, len(binRank))
	key := make([]int, len(itemRank))
	return PermutationKeyInto(key, pos, binRank, itemRank)
}

// PermutationKeyInto is PermutationKey writing into key, with pos as scratch
// (both must have the rank length); the selection loops of Permutation-Pack
// call it once per candidate item, so it must not allocate. When the same
// binRank is reused across items, RankPositionsInto lets callers hoist the
// pos computation out of the item loop.
func PermutationKeyInto(key, pos, binRank, itemRank []int) []int {
	if len(binRank) != len(itemRank) {
		panic("vec: permutation rank length mismatch")
	}
	RankPositionsInto(pos, binRank)
	for i, d := range itemRank {
		key[i] = pos[d]
	}
	return key
}

// RankPositionsInto inverts a rank permutation: pos[d] = position of
// dimension d within rank.
func RankPositionsInto(pos, rank []int) {
	for i, d := range rank {
		pos[d] = i
	}
}

// CompareKeys compares two permutation keys lexicographically over the first
// w entries (the "window"). If w <= 0 or exceeds the key length, the whole
// key is compared.
func CompareKeys(a, b []int, w int) int {
	n := len(a)
	if w > 0 && w < n {
		n = w
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// KeyWithinWindow reports whether two permutation keys agree as *sets* over
// the first w positions, the relaxation used by Choose-Pack: the item's top-w
// dimensions land inside the bin's top-w positions, ignoring order.
func KeyWithinWindow(key []int, w int) bool {
	if w <= 0 || w >= len(key) {
		w = len(key)
	}
	for i := 0; i < w; i++ {
		if key[i] >= w {
			return false
		}
	}
	return true
}
