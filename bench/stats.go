package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the "at least ten samples beyond" rule of the metrics guide:
// a percentile is only reported when this many samples lie above it.
const minBeyond = 10

// ladder lists the percentiles a timing may be reported at, ascending.
var ladder = []float64{50, 75, 90, 95, 99, 99.9}

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks; NaN on an empty set.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// beyond is the number of samples strictly past the pct-th percentile rank
// of n samples.
func beyond(n int, pct float64) int {
	// 99.9/100*10000 is 9990.000000000002 in floating point; the slack keeps
	// an exact rank from being rounded up to the next one.
	return n - int(math.Ceil(pct/100*float64(n)-1e-9))
}

// highestPercentile returns the highest ladder percentile that still has
// minBeyond samples beyond it, or 0 when not even the median does.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range ladder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// summary is a timing reported the way the guide asks: sample count, median,
// and one tail percentile with the number of samples beyond it.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	Beyond  int     `json:"beyond"`
	// Sound is false when fewer than minBeyond samples lie past the tail
	// percentile: the number is printed but flagged under-sampled.
	Sound bool `json:"sound"`
}

// summarise reports vals at the median and at tailPct. Each workload fixes
// its tail percentile from its designed sample count so the definition does
// not drift between runs; Sound says whether this run met the count.
func summarise(vals []float64, tailPct float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	b := beyond(len(s), tailPct)
	return summary{
		N: len(s), P50: quantile(s, 0.5),
		TailPct: tailPct, Tail: quantile(s, tailPct/100),
		Beyond: b, Sound: b >= minBeyond,
	}
}

// Interference from the shared host — a neighbour's burst, a stalled disk —
// only ever adds time. So a gated timing is not taken over the whole window
// at once: the window is cut into slices (passes over the same inputs, or
// equal stretches of a leg), each slice gives its own value, and the run
// reports the quartile on the undisturbed side — the lower one for a time,
// the upper one for a rate. Three slices in four may be disturbed before the
// number moves, and unlike a minimum it needs a quarter of them to agree.

// lowQuartile is the first quartile of the per-slice values, or whole — the
// value over the whole window — when the window was too short for one slice.
func lowQuartile(slices []float64, whole float64) float64 {
	if len(slices) == 0 {
		return whole
	}
	s := append([]float64(nil), slices...)
	sort.Float64s(s)
	return quantile(s, 0.25)
}

// highQuartile is the third quartile of the per-slice values, or whole.
func highQuartile(slices []float64, whole float64) float64 {
	if len(slices) == 0 {
		return whole
	}
	s := append([]float64(nil), slices...)
	sort.Float64s(s)
	return quantile(s, 0.75)
}

// sliced groups samples into slices of equal width by the time each was due
// (or sent) and returns the samples of every slice that is full: a last,
// partial slice is dropped.
type sliced struct {
	width time.Duration
	vals  map[int][]float64
	last  int
}

func newSliced(width time.Duration) *sliced {
	return &sliced{width: width, vals: map[int][]float64{}}
}

func (s *sliced) add(at time.Duration, v float64) {
	k := int(at / s.width)
	s.vals[k] = append(s.vals[k], v)
	s.last = max(s.last, k)
}

// each calls fn with every slice's samples, in time order, the partial last
// slice left out when end says where the leg stopped.
func (s *sliced) each(end time.Duration, fn func(vals []float64)) {
	for k := 0; k <= s.last; k++ {
		if time.Duration(k+1)*s.width > end {
			break
		}
		fn(s.vals[k])
	}
}

// median of vals (NaN when empty).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}
