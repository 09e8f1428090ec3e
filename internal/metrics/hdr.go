package metrics

import "math/bits"

// hdrSubBits sets the HDR histogram resolution: every power-of-two value
// range is split into 2^hdrSubBits linear sub-buckets, bounding the relative
// quantile error at 2^-hdrSubBits (~1.6%).
const hdrSubBits = 6

const hdrFirstLinear = 1 << hdrSubBits

// hdrBuckets covers the full non-negative int64 range: the linear prefix
// plus one sub-bucket block per remaining exponent.
const hdrBuckets = hdrFirstLinear + (63-hdrSubBits)*hdrFirstLinear

// HDR is a log-linear ("HDR-style") histogram of non-negative int64 values —
// latencies in nanoseconds, in practice. Small values are recorded exactly;
// larger ones land in sub-buckets whose width is a fixed fraction of the
// value, so quantiles up to p999 and beyond carry a bounded ~1.6% relative
// error regardless of range. Recording is O(1) with no allocation.
//
// HDR is not safe for concurrent use: give each worker its own and Merge.
type HDR struct {
	counts [hdrBuckets]uint64
	count  uint64
	sum    float64
	max    int64
}

// NewHDR returns an empty histogram.
func NewHDR() *HDR { return &HDR{} }

func hdrIndex(v int64) int {
	u := uint64(v)
	if u < hdrFirstLinear {
		return int(u)
	}
	exp := bits.Len64(u) - hdrSubBits // >= 1
	m := (u >> uint(exp-1)) - hdrFirstLinear
	return hdrFirstLinear + (exp-1)*hdrFirstLinear + int(m)
}

// hdrUpper returns the inclusive upper edge of bucket i, so quantiles err
// toward reporting slightly slower, never slightly faster.
func hdrUpper(i int) int64 {
	if i < hdrFirstLinear {
		return int64(i)
	}
	exp := (i-hdrFirstLinear)/hdrFirstLinear + 1
	m := uint64((i - hdrFirstLinear) % hdrFirstLinear)
	lo := (hdrFirstLinear + m) << uint(exp-1)
	return int64(lo + (1 << uint(exp-1)) - 1)
}

// Record adds one value (negative values count as zero).
func (h *HDR) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[hdrIndex(v)]++
	h.count++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

// Max returns the largest recorded value (0 when empty).
func (h *HDR) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *HDR) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the value at quantile q in [0, 1] — the upper edge of the
// bucket containing the q-th ordered observation (the exact Max for q >= 1).
// Returns 0 when empty.
func (h *HDR) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i]
		if cum > rank {
			v := hdrUpper(i)
			if v > h.max {
				return h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds o's observations into h.
func (h *HDR) Merge(o *HDR) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
