package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarise(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	s := summarise(vals, 90)
	if s.N != 100 || s.Beyond != 10 || !s.Sound {
		t.Errorf("n=%d beyond=%d sound=%v, want 100, 10, true", s.N, s.Beyond, s.Sound)
	}
	if math.Abs(s.P50-50.5) > 1e-9 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("p50=%g p90=%g, want 50.5 and 90.1", s.P50, s.Tail)
	}
	if vals[0] != 100 {
		t.Error("summarise reordered its input")
	}
	if s := summarise(vals, 99); s.Beyond != 1 || s.Sound {
		t.Errorf("p99 of 100 samples: beyond=%d sound=%v, want 1 and flagged", s.Beyond, s.Sound)
	}
	if s := summarise(nil, 90); s.N != 0 || !math.IsNaN(s.P50) {
		t.Errorf("empty set: n=%d p50=%g", s.N, s.P50)
	}
}

func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if spread([]float64{1, 2, 3}) != 0 {
		t.Error("three values should give no spread evidence")
	}
}

func TestQuartilesTakeTheUndisturbedSide(t *testing.T) {
	// Eight slices at 10 ms, five of them disturbed: the lower quartile
	// still reads 10, the median would not.
	ms := []float64{10, 18, 10, 25, 14, 10, 30, 16}
	if got := lowQuartile(ms, 0); got != 10 {
		t.Errorf("lowQuartile = %g, want 10", got)
	}
	if got := median(ms); got <= 10 {
		t.Errorf("median = %g: the test's disturbance is too mild", got)
	}
	rates := []float64{900, 400, 880, 910, 300, 905, 100, 890}
	if got := highQuartile(rates, 0); got < 900 || got > 910 {
		t.Errorf("highQuartile = %g, want within the undisturbed 900..910", got)
	}
	if lowQuartile(nil, 7) != 7 || highQuartile(nil, 9) != 9 {
		t.Error("a window too short for a slice should report its whole-window value")
	}
}

func TestSlicedDropsThePartialLastSlice(t *testing.T) {
	s := newSliced(time.Second)
	for i := 0; i < 35; i++ { // one sample every 100 ms for 3.5 s
		s.add(time.Duration(i)*100*time.Millisecond, float64(i))
	}
	var sizes []int
	s.each(3500*time.Millisecond, func(vals []float64) { sizes = append(sizes, len(vals)) })
	if len(sizes) != 3 || sizes[0] != 10 || sizes[2] != 10 {
		t.Errorf("slices %v, want three full ones of 10", sizes)
	}
	// A slice nothing arrived in is still a slice: an empty one.
	gap := newSliced(time.Second)
	gap.add(0, 1)
	gap.add(2500*time.Millisecond, 1)
	n := 0
	gap.each(3*time.Second, func(vals []float64) { n++ })
	if n != 3 {
		t.Errorf("%d slices over 3 s with an idle second, want 3", n)
	}
}
