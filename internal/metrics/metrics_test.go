package metrics

import (
	"math"
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_requests_total", "Requests.")
	v.With(L("path", "/a", "code", "200")).n.Add(3)
	v.With(L("path", "/b", "code", "404")).Inc()
	v.With(L("path", "/a", "code", "200")).Inc()

	out := render(t, r)
	for _, want := range []string{
		"# HELP test_requests_total Requests.\n",
		"# TYPE test_requests_total counter\n",
		`test_requests_total{path="/a",code="200"} 4` + "\n",
		`test_requests_total{path="/b",code="404"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Children render in first-use order.
	if strings.Index(out, `path="/a"`) > strings.Index(out, `path="/b"`) {
		t.Errorf("children out of first-use order:\n%s", out)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("test_seconds", "Latency.", []float64{0.1, 1, 10})
	h := v.With(nil)
	for _, x := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(x)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("Sum = %g", h.Sum())
	}
	out := render(t, r)
	for _, want := range []string{
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{le="0.1"} 1` + "\n",
		`test_seconds_bucket{le="1"} 3` + "\n",
		`test_seconds_bucket{le="10"} 4` + "\n",
		`test_seconds_bucket{le="+Inf"} 5` + "\n",
		"test_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCollectAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.Collect("test_gauge", "A gauge.", "gauge", func(emit func(Labels, float64)) {
		emit(L("name", "a\"b\\c\nd"), 2.5)
		emit(nil, 7)
	})
	out := render(t, r)
	if !strings.Contains(out, `test_gauge{name="a\"b\\c\nd"} 2.5`+"\n") {
		t.Errorf("label escaping broken:\n%s", out)
	}
	if !strings.Contains(out, "test_gauge 7\n") {
		t.Errorf("unlabelled sample missing:\n%s", out)
	}
}

func TestCollectHistogram(t *testing.T) {
	r := NewRegistry()
	r.CollectHistogram("test_batch", "Batch sizes.", func() HistogramSnapshot {
		return HistogramSnapshot{
			Bounds:    []float64{1, 8, 64},
			CumCounts: []uint64{2, 5, 9},
			Count:     10,
			Sum:       321,
		}
	})
	out := render(t, r)
	for _, want := range []string{
		"# TYPE test_batch histogram\n",
		`test_batch_bucket{le="1"} 2` + "\n",
		`test_batch_bucket{le="8"} 5` + "\n",
		`test_batch_bucket{le="64"} 9` + "\n",
		`test_batch_bucket{le="+Inf"} 10` + "\n",
		"test_batch_sum 321\n",
		"test_batch_count 10\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family registration did not panic")
		}
	}()
	r.NewCounterVec("dup_total", "y")
}

func TestHDRQuantiles(t *testing.T) {
	h := NewHDR()
	// 1..10000: quantiles are predictable and the tolerance follows from the
	// log-linear bucket width.
	for i := int64(1); i <= 10000; i++ {
		h.Record(i)
	}
	if h.count != 10000 || h.Max() != 10000 {
		t.Fatalf("count=%d Max=%d", h.count, h.Max())
	}
	if m := h.Mean(); math.Abs(m-5000.5) > 1e-6 {
		t.Fatalf("Mean = %g", m)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 5000}, {0.95, 9500}, {0.99, 9900}, {0.999, 9990},
	} {
		got := float64(h.Quantile(tc.q))
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.02 {
			t.Errorf("Quantile(%g) = %g, want %g ±2%%", tc.q, got, tc.want)
		}
		if got < tc.want-1 {
			t.Errorf("Quantile(%g) = %g underestimates %g", tc.q, got, tc.want)
		}
	}
	if q := h.Quantile(1); q != 10000 {
		t.Fatalf("Quantile(1) = %d, want exact max", q)
	}
}

func TestHDRSmallValuesExact(t *testing.T) {
	h := NewHDR()
	for i := int64(0); i < 64; i++ {
		h.Record(i)
	}
	// Below the linear/log boundary every value has its own bucket.
	if got := h.Quantile(0.5); got != 32 {
		t.Fatalf("Quantile(0.5) = %d, want 32", got)
	}
	h.Record(-5) // clamps to 0
	if h.count != 65 {
		t.Fatalf("count = %d", h.count)
	}
}

func TestHDRMerge(t *testing.T) {
	a, b := NewHDR(), NewHDR()
	for i := int64(1); i <= 100; i++ {
		a.Record(i)
		b.Record(i * 1000)
	}
	a.Merge(b)
	if a.count != 200 {
		t.Fatalf("merged count = %d", a.count)
	}
	if a.Max() != 100000 {
		t.Fatalf("merged Max = %d", a.Max())
	}
	if q := float64(a.Quantile(0.25)); math.Abs(q-50)/50 > 0.04 {
		t.Fatalf("merged Quantile(0.25) = %g, want ~50", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("c_seconds", "x", ExpBuckets(0.001, 2, 10)).With(nil)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				h.Observe(0.004)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if h.Count() != 4000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if math.Abs(h.Sum()-16) > 1e-9 {
		t.Fatalf("Sum = %g", h.Sum())
	}
}
