package vec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAndOf(t *testing.T) {
	v := New(3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
	if !v.IsZero() {
		t.Fatalf("New vector should be zero, got %v", v)
	}
	w := Of(1, 2, 3)
	if w[0] != 1 || w[1] != 2 || w[2] != 3 {
		t.Fatalf("Of returned %v", w)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Of(1, 2)
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliases original: %v", v)
	}
}

func TestArithmetic(t *testing.T) {
	v := Of(1, 2, 3)
	w := Of(4, 5, 6)
	if got := v.Add(w); !reflect.DeepEqual(got, Of(5, 7, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); !reflect.DeepEqual(got, Of(3, 3, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); !reflect.DeepEqual(got, Of(2, 4, 6)) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.AddScaled(2, w); !reflect.DeepEqual(got, Of(9, 12, 15)) {
		t.Errorf("AddScaled = %v", got)
	}
}

func TestAccumOps(t *testing.T) {
	v := Of(1, 2)
	v.AccumAdd(Of(3, 4))
	if !reflect.DeepEqual(v, Of(4, 6)) {
		t.Fatalf("AccumAdd = %v", v)
	}
	v.AccumSub(Of(1, 1))
	if !reflect.DeepEqual(v, Of(3, 5)) {
		t.Fatalf("AccumSub = %v", v)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Of(1, 2).Add(Of(1, 2, 3))
}

func TestLessEq(t *testing.T) {
	tests := []struct {
		v, w Vec
		eps  float64
		want bool
	}{
		{Of(1, 1), Of(1, 1), 0, true},
		{Of(1, 2), Of(1, 1), 0, false},
		{Of(1.00005, 1), Of(1, 1), 1e-4, true},
		{Of(0, 0), Of(1, 1), 0, true},
		{Of(2, 0), Of(1, 1), 0, false},
	}
	for i, tc := range tests {
		if got := tc.v.LessEq(tc.w, tc.eps); got != tc.want {
			t.Errorf("case %d: LessEq(%v,%v,%g) = %v, want %v", i, tc.v, tc.w, tc.eps, got, tc.want)
		}
	}
}

func TestMaxMinSum(t *testing.T) {
	v := Of(3, 1, 2)
	if v.Max() != 3 || v.Min() != 1 || v.Sum() != 6 {
		t.Fatalf("Max/Min/Sum = %v/%v/%v", v.Max(), v.Min(), v.Sum())
	}
	empty := New(0)
	if empty.Max() != 0 || empty.Min() != 0 || empty.Sum() != 0 {
		t.Fatal("empty vector aggregates should be zero")
	}
}

func TestMetricScalar(t *testing.T) {
	v := Of(0.8, 0.2)
	if got := MetricMax.Scalar(v); got != 0.8 {
		t.Errorf("MAX = %v", got)
	}
	if got := MetricSum.Scalar(v); got != 1.0 {
		t.Errorf("SUM = %v", got)
	}
	if got := MetricMaxRatio.Scalar(v); got != 4.0 {
		t.Errorf("MAXRATIO = %v", got)
	}
	if got := MetricMaxDifference.Scalar(v); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("MAXDIFFERENCE = %v", got)
	}
}

func TestMetricMaxRatioEdgeCases(t *testing.T) {
	if got := MetricMaxRatio.Scalar(Of(0, 0)); got != 1 {
		t.Errorf("MAXRATIO of zero vector = %v, want 1", got)
	}
	if got := MetricMaxRatio.Scalar(Of(1, 0)); !math.IsInf(got, 1) {
		t.Errorf("MAXRATIO with zero min = %v, want +Inf", got)
	}
}

func TestMetricLexCompare(t *testing.T) {
	if MetricLex.Compare(Of(1, 9), Of(2, 0)) >= 0 {
		t.Error("LEX should compare dimension 0 first")
	}
	if MetricLex.Compare(Of(1, 1), Of(1, 2)) >= 0 {
		t.Error("LEX should fall through to dimension 1")
	}
	if MetricLex.Compare(Of(1, 1), Of(1, 1)) != 0 {
		t.Error("LEX equal vectors should compare 0")
	}
}

func TestMetricLexScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for LEX scalar")
		}
	}()
	MetricLex.Scalar(Of(1))
}

func TestMetricStringRoundTrip(t *testing.T) {
	want := []string{"MAX", "SUM", "MAXRATIO", "MAXDIFFERENCE", "LEX"}
	for i, m := range Metrics() {
		if got := m.String(); got != want[i] {
			t.Fatalf("%d.String() = %q, want %q", int(m), got, want[i])
		}
	}
	if got := Metric(len(want)).String(); got != "Metric(5)" {
		t.Fatalf("out-of-range String = %q", got)
	}
}

func TestMetricCompareConsistentWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []Metric{MetricMax, MetricSum, MetricMaxDifference} {
		for i := 0; i < 200; i++ {
			v := Of(rng.Float64(), rng.Float64(), rng.Float64())
			w := Of(rng.Float64(), rng.Float64(), rng.Float64())
			c := m.Compare(v, w)
			a, b := m.Scalar(v), m.Scalar(w)
			switch {
			case a < b && c >= 0, a > b && c <= 0, a == b && c != 0:
				t.Fatalf("metric %v: Compare(%v,%v)=%d inconsistent with scalars %v,%v", m, v, w, c, a, b)
			}
		}
	}
}

func TestRank(t *testing.T) {
	v := Of(0.3, 0.9, 0.1, 0.9)
	desc := Rank(v, true)
	if !reflect.DeepEqual(desc, []int{1, 3, 0, 2}) {
		t.Errorf("desc rank = %v (ties must break by index)", desc)
	}
	asc := Rank(v, false)
	if !reflect.DeepEqual(asc, []int{2, 0, 1, 3}) {
		t.Errorf("asc rank = %v", asc)
	}
}

func TestPermutationKeyPaperExample(t *testing.T) {
	// Paper §3.5.2: bin ordering (4,2,3,1), item ordering (3,1,4,2) -> key
	// (3,4,1,2) in 1-based terms. Zero-based: bin (3,1,2,0), item (2,0,3,1)
	// -> key (2,3,0,1).
	binRank := []int{3, 1, 2, 0}
	itemRank := []int{2, 0, 3, 1}
	key := PermutationKey(binRank, itemRank)
	if !reflect.DeepEqual(key, []int{2, 3, 0, 1}) {
		t.Fatalf("key = %v, want [2 3 0 1]", key)
	}
}

func TestPermutationKeyIdentity(t *testing.T) {
	// An item whose ranking matches the bin's ranking has the identity key,
	// which sorts first lexicographically: a perfectly fitted item.
	r := []int{2, 0, 1}
	key := PermutationKey(r, r)
	if !reflect.DeepEqual(key, []int{0, 1, 2}) {
		t.Fatalf("key = %v, want identity", key)
	}
}

func TestCompareKeys(t *testing.T) {
	a := []int{0, 1, 2}
	b := []int{0, 2, 1}
	if CompareKeys(a, b, 0) >= 0 {
		t.Error("full-window compare failed")
	}
	if CompareKeys(a, b, 1) != 0 {
		t.Error("window-1 compare should tie on first position")
	}
	if CompareKeys(b, a, 2) <= 0 {
		t.Error("window-2 compare should order by second position")
	}
}

func TestKeyWithinWindow(t *testing.T) {
	if !KeyWithinWindow([]int{1, 0, 2}, 2) {
		t.Error("top-2 positions {1,0} are within window 2")
	}
	if KeyWithinWindow([]int{2, 0, 1}, 2) {
		t.Error("position 2 in window 2 should fail")
	}
	if !KeyWithinWindow([]int{2, 0, 1}, 0) {
		t.Error("window 0 means full length, any permutation matches")
	}
}

// Property: Add is commutative and Sub undoes Add.
func TestQuickAddSubProperties(t *testing.T) {
	f := func(a, b [4]float64) bool {
		// Map arbitrary floats into a bounded range so the property is not
		// defeated by overflow or catastrophic cancellation.
		bound := func(xs [4]float64) Vec {
			v := New(4)
			for i, x := range xs {
				v[i] = math.Mod(x, 1e6)
				if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
					v[i] = 0
				}
			}
			return v
		}
		v, w := bound(a), bound(b)
		vw, wv := v.Add(w), w.Add(v)
		if !reflect.DeepEqual(vw, wv) {
			return false
		}
		back := vw.Sub(w)
		for i := range back {
			if math.Abs(back[i]-v[i]) > 1e-9*(1+math.Abs(v[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Rank returns a permutation and orders values monotonically.
func TestQuickRankIsMonotonePermutation(t *testing.T) {
	f := func(a [5]float64) bool {
		v := Of(a[:]...)
		p := Rank(v, true)
		seen := make(map[int]bool)
		for _, d := range p {
			if d < 0 || d >= len(v) || seen[d] {
				return false
			}
			seen[d] = true
		}
		for i := 1; i < len(p); i++ {
			if v[p[i-1]] < v[p[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PermutationKey is a permutation of 0..D-1 and the key of the bin
// ranking against itself is the identity.
func TestQuickPermutationKeyValid(t *testing.T) {
	f := func(a, b [4]float64) bool {
		br := Rank(Of(a[:]...), true)
		ir := Rank(Of(b[:]...), true)
		key := PermutationKey(br, ir)
		seen := make(map[int]bool)
		for _, k := range key {
			if k < 0 || k >= len(key) || seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
