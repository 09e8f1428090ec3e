package core

import (
	"math"
	"slices"
	"testing"

	"vmalloc/internal/vec"
)

// flip changes every bit of every element of v.
func flip(v vec.Vec) {
	for k := range v {
		v[k] = math.Float64frombits(^math.Float64bits(v[k]))
	}
}

// bits returns the IEEE bits of every element of every vector.
func bits(vs ...vec.Vec) [][]uint64 {
	out := make([][]uint64, len(vs))
	for i, v := range vs {
		out[i] = []uint64{}
		for _, x := range v {
			out[i] = append(out[i], math.Float64bits(x))
		}
	}
	return out
}

// checkIsolated writes every element of the clone vector i and appends to
// it: the original's vectors must keep their bits, and so must the clone's
// other vectors, which share vector i's backing array.
func checkIsolated(t *testing.T, orig, clone []*vec.Vec, i int) {
	t.Helper()
	deref := func(ps []*vec.Vec) []vec.Vec {
		vs := make([]vec.Vec, len(ps))
		for k, p := range ps {
			vs[k] = *p
		}
		return vs
	}
	want := bits(deref(orig)...)
	flip(*clone[i])
	*clone[i] = append(*clone[i], 42, 43)
	if got := bits(deref(orig)...); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("writing clone vector %d changed the original from %v to %v", i, want, got)
	}
	got := bits(deref(clone)...)
	for j := range got {
		if j != i && !slices.Equal(got[j], want[j]) {
			t.Fatalf("writing clone vector %d changed clone vector %d from %v to %v", i, j, want[j], got[j])
		}
	}
}

// TestCloneIsolation checks Service.Clone and Node.Clone vector by vector:
// a clone is the original's bits, and no write through or append to one of
// its vectors reaches the original or the clone's other vectors.
func TestCloneIsolation(t *testing.T) {
	for _, s := range []Service{
		{Name: "s", ReqElem: vec.Of(0.1, 0.2), ReqAgg: vec.Of(0.3, 0.4), NeedElem: vec.Of(0.5, 0), NeedAgg: vec.Of(0.7, 0)},
		{ReqElem: vec.Of(1), ReqAgg: vec.Of(2, 3, 4), NeedElem: vec.Of(), NeedAgg: vec.Of(5, 6)},
		{ReqAgg: vec.Of(7)},
	} {
		for i := 0; i < 4; i++ {
			c := s.Clone()
			if c.Name != s.Name || !slices.EqualFunc(bits(c.ReqElem, c.ReqAgg, c.NeedElem, c.NeedAgg),
				bits(s.ReqElem, s.ReqAgg, s.NeedElem, s.NeedAgg), slices.Equal) {
				t.Fatalf("clone %+v of %+v", c, s)
			}
			checkIsolated(t, []*vec.Vec{&s.ReqElem, &s.ReqAgg, &s.NeedElem, &s.NeedAgg},
				[]*vec.Vec{&c.ReqElem, &c.ReqAgg, &c.NeedElem, &c.NeedAgg}, i)
		}
	}
	n := Node{Name: "n", Elementary: vec.Of(0.25, 1), Aggregate: vec.Of(1, 1)}
	for i := 0; i < 2; i++ {
		c := n.Clone()
		if !sameNode(c, n) {
			t.Fatalf("clone %+v of %+v", c, n)
		}
		checkIsolated(t, []*vec.Vec{&n.Elementary, &n.Aggregate}, []*vec.Vec{&c.Elementary, &c.Aggregate}, i)
	}
}
