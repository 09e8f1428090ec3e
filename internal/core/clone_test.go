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

// deref returns the vectors ps point to.
func deref(ps []*vec.Vec) []vec.Vec {
	vs := make([]vec.Vec, len(ps))
	for k, p := range ps {
		vs[k] = *p
	}
	return vs
}

// checkIsolated writes every element of the clone vector i and appends to
// it: the original's vectors must keep their bits, and so must the clone's
// other vectors, which share vector i's backing array.
func checkIsolated(t *testing.T, orig, clone []*vec.Vec, i int) {
	t.Helper()
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

// TestCloneIsolation checks Service.Clone, Node.Clone and Problem.Clone
// vector by vector: a clone is the original's bits, and no write through or
// append to one of its vectors reaches the original or the clone's other
// vectors, which Problem.Clone cuts from one array per set.
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
	p := &Problem{
		Nodes: []Node{n, {Elementary: vec.Of(0.5), Aggregate: vec.Of(2, 3, 4)}, {Aggregate: vec.Of(5)}},
		Services: []Service{
			{Name: "s", ReqElem: vec.Of(0.1, 0.2), ReqAgg: vec.Of(0.3, 0.4), NeedElem: vec.Of(0.5, 0), NeedAgg: vec.Of(0.7, 0)},
			{ReqElem: vec.Of(1), ReqAgg: vec.Of(2, 3, 4), NeedElem: vec.Of(), NeedAgg: vec.Of(5, 6)},
			{ReqAgg: vec.Of(7)},
		},
	}
	orig := problemVecs(p)
	for i := range orig {
		c := p.Clone()
		if len(c.Nodes) != len(p.Nodes) || len(c.Services) != len(p.Services) {
			t.Fatalf("clone has %d nodes and %d services, want %d and %d", len(c.Nodes), len(c.Services), len(p.Nodes), len(p.Services))
		}
		for h := range p.Nodes {
			if c.Nodes[h].Name != p.Nodes[h].Name {
				t.Fatalf("clone node %d is named %q, want %q", h, c.Nodes[h].Name, p.Nodes[h].Name)
			}
		}
		for j := range p.Services {
			if c.Services[j].Name != p.Services[j].Name {
				t.Fatalf("clone service %d is named %q, want %q", j, c.Services[j].Name, p.Services[j].Name)
			}
		}
		cv := problemVecs(c)
		if !slices.EqualFunc(bits(deref(cv)...), bits(deref(orig)...), slices.Equal) {
			t.Fatalf("clone %+v of %+v", c, p)
		}
		checkIsolated(t, orig, cv, i)
	}
}

// problemVecs lists every vector of p: each node's, then each service's.
func problemVecs(p *Problem) []*vec.Vec {
	var vs []*vec.Vec
	for h := range p.Nodes {
		n := &p.Nodes[h]
		vs = append(vs, &n.Elementary, &n.Aggregate)
	}
	for j := range p.Services {
		s := &p.Services[j]
		vs = append(vs, &s.ReqElem, &s.ReqAgg, &s.NeedElem, &s.NeedAgg)
	}
	return vs
}
