package relax

import (
	"math"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
)

// FuzzExact holds SolveExact to brute force on parks decoded from the
// fuzzer's bytes (see fuzzPark): both must agree whether any placement
// fits, their minimum yields must agree to 1e-12, and the search's reported
// result must be core.EvaluatePlacement of its own placement, to the bit.
func FuzzExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzPark(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded park is invalid: %v", err)
		}
		res, err := SolveExact(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(p)
		if res.Solved != (want >= 0) {
			t.Fatalf("solved=%v, brute force's best %v", res.Solved, want)
		}
		if !res.Solved {
			return
		}
		if math.Abs(res.MinYield-want) > 1e-12 {
			t.Errorf("yield %.17g, brute force %.17g", res.MinYield, want)
		}
		ev := core.EvaluatePlacement(p, res.Placement)
		if !ev.Solved || math.Float64bits(ev.MinYield) != math.Float64bits(res.MinYield) {
			t.Errorf("reported yield %v, its placement %v evaluates to %v (solved=%v)", res.MinYield, res.Placement, ev.MinYield, ev.Solved)
		}
	})
}

// fuzzPark decodes a two-dimensional park of 1–3 nodes and 1–8 services
// from data, reading 0 once data runs out. Byte 0 sets the node and service
// counts. In byte 1, bit 0 makes the last node a copy of the first (the
// search skips identical empty nodes), and bit 1 gives the last service a
// rigid elementary requirement that fits on no node. Then each node takes,
// per dimension, its elementary capacity in hundredths and an element count
// of 1–4 that multiplies it into the aggregate capacity; each service takes,
// per dimension, its four vectors' entries in two-hundredths.
func fuzzPark(data []byte) *core.Problem {
	next := func() float64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return float64(b)
	}
	size, flags := int(next()), int(next())
	H, J := 1+size%3, 1+size/3%8
	const D = 2
	p := &core.Problem{Nodes: make([]core.Node, H), Services: make([]core.Service, J)}
	for h := range p.Nodes {
		elem, agg := vec.New(D), vec.New(D)
		for d := 0; d < D; d++ {
			elem[d] = next() / 100
			agg[d] = elem[d] * float64(1+int(next())%4)
		}
		p.Nodes[h] = core.Node{Elementary: elem, Aggregate: agg}
	}
	if flags&1 != 0 && H > 1 {
		p.Nodes[H-1] = p.Nodes[0].Clone()
	}
	for j := range p.Services {
		s := core.Service{ReqElem: vec.New(D), ReqAgg: vec.New(D), NeedElem: vec.New(D), NeedAgg: vec.New(D)}
		for d := 0; d < D; d++ {
			for _, v := range []vec.Vec{s.ReqElem, s.ReqAgg, s.NeedElem, s.NeedAgg} {
				v[d] = next() / 200
			}
		}
		p.Services[j] = s
	}
	if flags&2 != 0 {
		widest := 0.0
		for _, nd := range p.Nodes {
			widest = max(widest, nd.Elementary[0])
		}
		p.Services[J-1].ReqElem[0] = widest + 0.5
	}
	return p
}
