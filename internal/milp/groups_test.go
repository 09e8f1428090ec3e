package milp

import (
	"math/rand"
	"slices"
	"testing"

	"vmalloc/internal/lp"
)

// TestFindGroupsDetectsOnlyExactlyOneRows builds one row of each kind and
// checks only the equalities with right-hand side 1 and every coefficient 1
// on a binary become branching groups.
func TestFindGroupsDetectsOnlyExactlyOneRows(t *testing.T) {
	dense := [][]float64{
		{1, 1, 1, 0, 0, 0, 0, 0, 0}, // exactly one of x0..x2
		{0, 0, 0, 1, 1, 0, 0, 0, 0}, // right-hand side 2
		{1, 0, 0, 2, 0, 0, 0, 0, 0}, // a coefficient 2
		{0, 0, 0, 0, 0, 1, 1, 0, 0}, // x6 is continuous
		{0, 0, 0, 0, 0, 0, 0, 1, 1}, // an inequality
		{0, 1, 0, 0, 0, 0, 0, 1, 1}, // exactly one of x1, x7, x8
	}
	p := &lp.Problem{
		Obj:   make([]float64, 9),
		Cols:  lp.NewCSCFromDense(dense, 9),
		Sense: []lp.Sense{lp.EQ, lp.EQ, lp.EQ, lp.EQ, lp.LE, lp.EQ},
		B:     []float64{1, 2, 1, 1, 1, 1},
	}
	rs := new(relaxations)
	rs.reset(p)
	rs.findGroups([]int{0, 1, 2, 3, 4, 5, 7, 8})
	var got [][]int32
	for g := 0; g+1 < len(rs.grpPtr); g++ {
		got = append(got, slices.Clone(rs.members(g)))
	}
	want := [][]int32{{0, 1, 2}, {1, 7, 8}}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("groups %v, want %v", got, want)
	}
	for _, tc := range []struct {
		x    []float64
		want int
	}{
		{[]float64{0, 0.4, 0.6, 0, 0, 0, 0, 0.3, 0.3}, 1},   // the smaller largest member
		{[]float64{0, 0.5, 0.5, 0, 0, 0, 0, 0.25, 0.25}, 0}, // a tie: the lower row
		{[]float64{0.5, 0, 0.5, 0, 0, 0, 0, 1, 0}, 0},       // row 5 is integral
		{[]float64{1, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 0}, -1},  // both rows integral
	} {
		if g := rs.pickGroup(tc.x, 1e-6); g != tc.want {
			t.Fatalf("x = %v: picked group %d, want %d", tc.x, g, tc.want)
		}
	}
}

// noGroupModels is a fixed set of binary programs without an exactly-one
// row: random packings over one to three capacity rows, every other one with
// a continuous variable in four, a third with a covering row (sum of the
// binaries >= 1).
func noGroupModels() []*Problem {
	rng := rand.New(rand.NewSource(11))
	var ps []*Problem
	for iter := 0; iter < 80; iter++ {
		n := 4 + rng.Intn(8)
		rows := 1 + rng.Intn(3)
		p := &Problem{LP: lp.Problem{Obj: make([]float64, n), Upper: make([]float64, n)}}
		for j := 0; j < n; j++ {
			p.LP.Obj[j] = rng.Float64() * 10
			p.LP.Upper[j] = 1
			if iter%2 == 0 || j%4 != 3 {
				p.Binary = append(p.Binary, j)
			}
		}
		var a [][]float64
		for i := 0; i < rows; i++ {
			w := make([]float64, n)
			for j := range w {
				w[j] = rng.Float64() * 5
			}
			a = append(a, w)
			p.LP.Sense = append(p.LP.Sense, lp.LE)
			p.LP.B = append(p.LP.B, 1+rng.Float64()*10)
		}
		if iter%3 == 0 {
			cover := make([]float64, n)
			for _, j := range p.Binary {
				cover[j] = 1
			}
			a = append(a, cover)
			p.LP.Sense = append(p.LP.Sense, lp.GE)
			p.LP.B = append(p.LP.B, 1)
		}
		p.LP.Cols = lp.NewCSCFromDense(a, n)
		ps = append(ps, p)
	}
	return ps
}

// TestNoGroupRowsKeepsTree pins the tree a model without exactly-one rows
// grows: single-binary branching exactly as before group branching existed,
// the node and simplex-iteration totals captured from that search.
func TestNoGroupRowsKeepsTree(t *testing.T) {
	nodes, iters := 0, 0
	for _, p := range noGroupModels() {
		sol, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes += sol.Nodes
		iters += sol.LPIters
	}
	if nodes != 978 || iters != 1546 {
		t.Fatalf("nodes %d, iterations %d; want the single-binary search's 978 and 1546", nodes, iters)
	}
}
