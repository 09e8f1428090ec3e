package core

import (
	"fmt"
	"math"

	"vmalloc/internal/vec"
)

// Unplaced marks a service without a node in a Placement.
const Unplaced = -1

// Placement maps each service index to a node index (or Unplaced).
type Placement []int

// NewPlacement returns a placement with all services unplaced.
func NewPlacement(numServices int) Placement {
	p := make(Placement, numServices)
	for i := range p {
		p[i] = Unplaced
	}
	return p
}

// Complete reports whether every service has a node.
func (pl Placement) Complete() bool {
	for _, h := range pl {
		if h == Unplaced {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (pl Placement) Clone() Placement {
	c := make(Placement, len(pl))
	copy(c, pl)
	return c
}

// Validate checks that pl is structurally consistent with the problem and
// that requirements are satisfiable at yield 0 on every node: elementary
// requirements fit within node elementary capacities and summed aggregate
// requirements fit within node aggregate capacities.
func (pl Placement) Validate(p *Problem) error {
	if len(pl) != p.NumServices() {
		return fmt.Errorf("core: placement has %d entries, want %d", len(pl), p.NumServices())
	}
	loads := make([]vec.Vec, p.NumNodes())
	for h := range loads {
		loads[h] = vec.New(p.Dim())
	}
	for j, h := range pl {
		if h == Unplaced {
			continue
		}
		if h < 0 || h >= p.NumNodes() {
			return fmt.Errorf("core: service %d placed on invalid node %d", j, h)
		}
		s := &p.Services[j]
		if !s.ReqElem.LessEq(p.Nodes[h].Elementary, DefaultEpsilon) {
			return fmt.Errorf("core: service %d elementary requirement %v exceeds node %d elementary capacity %v",
				j, s.ReqElem, h, p.Nodes[h].Elementary)
		}
		loads[h].AccumAdd(s.ReqAgg)
	}
	for h, load := range loads {
		if !load.LessEq(p.Nodes[h].Aggregate, 1e-6) {
			return fmt.Errorf("core: node %d aggregate requirement load %v exceeds capacity %v",
				h, load, p.Nodes[h].Aggregate)
		}
	}
	return nil
}

// MaxUniformYield returns the largest yield y in [0,1] such that every
// service in the given set can simultaneously run at yield y on node n, or a
// negative value if even the requirements (y = 0) do not fit.
//
// Because all constraints are linear and increasing in y, the max-min yield
// on a single node equals the max uniform yield: any allocation granting each
// service at least y can be reduced to the uniform-y allocation without
// violating constraints.
func MaxUniformYield(p *Problem, h int, services []int) float64 {
	n := &p.Nodes[h]
	d := p.Dim()
	y := 1.0
	// Elementary constraints: r^e + y*n^e <= c^e for each service.
	for _, j := range services {
		s := &p.Services[j]
		for dd := 0; dd < d; dd++ {
			slack := n.Elementary[dd] - s.ReqElem[dd]
			if slack < -DefaultEpsilon {
				return -1
			}
			if s.NeedElem[dd] > 0 {
				y = math.Min(y, slack/s.NeedElem[dd])
			}
		}
	}
	// Aggregate constraints: sum(r^a) + y*sum(n^a) <= c^a per dimension.
	for dd := 0; dd < d; dd++ {
		sumReq, sumNeed := 0.0, 0.0
		for _, j := range services {
			sumReq += p.Services[j].ReqAgg[dd]
			sumNeed += p.Services[j].NeedAgg[dd]
		}
		slack := n.Aggregate[dd] - sumReq
		if slack < -DefaultEpsilon {
			return -1
		}
		if sumNeed > 0 {
			y = math.Min(y, slack/sumNeed)
		}
	}
	if y < 0 {
		y = 0
	}
	return y
}

// Result is the outcome of running an allocation algorithm.
type Result struct {
	// Solved reports whether a complete placement satisfying all rigid
	// requirements was found.
	Solved bool
	// Placement maps services to nodes (valid only when Solved).
	Placement Placement
	// MinYield is the achieved minimum yield over all services.
	MinYield float64
	// Yields holds the per-service yields implied by giving every node its
	// max uniform yield (valid only when Solved).
	Yields []float64
}

// EvaluatePlacement computes the Result implied by a placement: each node
// grants its services the node's maximum uniform yield, and the minimum
// yield is the minimum over nodes hosting at least one service. If the
// placement is incomplete or infeasible, Solved is false.
func EvaluatePlacement(p *Problem, pl Placement) *Result {
	res := &Result{Placement: pl.Clone()}
	if !pl.Complete() {
		return res
	}
	byNode := make([][]int, p.NumNodes())
	for j, h := range pl {
		byNode[h] = append(byNode[h], j)
	}
	yields := make([]float64, p.NumServices())
	minY := 1.0
	for h, svcs := range byNode {
		if len(svcs) == 0 {
			continue
		}
		y := MaxUniformYield(p, h, svcs)
		if y < 0 {
			return res // infeasible placement
		}
		for _, j := range svcs {
			yields[j] = y
		}
		if y < minY {
			minY = y
		}
	}
	res.Solved = true
	res.MinYield = minY
	res.Yields = yields
	return res
}

// FeasibleAtYield reports whether the placement supports a uniform yield of
// at least y on every node.
func FeasibleAtYield(p *Problem, pl Placement, y float64) bool {
	if !pl.Complete() {
		return false
	}
	byNode := make([][]int, p.NumNodes())
	for j, h := range pl {
		byNode[h] = append(byNode[h], j)
	}
	for h, svcs := range byNode {
		if len(svcs) == 0 {
			continue
		}
		if MaxUniformYield(p, h, svcs) < y-1e-9 {
			return false
		}
	}
	return true
}
