// Package core defines the service placement and resource allocation problem
// of Casanova, Stillwell and Vivien (IPDPS 2012, INRIA RR-7772): services with
// rigid requirements and fluid needs must each be placed on one node of a
// heterogeneous platform so as to maximize the minimum yield.
//
// Each node carries an elementary and an aggregate capacity vector; each
// service carries elementary/aggregate requirement and need vector pairs. The
// allocation a service receives at yield y is (r^e + y*n^e, r^a + y*n^a).
package core

import (
	"errors"
	"fmt"
	"math"

	"vmalloc/internal/vec"
)

// DefaultEpsilon is the numerical tolerance used by feasibility checks.
const DefaultEpsilon = 1e-9

// Node is one physical host. Elementary gives the capacity of a single
// resource element in each dimension (e.g. one core); Aggregate gives the
// total capacity over all elements. For arbitrarily divisible resources such
// as memory the two coincide.
type Node struct {
	Name       string  `json:"name,omitempty"`
	Elementary vec.Vec `json:"elementary"`
	Aggregate  vec.Vec `json:"aggregate"`
}

// Service is one hosted service (one VM instance). ReqElem/ReqAgg are the
// rigid requirements (r^e, r^a): the minimum acceptable allocation. NeedElem/
// NeedAgg are the fluid needs (n^e, n^a): the additional resources required
// to reach maximum performance (yield 1).
type Service struct {
	Name     string  `json:"name,omitempty"`
	ReqElem  vec.Vec `json:"req_elem"`
	ReqAgg   vec.Vec `json:"req_agg"`
	NeedElem vec.Vec `json:"need_elem"`
	NeedAgg  vec.Vec `json:"need_agg"`
}

// Problem is a complete instance: a platform and a workload.
type Problem struct {
	Nodes    []Node    `json:"nodes"`
	Services []Service `json:"services"`
}

// Dim returns the number of resource dimensions, 0 for an empty problem.
func (p *Problem) Dim() int {
	if len(p.Nodes) > 0 {
		return p.Nodes[0].Aggregate.Dim()
	}
	if len(p.Services) > 0 {
		return p.Services[0].ReqAgg.Dim()
	}
	return 0
}

// NumNodes returns H, the number of nodes.
func (p *Problem) NumNodes() int { return len(p.Nodes) }

// NumServices returns J, the number of services.
func (p *Problem) NumServices() int { return len(p.Services) }

// Validate checks structural consistency: every vector has the same number of
// dimensions, no negative entries, and requirements/needs/capacities are
// internally consistent (elementary <= aggregate for nodes).
func (p *Problem) Validate() error {
	d := p.Dim()
	if d == 0 {
		return errors.New("core: problem has no dimensions")
	}
	check := func(kind string, i int, v vec.Vec) error {
		if v.Dim() != d {
			return fmt.Errorf("core: %s %d has %d dimensions, want %d", kind, i, v.Dim(), d)
		}
		for dd, x := range v {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("core: %s %d has invalid value %g in dimension %d", kind, i, x, dd)
			}
		}
		return nil
	}
	for h, n := range p.Nodes {
		if err := check("node elementary capacity of node", h, n.Elementary); err != nil {
			return err
		}
		if err := check("node aggregate capacity of node", h, n.Aggregate); err != nil {
			return err
		}
		if !n.Elementary.LessEq(n.Aggregate, DefaultEpsilon) {
			return fmt.Errorf("core: node %d elementary capacity %v exceeds aggregate %v", h, n.Elementary, n.Aggregate)
		}
	}
	for j, s := range p.Services {
		for _, vv := range []struct {
			kind string
			v    vec.Vec
		}{
			{"service elementary requirement", s.ReqElem},
			{"service aggregate requirement", s.ReqAgg},
			{"service elementary need", s.NeedElem},
			{"service aggregate need", s.NeedAgg},
		} {
			if err := check(vv.kind, j, vv.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// ElemAt returns the elementary demand of service s at yield y:
// r^e + y*n^e.
func (s *Service) ElemAt(y float64) vec.Vec { return s.ReqElem.AddScaled(y, s.NeedElem) }

// AggAt returns the aggregate demand of service s at yield y:
// r^a + y*n^a.
func (s *Service) AggAt(y float64) vec.Vec { return s.ReqAgg.AddScaled(y, s.NeedAgg) }

// FitsRequirements reports whether the service's rigid requirements alone fit
// on node n given the node's current aggregate load (sum of aggregate
// requirement vectors of services already placed there). This is the minimum
// condition for a placement to be valid at yield 0. It sits inside every
// greedy/repair selection loop and must not allocate.
func (s *Service) FitsRequirements(n *Node, load vec.Vec) bool {
	if !s.ReqElem.LessEq(n.Elementary, DefaultEpsilon) {
		return false
	}
	return vec.AddFitsWithin(load, s.ReqAgg, n.Aggregate, DefaultEpsilon)
}

// TotalAggregate returns the element-wise sum of all node aggregate
// capacities.
func (p *Problem) TotalAggregate() vec.Vec {
	t := vec.New(p.Dim())
	for _, n := range p.Nodes {
		t.AccumAdd(n.Aggregate)
	}
	return t
}

// Clone returns a deep copy of the problem. Every node vector is cut from
// one array and every service vector from another, each capped at its own
// length, so an append to one reallocates instead of writing into the next.
func (p *Problem) Clone() *Problem {
	q := &Problem{Nodes: make([]Node, len(p.Nodes)), Services: make([]Service, len(p.Services))}
	copy(q.Nodes, p.Nodes)
	copy(q.Services, p.Services)
	n := 0
	for _, nd := range p.Nodes {
		n += len(nd.Elementary) + len(nd.Aggregate)
	}
	v := make(vec.Vec, 0, n)
	for i := range q.Nodes {
		nd := &q.Nodes[i]
		v, nd.Elementary = cut(v, nd.Elementary)
		v, nd.Aggregate = cut(v, nd.Aggregate)
	}
	n = 0
	for _, s := range p.Services {
		n += len(s.ReqElem) + len(s.ReqAgg) + len(s.NeedElem) + len(s.NeedAgg)
	}
	v = make(vec.Vec, 0, n)
	for j := range q.Services {
		s := &q.Services[j]
		v, s.ReqElem = cut(v, s.ReqElem)
		v, s.ReqAgg = cut(v, s.ReqAgg)
		v, s.NeedElem = cut(v, s.NeedElem)
		v, s.NeedAgg = cut(v, s.NeedAgg)
	}
	return q
}

// cut appends x to v, which has room for it, and returns v and the copy of
// x it now ends with, capped at its length.
func cut(v, x vec.Vec) (vec.Vec, vec.Vec) {
	a := len(v)
	v = append(v, x...)
	return v, v[a:len(v):len(v)]
}

// Clone returns a deep copy of n whose two vectors share one backing array.
// Each is capped at its own length, so an append to one reallocates instead
// of writing into the other.
func (n Node) Clone() Node {
	v := append(append(make(vec.Vec, 0, len(n.Elementary)+len(n.Aggregate)), n.Elementary...), n.Aggregate...)
	a := len(n.Elementary)
	n.Elementary, n.Aggregate = v[:a:a], v[a:]
	return n
}

// Clone returns a deep copy of s whose four vectors share one backing array,
// each capped at its own length as in Node.Clone.
func (s Service) Clone() Service {
	v := make(vec.Vec, 0, len(s.ReqElem)+len(s.ReqAgg)+len(s.NeedElem)+len(s.NeedAgg))
	v = append(append(append(append(v, s.ReqElem...), s.ReqAgg...), s.NeedElem...), s.NeedAgg...)
	a, b, c := len(s.ReqElem), len(s.ReqElem)+len(s.ReqAgg), len(v)-len(s.NeedAgg)
	s.ReqElem, s.ReqAgg, s.NeedElem, s.NeedAgg = v[:a:a], v[a:b:b], v[b:c:c], v[c:]
	return s
}
