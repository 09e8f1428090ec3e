package vmalloc

import (
	"fmt"
	"math"
	"time"

	"vmalloc/internal/engine"
)

// ClusterOp identifies the kind of mutation a ClusterEvent reports.
type ClusterOp uint8

const (
	// ClusterOpAdd is a successful admission.
	ClusterOpAdd ClusterOp = iota + 1
	// ClusterOpRemove is a departure.
	ClusterOpRemove
	// ClusterOpUpdateNeeds replaced a live service's fluid needs.
	ClusterOpUpdateNeeds
	// ClusterOpSetThreshold changed the mitigation threshold.
	ClusterOpSetThreshold
	// ClusterOpEpoch applied a solved Reallocate or Repair epoch.
	ClusterOpEpoch
	// ClusterOpMoveIn installed a cross-shard rebalanced service (sharded
	// clusters only). It replays like an admission; the move generation in
	// ShardEvent.Gen lets a durable tier reconcile moves torn across WALs.
	ClusterOpMoveIn
	// ClusterOpMoveOut departed a cross-shard rebalanced service (sharded
	// clusters only). It replays like a removal.
	ClusterOpMoveOut
)

// ClusterEvent describes one applied cluster mutation, delivered to the
// event hook after the in-memory state has changed. It carries the decision,
// not the request: an admission event names the id and node the engine
// chose, an epoch event the placement that was applied — exactly what a
// write-ahead log needs to replay outcomes without re-running the solver.
//
// Slice and pointer fields may alias engine-owned buffers and are valid only
// for the duration of the hook call; consumers must copy (or encode) what
// they keep.
type ClusterEvent struct {
	Op ClusterOp

	// ID names the service (ClusterOpAdd, ClusterOpRemove,
	// ClusterOpUpdateNeeds).
	ID int
	// Node is the admission placement (ClusterOpAdd).
	Node int
	// TrueSvc and EstSvc are the admitted descriptors (ClusterOpAdd).
	TrueSvc, EstSvc *Service
	// Needs are the new true elem/agg and estimated elem/agg need vectors
	// (ClusterOpUpdateNeeds).
	Needs [4]Vec
	// Threshold is the new mitigation threshold (ClusterOpSetThreshold).
	Threshold float64
	// Epoch payload (ClusterOpEpoch): the live ids in view order and the
	// placement applied to them, plus whether this was a bounded Repair.
	IDs        []int
	Placement  Placement
	Repair     bool
	Budget     int
	Migrations int
	MinYield   float64
}

// SetHook installs fn as the cluster's mutation observer (nil uninstalls).
// The hook fires synchronously after every applied state change — rejected
// admissions, failed epochs and no-op removals are not reported — and in
// application order, which makes it the seam a durability layer journals
// through without the engine knowing about disks. The hook must not call
// back into the cluster.
func (c *Cluster) SetHook(fn func(*ClusterEvent)) { c.hook = fn }

// ClusterServiceState is the durable description of one live service.
type ClusterServiceState = engine.ServiceState

// ClusterState is the complete durable state of a Cluster: the platform, the
// live services with their identities and placements, the mitigation
// threshold, the next fresh id and (optionally) the incrementally maintained
// per-node load vectors. It is the snapshot payload of the durable
// allocation service and the interchange format of `vmalloc -state-in/
// -state-out`; its JSON form is stable (canonical field order, round-trip
// exact floats).
type ClusterState struct {
	Nodes []Node `json:"nodes"`
	engine.State
}

// loadDriftTol bounds, relative to a node's aggregate capacity, how far
// below zero a per-node load may sit. Loads are running sums: a departure
// subtracts what an arrival added, and in floating point a node that emptied
// out can be left at -5.6e-17 instead of 0. The state carries those floats
// verbatim (a restored cluster must continue bit-identically), so Validate
// has to accept what the engine legitimately produces; anything further
// below zero than rounding can explain is still corruption.
const loadDriftTol = 1e-9

// Validate checks structural consistency of a decoded state: node and
// service vector dimensionalities agree, all values are finite and
// non-negative (the derived per-node loads to within loadDriftTol of their
// node's capacity), ids are strictly ascending, placements are in range,
// and NextID is above every live id.
func (st *ClusterState) Validate() error {
	if len(st.Nodes) == 0 {
		return fmt.Errorf("vmalloc: state has no nodes")
	}
	d := st.Nodes[0].Aggregate.Dim()
	if d == 0 {
		return fmt.Errorf("vmalloc: state node 0 has no dimensions")
	}
	// drift is nil for stored values, which may not be negative at all, and
	// the node's aggregate capacity for a derived load (see loadDriftTol).
	checkVec := func(kind string, v, drift Vec) error {
		if v.Dim() != d {
			return fmt.Errorf("vmalloc: state %s has %d dimensions, want %d", kind, v.Dim(), d)
		}
		for dd, x := range v {
			floor := 0.0
			if drift != nil {
				floor = -loadDriftTol * drift[dd]
			}
			if x < floor || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("vmalloc: state %s has invalid value %g in dimension %d", kind, x, dd)
			}
		}
		return nil
	}
	for h, n := range st.Nodes {
		if err := checkVec(fmt.Sprintf("node %d elementary capacity", h), n.Elementary, nil); err != nil {
			return err
		}
		if err := checkVec(fmt.Sprintf("node %d aggregate capacity", h), n.Aggregate, nil); err != nil {
			return err
		}
	}
	prev := -1
	for i := range st.Services {
		ss := &st.Services[i]
		if ss.ID <= prev {
			return fmt.Errorf("vmalloc: state service ids not strictly ascending at index %d", i)
		}
		prev = ss.ID
		if ss.Node != Unplaced && (ss.Node < 0 || ss.Node >= len(st.Nodes)) {
			return fmt.Errorf("vmalloc: state service %d placed on invalid node %d", ss.ID, ss.Node)
		}
		for _, vv := range []struct {
			kind string
			v    Vec
		}{
			{"true elementary requirement", ss.True.ReqElem},
			{"true aggregate requirement", ss.True.ReqAgg},
			{"true elementary need", ss.True.NeedElem},
			{"true aggregate need", ss.True.NeedAgg},
			{"estimated elementary requirement", ss.Est.ReqElem},
			{"estimated aggregate requirement", ss.Est.ReqAgg},
			{"estimated elementary need", ss.Est.NeedElem},
			{"estimated aggregate need", ss.Est.NeedAgg},
		} {
			if err := checkVec(fmt.Sprintf("service %d %s", ss.ID, vv.kind), vv.v, nil); err != nil {
				return err
			}
		}
		if ss.ID >= st.NextID {
			return fmt.Errorf("vmalloc: state next id %d not above live id %d", st.NextID, ss.ID)
		}
	}
	if st.ReqLoads != nil || st.NeedLoads != nil {
		if len(st.ReqLoads) != len(st.Nodes) || len(st.NeedLoads) != len(st.Nodes) {
			return fmt.Errorf("vmalloc: state has %d/%d load vectors, want %d",
				len(st.ReqLoads), len(st.NeedLoads), len(st.Nodes))
		}
		for h := range st.ReqLoads {
			if err := checkVec(fmt.Sprintf("node %d requirement load", h), st.ReqLoads[h], st.Nodes[h].Aggregate); err != nil {
				return err
			}
			if err := checkVec(fmt.Sprintf("node %d need load", h), st.NeedLoads[h], st.Nodes[h].Aggregate); err != nil {
				return err
			}
		}
	}
	if th := st.Threshold; th < 0 || math.IsNaN(th) || math.IsInf(th, 0) {
		return fmt.Errorf("vmalloc: state threshold %g invalid", th)
	}
	return nil
}

// State returns a deep copy of the cluster's durable state, services in
// ascending id order.
func (c *Cluster) State() *ClusterState {
	nodes := make([]Node, len(c.eng.Nodes()))
	for h, n := range c.eng.Nodes() {
		nodes[h] = Node{Name: n.Name, Elementary: n.Elementary.Clone(), Aggregate: n.Aggregate.Clone()}
	}
	return &ClusterState{Nodes: nodes, State: *c.eng.State()}
}

// RestoreCluster rebuilds a cluster from a captured state. The platform and
// threshold come from st (opts.Threshold is ignored); solver configuration —
// tolerance, parallelism, LP bound — comes from opts as in NewCluster. The
// restored cluster continues bit-identically to the one that produced st.
func RestoreCluster(st *ClusterState, opts *ClusterOptions) (*Cluster, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &ClusterOptions{}
	}
	eng, err := engine.Restore(engine.Config{
		Nodes:      st.Nodes,
		CPUDim:     opts.CPUDim,
		Tol:        opts.Tolerance,
		Placer:     engine.Placer(opts.Placer),
		Parallel:   opts.Parallel,
		Workers:    opts.Workers,
		UseLPBound: opts.UseLPBound,
		Now:        time.Now,
	}, &st.State)
	if err != nil {
		return nil, err
	}
	return &Cluster{eng: eng}, nil
}

// RestoreAdd reinstalls a service with an already-decided id and node —
// the journal-replay counterpart of Add. It skips the admission test (the
// decision was made when the service was first admitted) but applies the
// same load arithmetic as a live admission. No event is emitted.
func (c *Cluster) RestoreAdd(id, node int, trueSvc, estSvc Service) error {
	if err := c.validateService("true", trueSvc); err != nil {
		return err
	}
	if err := c.validateService("estimated", estSvc); err != nil {
		return err
	}
	return c.eng.RestoreAdd(id, node, trueSvc, estSvc)
}

// ApplyPlacement applies an externally decided placement: ids[i] moves to
// pl[i]. The ids must be exactly the live services in ascending order (the
// epoch view order), which is what a journaled epoch record carries. It is
// the journal-replay counterpart of Reallocate/Repair and emits no event.
func (c *Cluster) ApplyPlacement(ids []int, pl Placement) (migrations int, err error) {
	return c.eng.ApplyPlacementByID(ids, pl)
}
