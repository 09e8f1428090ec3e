package engine

import (
	"fmt"
	"sort"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
)

// ServiceState is the durable description of one live service: its identity,
// its current node and both service descriptors.
type ServiceState struct {
	ID   int          `json:"id"`
	Node int          `json:"node"`
	True core.Service `json:"true"`
	Est  core.Service `json:"est"`
}

// State is the complete logical state of an engine, detached from all
// internal buffers: everything needed to reconstruct an engine that behaves
// bit-identically to the original from this point on. Nodes and the solver
// configuration travel separately (they are fixed at construction).
//
// ReqLoads/NeedLoads capture the incrementally maintained per-node load
// vectors. They are derivable from Services — recomputing them canonically
// (ascending id) gives values within floating-point drift of the running
// engine — but are carried verbatim so a restored engine's future admission
// decisions cannot diverge from the original by an ULP. When absent (hand-
// written state files), Restore recomputes them canonically.
type State struct {
	Threshold float64        `json:"threshold"`
	NextID    int            `json:"next_id"`
	Services  []ServiceState `json:"services"`
	ReqLoads  []vec.Vec      `json:"req_loads,omitempty"`
	NeedLoads []vec.Vec      `json:"need_loads,omitempty"`
}

// State returns a deep copy of the engine's logical state, services in
// ascending id order.
func (e *Engine) State() *State {
	st := &State{
		Threshold: e.threshold,
		NextID:    e.nextID,
		Services:  make([]ServiceState, 0, len(e.live)),
		ReqLoads:  make([]vec.Vec, len(e.reqLoads)),
		NeedLoads: make([]vec.Vec, len(e.needLoads)),
	}
	for _, si := range e.live {
		sl := &e.slots[si]
		st.Services = append(st.Services, ServiceState{
			ID:   sl.id,
			Node: sl.node,
			True: sl.trueSvc.Clone(),
			Est:  sl.estSvc.Clone(),
		})
	}
	sort.Slice(st.Services, func(i, j int) bool { return st.Services[i].ID < st.Services[j].ID })
	for h := range e.reqLoads {
		st.ReqLoads[h] = e.reqLoads[h].Clone()
		st.NeedLoads[h] = e.needLoads[h].Clone()
	}
	return st
}

// Restore builds an engine from a previously captured state. The returned
// engine continues bit-identically to the one that produced st: services are
// reinstalled in ascending id order, and the per-node loads are either taken
// verbatim from st or — when st omits them — recomputed canonically, which is
// the same arithmetic the running engine applies after every applied epoch.
func Restore(cfg Config, st *State) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.threshold = st.Threshold
	d := e.Dim()
	maxID := -1
	for i := range st.Services {
		ss := &st.Services[i]
		if i > 0 && ss.ID <= st.Services[i-1].ID {
			return nil, fmt.Errorf("engine: restore: service ids not strictly ascending at index %d", i)
		}
		if err := e.RestoreAdd(ss.ID, ss.Node, ss.True, ss.Est); err != nil {
			return nil, err
		}
		if ss.ID > maxID {
			maxID = ss.ID
		}
	}
	if st.NextID <= maxID {
		return nil, fmt.Errorf("engine: restore: next id %d not above max live id %d", st.NextID, maxID)
	}
	e.nextID = st.NextID
	if st.ReqLoads != nil || st.NeedLoads != nil {
		if len(st.ReqLoads) != len(e.reqLoads) || len(st.NeedLoads) != len(e.needLoads) {
			return nil, fmt.Errorf("engine: restore: %d/%d load vectors, want %d",
				len(st.ReqLoads), len(st.NeedLoads), len(e.reqLoads))
		}
		for h := range st.ReqLoads {
			if st.ReqLoads[h].Dim() != d || st.NeedLoads[h].Dim() != d {
				return nil, fmt.Errorf("engine: restore: load vector of node %d has wrong dimension", h)
			}
			copy(e.reqLoads[h], st.ReqLoads[h])
			copy(e.needLoads[h], st.NeedLoads[h])
		}
	}
	// Without explicit loads the RestoreAdd accumulation above already
	// equals the canonical ascending-id recomputation.
	return e, nil
}

// RestoreAdd installs a service with an already-decided identity and node,
// mirroring the arithmetic of a live Add exactly (slab slot, live list,
// incremental load accumulation) but skipping the admission test: the
// decision was made — and journaled — when the service was first admitted.
// Node may be core.Unplaced for a service that was admitted but displaced.
// The next fresh id is bumped past id.
func (e *Engine) RestoreAdd(id, node int, trueSvc, estSvc core.Service) error {
	if id < 0 {
		return fmt.Errorf("engine: restore add: negative id %d", id)
	}
	if _, exists := e.byID[id]; exists {
		return fmt.Errorf("engine: restore add: id %d already live", id)
	}
	if node != core.Unplaced && (node < 0 || node >= len(e.cfg.Nodes)) {
		return fmt.Errorf("engine: restore add: node %d out of range [0,%d)", node, len(e.cfg.Nodes))
	}
	d := e.Dim()
	for _, svc := range []*core.Service{&trueSvc, &estSvc} {
		if svc.ReqElem.Dim() != d || svc.ReqAgg.Dim() != d ||
			svc.NeedElem.Dim() != d || svc.NeedAgg.Dim() != d {
			return fmt.Errorf("engine: restore add: service %d has wrong dimensionality", id)
		}
	}
	si := e.allocSlot()
	sl := &e.slots[si]
	sl.id = id
	sl.trueSvc = trueSvc.Clone()
	sl.estSvc = estSvc.Clone()
	sl.node = node
	sl.used = true
	sl.livePos = len(e.live)
	e.live = append(e.live, si)
	e.byID[id] = si
	if id >= e.nextID {
		e.nextID = id + 1
	}
	if node != core.Unplaced {
		e.reqLoads[node].AccumAdd(sl.trueSvc.ReqAgg)
		e.needLoads[node].AccumAdd(sl.trueSvc.NeedAgg)
	}
	return nil
}

// ApplyPlacementByID applies an externally decided placement — typically one
// replayed from the journal — to the live services: ids[i] moves to
// placement[i]. The id list must cover exactly the live services in
// ascending order (the canonical epoch view order), so a journaled epoch
// re-applies against precisely the state it was computed from. Migrations of
// already-placed services are counted and the per-node loads are recomputed
// canonically, exactly as after a live solved epoch.
func (e *Engine) ApplyPlacementByID(ids []int, placement core.Placement) (migrations int, err error) {
	if len(ids) != len(placement) {
		return 0, fmt.Errorf("engine: apply placement: %d ids but %d placements", len(ids), len(placement))
	}
	if len(ids) != len(e.live) {
		return 0, fmt.Errorf("engine: apply placement: %d ids but %d live services", len(ids), len(e.live))
	}
	e.buildViews()
	for i, id := range ids {
		if id != e.ids[i] {
			return 0, fmt.Errorf("engine: apply placement: id %d at index %d, live view has %d", id, i, e.ids[i])
		}
		if h := placement[i]; h < 0 || h >= len(e.cfg.Nodes) {
			return 0, fmt.Errorf("engine: apply placement: service %d placed on invalid node %d", id, h)
		}
	}
	res := &core.Result{Solved: true, Placement: placement}
	return e.apply(res), nil
}
