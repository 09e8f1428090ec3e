package vmalloc

import (
	"fmt"
	"math"
	"sort"

	"vmalloc/internal/engine"
	"vmalloc/internal/shard"
)

// ClusterOp identifies the kind of mutation a ClusterEvent reports.
type ClusterOp = shard.Op

const (
	// ClusterOpAdd is a successful admission.
	ClusterOpAdd = shard.OpAdd
	// ClusterOpRemove is a departure.
	ClusterOpRemove = shard.OpRemove
	// ClusterOpUpdateNeeds replaced a live service's fluid needs.
	ClusterOpUpdateNeeds = shard.OpUpdateNeeds
	// ClusterOpSetThreshold changed the mitigation threshold (one event per
	// shard, so each shard's WAL carries its own copy).
	ClusterOpSetThreshold = shard.OpSetThreshold
	// ClusterOpEpoch applied one shard's solved Reallocate or Repair epoch.
	ClusterOpEpoch = shard.OpEpoch
	// ClusterOpMoveIn installed a cross-shard rebalanced service. It
	// replays like an admission; the move generation in ClusterEvent.Gen
	// lets a durable tier reconcile moves torn across WALs.
	ClusterOpMoveIn = shard.OpMoveIn
	// ClusterOpMoveOut departed a cross-shard rebalanced service. It
	// replays like a removal.
	ClusterOpMoveOut = shard.OpMoveOut
)

// ClusterEvent describes one applied mutation of a single placement domain,
// delivered to the event hook after the in-memory state has changed. It
// carries the decision, not the request: an admission event names the id and
// node the engine chose, an epoch event the placement that was applied —
// exactly what a write-ahead log needs to replay outcomes without re-running
// the solver. Events name the owning shard and node indices are shard-local
// (each shard's WAL replays onto its own domain); use Cluster.Node for the
// park-global index.
//
// Slice and pointer fields may alias engine-owned buffers and are valid only
// for the duration of the hook call; consumers must copy (or encode) what
// they keep.
type ClusterEvent = shard.Event

// SetHook installs fn as the cluster's mutation observer (nil uninstalls).
// The hook fires synchronously after every applied state change — rejected
// admissions, failed epochs and no-op removals are not reported — and in
// application order, which makes it the seam a durability layer journals
// through without the engine knowing about disks. The hook must not call
// back into the cluster.
func (c *Cluster) SetHook(fn func(*ClusterEvent)) { c.r.SetHook(fn) }

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
	// defect describes what is wrong with v ("" when nothing is), so the
	// vector's name is formatted only for a failing one. drift is nil for
	// stored values, which may not be negative at all, and the node's
	// aggregate capacity for a derived load (see loadDriftTol).
	defect := func(v, drift Vec) string {
		if v.Dim() != d {
			return fmt.Sprintf("has %d dimensions, want %d", v.Dim(), d)
		}
		for dd, x := range v {
			floor := 0.0
			if drift != nil {
				floor = -loadDriftTol * drift[dd]
			}
			if x < floor || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Sprintf("has invalid value %g in dimension %d", x, dd)
			}
		}
		return ""
	}
	invalid := func(msg, format string, args ...any) error {
		return fmt.Errorf("vmalloc: state %s %s", fmt.Sprintf(format, args...), msg)
	}
	for h, n := range st.Nodes {
		if msg := defect(n.Elementary, nil); msg != "" {
			return invalid(msg, "node %d elementary capacity", h)
		}
		if msg := defect(n.Aggregate, nil); msg != "" {
			return invalid(msg, "node %d aggregate capacity", h)
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
		for k, v := range [...]Vec{
			ss.True.ReqElem, ss.True.ReqAgg, ss.True.NeedElem, ss.True.NeedAgg,
			ss.Est.ReqElem, ss.Est.ReqAgg, ss.Est.NeedElem, ss.Est.NeedAgg,
		} {
			if msg := defect(v, nil); msg != "" {
				return invalid(msg, "service %d %s %s", ss.ID, [...]string{"true", "estimated"}[k/4],
					[...]string{"elementary requirement", "aggregate requirement", "elementary need", "aggregate need"}[k%4])
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
			if msg := defect(st.ReqLoads[h], st.Nodes[h].Aggregate); msg != "" {
				return invalid(msg, "node %d requirement load", h)
			}
			if msg := defect(st.NeedLoads[h], st.Nodes[h].Aggregate); msg != "" {
				return invalid(msg, "node %d need load", h)
			}
		}
	}
	if th := st.Threshold; th < 0 || math.IsNaN(th) || math.IsInf(th, 0) {
		return fmt.Errorf("vmalloc: state threshold %g invalid", th)
	}
	return nil
}

// ShardState returns the durable state of one placement domain: the shard's
// own node slice plus its engine state (services keep their global ids;
// node indices are shard-local). The per-shard states are the snapshot
// payloads of the durable tier; a one-domain cluster's shard 0 state is its
// State.
func (c *Cluster) ShardState(s int) *ClusterState { return shardState(c.r, s) }

// State returns a deep copy of the merged park-global durable state: all
// nodes in park order, services ascending by id with park-global node
// indices, and the concatenated per-node loads.
func (c *Cluster) State() *ClusterState { return mergedState(c.r) }

// routerView is the read surface shared by a live shard.Router and a
// never-finished shard.Recovery (the replication follower's replay seam).
type routerView interface {
	Shards() int
	Nodes() []Node
	NodeRange(s int) (lo, hi int)
	ShardState(s int) *engine.State
	Threshold() float64
}

// shardState extracts the durable state of one placement domain from a
// router view (see Cluster.ShardState for the representation).
func shardState(r routerView, s int) *ClusterState {
	lo, hi := r.NodeRange(s)
	nodes := cloneNodes(r.Nodes()[lo:hi])
	return &ClusterState{Nodes: nodes, State: *r.ShardState(s)}
}

// mergedState builds the merged park-global durable state from a router
// view (see Cluster.State for the representation).
func mergedState(r routerView) *ClusterState {
	st := &ClusterState{Nodes: cloneNodes(r.Nodes())}
	st.Threshold = r.Threshold()
	for s := 0; s < r.Shards(); s++ {
		es := r.ShardState(s)
		lo, _ := r.NodeRange(s)
		for i := range es.Services {
			if es.Services[i].Node != Unplaced {
				es.Services[i].Node += lo
			}
		}
		st.Services = append(st.Services, es.Services...)
		st.ReqLoads = append(st.ReqLoads, es.ReqLoads...)
		st.NeedLoads = append(st.NeedLoads, es.NeedLoads...)
		if es.NextID > st.NextID {
			st.NextID = es.NextID
		}
	}
	sort.Slice(st.Services, func(i, j int) bool { return st.Services[i].ID < st.Services[j].ID })
	return st
}

func cloneNodes(nodes []Node) []Node {
	out := make([]Node, len(nodes))
	for i, n := range nodes {
		out[i] = n.Clone()
	}
	return out
}

// RestoreCluster rebuilds a one-domain cluster from a captured state. The
// platform and threshold come from st (opts.Threshold is ignored); the
// placer comes from opts as in NewCluster. The restored cluster continues
// bit-identically to the one that produced st.
func RestoreCluster(st *ClusterState, opts *ClusterOptions) (*Cluster, error) {
	rs, err := RestoreShardedCluster(st.Nodes, []*ClusterState{st}, opts.sharded())
	if err != nil {
		return nil, err
	}
	c, _, err := rs.Finish()
	return c, err
}

// ShardedRestore is an in-progress recovery of a Cluster: the shard engines
// have been rebuilt from their snapshot states, and the caller replays each
// shard's journal tail through the Shard* methods — the replay counterparts
// of the live mutations, which skip the admission test and the solver (the
// decisions were made when the records were written) but apply the same
// load arithmetic — before Finish reconciles the shards into a ready
// cluster. A multi-WAL tier needs two things beyond plain replay: move
// generations (to resolve a rebalance move torn across two shard WALs) and
// departure tombstones (to drop copies a stale source WAL resurrects).
type ShardedRestore struct {
	rc  *shard.Recovery
	dim int
}

// RestoreShardedCluster begins recovery of a cluster over the given park.
// states holds one entry per shard — the shard's last snapshot, or nil to
// bootstrap that shard empty. Each non-nil state must carry exactly the
// node slice its shard owns under the park partition.
func RestoreShardedCluster(nodes []Node, states []*ClusterState, opts *ShardedOptions) (*ShardedRestore, error) {
	if opts == nil {
		opts = &ShardedOptions{}
	}
	cfg := opts.routerConfig(nodes)
	if len(states) != cfg.Shards {
		return nil, fmt.Errorf("vmalloc: %d shard states for %d shards", len(states), cfg.Shards)
	}
	estates := make([]*engine.State, len(states))
	for s, st := range states {
		if st == nil {
			continue
		}
		if err := st.Validate(); err != nil {
			return nil, fmt.Errorf("vmalloc: shard %d state: %w", s, err)
		}
		lo, hi := shard.Partition(len(nodes), cfg.Shards, s)
		if err := nodesMatch(nodes[lo:hi], st.Nodes); err != nil {
			return nil, fmt.Errorf("vmalloc: shard %d state: %w", s, err)
		}
		estates[s] = &st.State
	}
	rc, err := shard.Restore(cfg, estates)
	if err != nil {
		return nil, err
	}
	d := 0
	if len(nodes) > 0 {
		d = nodes[0].Aggregate.Dim()
	}
	return &ShardedRestore{rc: rc, dim: d}, nil
}

func nodesMatch(want, got []Node) error {
	if len(want) != len(got) {
		return fmt.Errorf("has %d nodes, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Name != got[i].Name ||
			!vecEqual(want[i].Elementary, got[i].Elementary) ||
			!vecEqual(want[i].Aggregate, got[i].Aggregate) {
			return fmt.Errorf("node %d differs from the park partition", i)
		}
	}
	return nil
}

func vecEqual(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //vmalloc:nondet-ok bit-identity comparison of round-tripped state vectors is the durability contract
			return false
		}
	}
	return true
}

// ShardAdd replays an admission (journal op ADD) into shard s.
func (r *ShardedRestore) ShardAdd(s, id, node int, trueSvc, estSvc Service) error {
	if err := validateServiceVecs(r.dim, "true", trueSvc); err != nil {
		return err
	}
	if err := validateServiceVecs(r.dim, "estimated", estSvc); err != nil {
		return err
	}
	return r.rc.ShardAdd(s, id, node, trueSvc, estSvc)
}

// ShardMoveIn replays a rebalance arrival (journal op MOVE_IN) into shard s.
func (r *ShardedRestore) ShardMoveIn(s, id, node int, gen uint64, trueSvc, estSvc Service) error {
	if err := validateServiceVecs(r.dim, "true", trueSvc); err != nil {
		return err
	}
	if err := validateServiceVecs(r.dim, "estimated", estSvc); err != nil {
		return err
	}
	return r.rc.ShardMoveIn(s, id, node, gen, trueSvc, estSvc)
}

// ShardRemove replays a departure (journal op REMOVE) from shard s.
func (r *ShardedRestore) ShardRemove(s, id int) error { return r.rc.ShardRemove(s, id) }

// ShardMoveOut replays a rebalance departure (journal op MOVE_OUT) from
// shard s.
func (r *ShardedRestore) ShardMoveOut(s, id int, gen uint64) error {
	return r.rc.ShardMoveOut(s, id, gen)
}

// ShardUpdateNeeds replays a needs update in shard s.
func (r *ShardedRestore) ShardUpdateNeeds(s, id int, needs [4]Vec) error {
	for _, v := range needs {
		if err := validateVec(r.dim, "need", v); err != nil {
			return err
		}
	}
	return r.rc.ShardUpdateNeeds(s, id, needs)
}

// ShardSetThreshold replays a threshold change in shard s.
func (r *ShardedRestore) ShardSetThreshold(s int, th float64) error {
	return r.rc.ShardSetThreshold(s, th)
}

// ShardApplyPlacement replays an applied epoch in shard s (global ids,
// shard-local placement, exactly as journaled).
func (r *ShardedRestore) ShardApplyPlacement(s int, ids []int, pl Placement) error {
	return r.rc.ShardApplyPlacement(s, ids, pl)
}

// Read view — a replication follower applies the leader's journal records
// through the Shard* methods above for as long as it follows, and serves
// these read-only queries from the half-restored cluster without ever
// calling Finish. The caller must serialize reads against replay. All reads
// are valid until Finish; during a torn rebalance window a moving service
// can transiently appear in two shards (Len counts both), exactly the
// duplication Finish reconciles on promotion.

// Shards returns the number of placement domains being restored.
func (r *ShardedRestore) Shards() int { return r.rc.Shards() }

// Len returns the number of live service copies across all shards.
func (r *ShardedRestore) Len() int { return r.rc.Len() }

// Threshold returns the currently replayed mitigation threshold.
func (r *ShardedRestore) Threshold() float64 { return r.rc.Threshold() }

// MinYield evaluates the achieved minimum yield of the replayed placement
// under the §6 error model, exactly as Cluster.MinYield would.
func (r *ShardedRestore) MinYield(policy SchedPolicy) float64 { return r.rc.MinYield(policy) }

// ShardStats returns per-shard statistics over the replayed engines. Epoch
// and migration counters stay zero while following: epochs arrive as
// journaled placements, not locally-solved epochs.
func (r *ShardedRestore) ShardStats() []ShardStat { return r.rc.Stats() }

// ShardState returns the durable state of one replayed placement domain, in
// the same representation as Cluster.ShardState.
func (r *ShardedRestore) ShardState(s int) *ClusterState { return shardState(r.rc, s) }

// State returns the merged park-global durable state of the replayed
// cluster, in the same representation as Cluster.State.
func (r *ShardedRestore) State() *ClusterState { return mergedState(r.rc) }

// Finish reconciles the replayed shards and returns the recovered cluster
// plus human-readable warnings for any cross-WAL repairs (dropped duplicate
// or resurrected copies, threshold realignment); warnings are empty after a
// clean shutdown and after any crash outside a rebalance commit window.
func (r *ShardedRestore) Finish() (*Cluster, []string, error) {
	router, warnings, err := r.rc.Finish()
	if err != nil {
		return nil, warnings, err
	}
	return &Cluster{r: router}, warnings, nil
}
