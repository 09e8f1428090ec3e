package shard

import (
	"fmt"
	"sort"

	"vmalloc/internal/core"
	"vmalloc/internal/engine"
	"vmalloc/internal/sched"
	"vmalloc/internal/vec"
)

// ShardState returns a deep copy of shard s's durable engine state (services
// carry global ids and shard-local nodes). The per-shard states are the
// snapshot payloads of the sharded durable tier; Restore accepts them back.
func (r *Router) ShardState(s int) *engine.State { return r.domains[s].eng.State() }

// Recovery rebuilds a Router from per-shard durable states plus per-shard
// WAL replay. The protocol mirrors the journal's snapshot-plus-tail recipe,
// shard by shard:
//
//  1. Restore constructs every shard engine from its snapshot state.
//  2. The caller replays each shard's journal tail through the Shard*
//     methods. Replay is purely shard-local — every record mutates only its
//     own engine — so per-journal prefix durability makes each shard
//     self-consistent on its own.
//  3. Finish reconciles the shards into one router: it rebuilds the global
//     id map, resolves services a torn rebalance move left live in two
//     shards (the move-in generation decides; the stale source copy is
//     dropped), drops copies resurrected past a durable departure, adopts
//     the newest mitigation threshold when a torn SetThreshold left shards
//     disagreeing, and recomputes the global fresh id.
//
// The only cross-WAL coupling a crash can produce is duplication: the
// durable tier fsyncs a move's destination record before enqueuing its
// source record, so a moving service can be recovered twice but never lost.
type Recovery struct {
	r        *Router
	movedIn  map[int]moveMark
	maxGen   map[int]uint64
	gone     map[int]bool
	finished bool
}

type moveMark struct {
	shard int
	gen   uint64
}

// Restore builds the shard engines from per-shard snapshot states (nil
// entries bootstrap an empty shard) and returns the Recovery to replay WAL
// tails through. cfg must describe the same park partition that produced
// the states.
func Restore(cfg Config, states []*engine.State) (*Recovery, error) {
	if len(states) != cfg.Shards {
		return nil, fmt.Errorf("shard: restore: %d states for %d shards", len(states), cfg.Shards)
	}
	r, err := newRouter(cfg, states)
	if err != nil {
		return nil, err
	}
	return &Recovery{
		r:       r,
		movedIn: make(map[int]moveMark),
		maxGen:  make(map[int]uint64),
		gone:    make(map[int]bool),
	}, nil
}

func (rc *Recovery) domain(s int) (*domain, error) {
	if rc.finished {
		return nil, fmt.Errorf("shard: recovery already finished")
	}
	if s < 0 || s >= len(rc.r.domains) {
		return nil, fmt.Errorf("shard: replay names shard %d of %d", s, len(rc.r.domains))
	}
	return rc.r.domains[s], nil
}

// ShardAdd replays an admission into shard s.
func (rc *Recovery) ShardAdd(s, id, node int, trueSvc, estSvc core.Service) error {
	d, err := rc.domain(s)
	if err != nil {
		return err
	}
	return d.eng.RestoreAdd(id, node, trueSvc, estSvc)
}

// ShardMoveIn replays a rebalance arrival into shard s, recording the move
// generation for Finish's duplicate resolution.
func (rc *Recovery) ShardMoveIn(s, id, node int, gen uint64, trueSvc, estSvc core.Service) error {
	d, err := rc.domain(s)
	if err != nil {
		return err
	}
	if err := d.eng.RestoreAdd(id, node, trueSvc, estSvc); err != nil {
		return err
	}
	if gen > rc.maxGen[id] {
		rc.maxGen[id] = gen
	}
	if m, ok := rc.movedIn[id]; !ok || gen > m.gen {
		rc.movedIn[id] = moveMark{shard: s, gen: gen}
	}
	return nil
}

// ShardRemove replays a client departure from shard s. The id is
// tombstoned: ids are never reused, so any copy of it another shard's
// journal resurrects is stale and dropped at Finish.
func (rc *Recovery) ShardRemove(s, id int) error {
	d, err := rc.domain(s)
	if err != nil {
		return err
	}
	if !d.eng.Remove(id) {
		return fmt.Errorf("shard %d: replay: remove of unknown id %d", s, id)
	}
	rc.gone[id] = true
	return nil
}

// ShardMoveOut replays a rebalance departure from shard s.
func (rc *Recovery) ShardMoveOut(s, id int, gen uint64) error {
	d, err := rc.domain(s)
	if err != nil {
		return err
	}
	if !d.eng.Remove(id) {
		return fmt.Errorf("shard %d: replay: move-out of unknown id %d", s, id)
	}
	if gen > rc.maxGen[id] {
		rc.maxGen[id] = gen
	}
	return nil
}

// ShardUpdateNeeds replays a needs update in shard s.
func (rc *Recovery) ShardUpdateNeeds(s, id int, needs [4]vec.Vec) error {
	d, err := rc.domain(s)
	if err != nil {
		return err
	}
	if !d.eng.UpdateNeeds(id, needs[0], needs[1], needs[2], needs[3]) {
		return fmt.Errorf("shard %d: replay: needs update of unknown id %d", s, id)
	}
	return nil
}

// ShardSetThreshold replays a threshold change in shard s.
func (rc *Recovery) ShardSetThreshold(s int, th float64) error {
	d, err := rc.domain(s)
	if err != nil {
		return err
	}
	d.eng.SetThreshold(th)
	return nil
}

// ShardApplyPlacement replays an applied epoch in shard s (ids global,
// placement shard-local, exactly as journaled).
func (rc *Recovery) ShardApplyPlacement(s int, ids []int, pl core.Placement) error {
	d, err := rc.domain(s)
	if err != nil {
		return err
	}
	_, err = d.eng.ApplyPlacementByID(ids, pl)
	return err
}

// Read view — the surface a replication follower serves while it tails the
// leader's journals through a never-finished Recovery. Each method reads the
// shard engines exactly as the corresponding Router method would; none of
// them require the cross-shard reconciliation Finish performs, so they are
// valid mid-replay (a torn rebalance move may transiently show a service in
// two shards, which is the same duplication Finish repairs). The caller must
// serialize reads against Shard* replay calls. Reads are valid until Finish.

// Shards returns the number of placement domains.
func (rc *Recovery) Shards() int { return rc.r.Shards() }

// Len returns the number of live service copies across all shards. During a
// torn rebalance window a moving service is counted in both shards.
func (rc *Recovery) Len() int {
	n := 0
	for _, d := range rc.r.domains {
		n += d.eng.Len()
	}
	return n
}

// Nodes returns the full park node slice.
func (rc *Recovery) Nodes() []core.Node { return rc.r.Nodes() }

// NodeRange returns the park-global [lo, hi) node range of shard s.
func (rc *Recovery) NodeRange(s int) (lo, hi int) { return rc.r.NodeRange(s) }

// ShardState returns a deep copy of shard s's current engine state.
func (rc *Recovery) ShardState(s int) *engine.State { return rc.r.ShardState(s) }

// Threshold returns the mitigation threshold currently replayed into shard
// 0. Shards can transiently disagree after a torn SetThreshold; promotion
// re-opens the store and reconciles exactly as crash recovery does.
func (rc *Recovery) Threshold() float64 { return rc.r.Threshold() }

// MinYield evaluates the achieved minimum yield over the replayed shards.
func (rc *Recovery) MinYield(policy sched.Policy) float64 { return rc.r.MinYield(policy) }

// Stats returns per-shard statistics over the replayed engines. Epoch and
// migration counters are zero on a follower: epochs replay as journaled
// placements, not as locally-solved epochs.
func (rc *Recovery) Stats() []Stat { return rc.r.Stats() }

// Finish reconciles the replayed shards into a ready Router. It returns
// human-readable warnings for every cross-WAL repair it performed (dropped
// duplicate copies of moved services, dropped resurrections of departed
// services, threshold reconciliation); an empty slice is the common case.
func (rc *Recovery) Finish() (*Router, []string, error) {
	if rc.finished {
		return nil, nil, fmt.Errorf("shard: recovery already finished")
	}
	rc.finished = true
	r := rc.r

	live := map[int][]int{}
	nextID := 0
	for s, d := range r.domains {
		st := d.eng.State()
		if st.NextID > nextID {
			nextID = st.NextID
		}
		for i := range st.Services {
			id := st.Services[i].ID
			live[id] = append(live[id], s)
		}
	}
	var warnings []string
	ids := make([]int, 0, len(live))
	for id := range live { //vmalloc:nondet-ok ids are collected into a slice and sorted before any use
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		shards := live[id]
		if rc.gone[id] {
			for _, s := range shards {
				r.domains[s].eng.Remove(id)
				warnings = append(warnings, fmt.Sprintf(
					"dropped service %d from shard %d: a durable departure superseded it", id, s))
			}
			continue
		}
		if len(shards) == 1 {
			r.byID[id] = shards[0]
			continue
		}
		// A rebalance move torn across two WALs: the destination's
		// move-in was fsynced before the source's move-out was enqueued,
		// so the newest move-in marks the copy to keep.
		mark, ok := rc.movedIn[id]
		keep := -1
		if ok {
			for _, s := range shards {
				if s == mark.shard {
					keep = s
				}
			}
		}
		if keep < 0 {
			return nil, warnings, fmt.Errorf(
				"shard: service %d recovered live in shards %v with no move-in marker; journal directories disagree",
				id, shards)
		}
		for _, s := range shards {
			if s == keep {
				continue
			}
			r.domains[s].eng.Remove(id)
			warnings = append(warnings, fmt.Sprintf(
				"dropped stale copy of service %d from shard %d (move generation %d kept it in shard %d)",
				id, s, mark.gen, keep))
		}
		r.byID[id] = keep
	}
	r.nextID = nextID

	for id := range r.byID { //vmalloc:nondet-ok per-id generation writes are independent; result is order-free
		if g := rc.maxGen[id]; g > 0 {
			r.moveGen[id] = g
		}
	}

	// A torn SetThreshold can leave shard journals at different
	// thresholds; adopt the largest (both values were operator-chosen, and
	// the choice must be deterministic) and realign every shard.
	th := r.domains[0].eng.Threshold()
	mismatch := false
	for _, d := range r.domains[1:] {
		if d.eng.Threshold() != th { //vmalloc:nondet-ok replay compares a round-tripped threshold that is bit-identical by the WAL contract
			mismatch = true
			if d.eng.Threshold() > th {
				th = d.eng.Threshold()
			}
		}
	}
	if mismatch {
		warnings = append(warnings, fmt.Sprintf(
			"shard thresholds disagreed after replay; adopting %g on all shards", th))
		for _, d := range r.domains {
			d.eng.SetThreshold(th)
		}
	}
	return r, warnings, nil
}
