package main

import (
	"errors"
	"fmt"
	"time"

	"vmalloc"
	"vmalloc/internal/engine"
	"vmalloc/internal/journal"
	"vmalloc/internal/server"
	"vmalloc/internal/shard"
)

// The bench cannot see inside the vmallocd subprocess, so the traced run of a
// daemon workload is a layer replay: the identical generated schedule is
// driven in-process, back to back on one goroutine, against successively
// thinner stacks — the durable store (no HTTP), the cluster (no journal), the
// shard router, one bare engine — and the resulting records against a bare
// journal. A layer's self time is the difference between adjacent stacks.

// stack is what a replay needs from one layer of the serving path.
type stack interface {
	add(svc *vmalloc.Service) (id int, ok bool, err error)
	remove(id int) error
	update(id int, elem, agg vmalloc.Vec) error
	epoch() (moves int, err error) // full reallocate; moves = cross-shard rebalance moves
	repair(budget int) error
}

var errGone = errors.New("service not resident")

// daemonSeed is vmallocd's default -seed: the shard admission hash seed the
// subprocess runs with, so in-process stacks route admissions the same way.
const daemonSeed = 1

type storeStack struct{ s server.API }

func (k storeStack) add(svc *vmalloc.Service) (int, bool, error) {
	id, _, err := k.s.AddWithEstimate(*svc, *svc)
	if errors.Is(err, server.ErrRejected) {
		return 0, false, nil
	}
	return id, err == nil, err
}
func (k storeStack) remove(id int) error {
	ok, err := k.s.Remove(id)
	if err == nil && !ok {
		err = errGone
	}
	return err
}
func (k storeStack) update(id int, elem, agg vmalloc.Vec) error {
	return k.s.UpdateNeeds(id, elem, agg, elem, agg)
}
func (k storeStack) epoch() (int, error)     { _, err := k.s.Reallocate(); return 0, err }
func (k storeStack) repair(budget int) error { _, err := k.s.Repair(budget); return err }

// clusterAPI is the surface vmalloc.Cluster and vmalloc.ShardedCluster share.
type clusterAPI interface {
	Add(svc vmalloc.Service) (id int, ok bool, err error)
	Remove(id int) bool
	UpdateNeeds(id int, te, ta, ee, ea vmalloc.Vec) error
	Reallocate() *vmalloc.ClusterEpoch
	Repair(budget int) *vmalloc.ClusterEpoch
}

type clusterStack struct{ c clusterAPI }

func (k clusterStack) add(svc *vmalloc.Service) (int, bool, error) { return k.c.Add(*svc) }
func (k clusterStack) remove(id int) error {
	if !k.c.Remove(id) {
		return errGone
	}
	return nil
}
func (k clusterStack) update(id int, elem, agg vmalloc.Vec) error {
	return k.c.UpdateNeeds(id, elem, agg, elem, agg)
}
func (k clusterStack) epoch() (int, error)     { k.c.Reallocate(); return 0, nil }
func (k clusterStack) repair(budget int) error { k.c.Repair(budget); return nil }

type routerStack struct {
	r *shard.Router
	// slowest accumulates, per epoch, the slowest shard's solve time over
	// the epoch's wall time.
	slowest []float64
}

func (k *routerStack) add(svc *vmalloc.Service) (int, bool, error) {
	id, _, _, ok := k.r.Add(*svc, *svc)
	return id, ok, nil
}
func (k *routerStack) remove(id int) error {
	if !k.r.Remove(id) {
		return errGone
	}
	return nil
}
func (k *routerStack) update(id int, elem, agg vmalloc.Vec) error {
	if !k.r.UpdateNeeds(id, elem, agg, elem, agg) {
		return errGone
	}
	return nil
}
func (k *routerStack) epoch() (int, error) {
	t := time.Now()
	ep := k.r.Reallocate()
	wall := time.Since(t)
	if ep.Stats != nil {
		var worst int64
		for _, s := range ep.Stats.Shards {
			worst = max(worst, s.SolveNs)
		}
		k.slowest = append(k.slowest, float64(worst)/float64(wall))
	}
	return ep.RebalanceMoves, nil
}
func (k *routerStack) repair(budget int) error { k.r.Repair(budget); return nil }

type engineStack struct{ e *engine.Engine }

func (k engineStack) add(svc *vmalloc.Service) (int, bool, error) {
	id, _, ok := k.e.Add(*svc, *svc)
	return id, ok, nil
}
func (k engineStack) remove(id int) error {
	if !k.e.Remove(id) {
		return errGone
	}
	return nil
}
func (k engineStack) update(id int, elem, agg vmalloc.Vec) error {
	if !k.e.UpdateNeeds(id, elem, agg, elem, agg) {
		return errGone
	}
	return nil
}
func (k engineStack) epoch() (int, error)     { k.e.Reallocate(); return 0, nil }
func (k engineStack) repair(budget int) error { k.e.Repair(budget); return nil }

// replayTimes holds one stack's per-call timings.
type replayTimes struct {
	addUs, removeUs, updateUs []float64
	epochMs, repairMs         []float64
	adds, rejected            int
	moves                     int // rebalance moves of the first epoch
	records                   []*journal.Record
}

// replay pre-loads st with the first parkLive pool services and then runs ops
// back to back, timing every call under a span named "<layer> <op>". Ops name
// pool indices; each stack assigns its own ids.
func replay(e *env, res *result, layer string, lane int, st stack, pk *park, ops []op) *replayTimes {
	rt := &replayTimes{}
	ids := make([]int, len(pk.Pool))
	for j := range ids {
		ids[j] = -1
	}
	for j := 0; j < parkLive; j++ {
		if id, ok, err := st.add(&pk.Pool[j]); err == nil && ok {
			ids[j] = id
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	epochs := 0
	for i, o := range ops {
		svc := &pk.Pool[o.Svc]
		var err error
		switch o.Kind {
		case opAdd:
			var id int
			var ok bool
			d := e.rec.timed(layer+" add", -1, i, lane, func() { id, ok, err = st.add(svc) })
			rt.addUs = append(rt.addUs, us(d))
			rt.adds++
			if err == nil && ok {
				ids[o.Svc] = id
				rt.records = append(rt.records, &journal.Record{Op: journal.OpAdd, ID: id, TrueSvc: *svc, EstSvc: *svc})
			} else if err == nil {
				rt.rejected++
			}
		case opRemove:
			id := ids[o.Svc]
			if id < 0 {
				continue
			}
			ids[o.Svc] = -1
			rt.removeUs = append(rt.removeUs, us(e.rec.timed(layer+" remove", -1, i, lane, func() { err = st.remove(id) })))
			rt.records = append(rt.records, &journal.Record{Op: journal.OpRemove, ID: id})
		case opUpdate:
			id := ids[o.Svc]
			if id < 0 {
				continue
			}
			elem, agg := scaledNeeds(svc, o.Scale)
			rt.updateUs = append(rt.updateUs, us(e.rec.timed(layer+" update", -1, i, lane, func() { err = st.update(id, elem, agg) })))
			rt.records = append(rt.records, &journal.Record{Op: journal.OpUpdateNeeds, ID: id, Needs: [4]vmalloc.Vec{elem, agg, elem, agg}})
		case opEpoch:
			var moves int
			rt.epochMs = append(rt.epochMs, ms(e.rec.timed(layer+" reallocate", -1, i, lane, func() { moves, err = st.epoch() })))
			if epochs == 0 {
				rt.moves = moves
			}
			epochs++
		case opRepair:
			rt.repairMs = append(rt.repairMs, ms(e.rec.timed(layer+" repair", -1, i, lane, func() { err = st.repair(repairBudget) })))
		}
		res.check(err == nil, "%s replay: %s of pool service %d: %v", layer, o.Kind, o.Svc, err)
	}
	return rt
}

// openStore opens the durable store in-process the way the daemon does for
// the given shard count (0 = the unsharded Store).
func openStore(dir string, nodes []vmalloc.Node, shards int) (interface {
	server.API
	Close() error
}, error) {
	opts := &server.Options{Fsync: journal.FsyncBatch, Shards: shards, ShardSeed: daemonSeed}
	if shards > 0 {
		return server.OpenSharded(dir, nodes, opts)
	}
	return server.Open(dir, nodes, opts)
}

// journalProbe appends records to a bare journal with one writer, one fsync
// group per record — the lower bound of a single durable write — and then
// commits them again in groups of 64.
type journalProbe struct {
	appendUs, batchUs []float64
	bytesPerRecord    float64
}

func probeJournal(e *env, res *result, lane int, records []*journal.Record) (*journalProbe, error) {
	dir, err := e.tempDir("journal-")
	if err != nil {
		return nil, err
	}
	j, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncBatch}, func(*journal.Record) error { return nil })
	if err != nil {
		return nil, err
	}
	jp := &journalProbe{}
	for i, r := range records {
		cp := *r
		var err error
		d := e.rec.timed("journal append", -1, i, lane, func() { err = j.Append(&cp) })
		res.check(err == nil, "journal.Append: %v", err)
		jp.appendUs = append(jp.appendUs, float64(d)/float64(time.Microsecond))
	}
	if len(records) > 0 {
		jp.bytesPerRecord = dirSizeMB(dir) * (1 << 20) / float64(len(records))
	}
	for lo := 0; lo+ingestBatch <= len(records); lo += ingestBatch {
		b := j.NewBatch()
		for _, r := range records[lo : lo+ingestBatch] {
			cp := *r
			if err := b.Add(&cp); err != nil {
				return nil, fmt.Errorf("journal batch add: %w", err)
			}
		}
		var err error
		d := e.rec.timed("journal batch commit", -1, lo, lane, func() { err = b.Commit().Wait() })
		res.check(err == nil, "journal batch commit: %v", err)
		jp.batchUs = append(jp.batchUs, float64(d)/float64(time.Microsecond))
	}
	return jp, j.Close()
}
