package vmalloc

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"vmalloc/internal/engine"
)

// shardedTapeOp is one entry of a deterministic mutation tape shared by
// equivalence and determinism tests.
type shardedTapeOp struct {
	kind    string // add, remove, update, threshold, realloc, repair
	svc     Service
	est     Service
	pick    int
	needs   [4]Vec
	th      float64
	budget  int
	applied bool
}

func shardedTape(n int, seed int64) []shardedTapeOp {
	rng := rand.New(rand.NewSource(seed))
	tape := make([]shardedTapeOp, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%9 == 8:
			tape = append(tape, shardedTapeOp{kind: "realloc"})
		case i%23 == 22:
			tape = append(tape, shardedTapeOp{kind: "repair", budget: 2})
		case i%15 == 14:
			tape = append(tape, shardedTapeOp{kind: "threshold", th: 0.05 + 0.2*rng.Float64()})
		default:
			switch k := rng.Intn(10); {
			case k < 6:
				svc := clusterService(rng)
				est := svc
				est.NeedAgg = svc.NeedAgg.Scale(1 + 0.3*(rng.Float64()-0.5))
				tape = append(tape, shardedTapeOp{kind: "add", svc: svc, est: est})
			case k < 8:
				tape = append(tape, shardedTapeOp{kind: "remove", pick: rng.Int()})
			default:
				nv := Of(rng.Float64()*0.25, 0.02*rng.Float64())
				tape = append(tape, shardedTapeOp{kind: "update", pick: rng.Int(),
					needs: [4]Vec{nv.Clone(), nv.Clone(), nv.Clone(), nv.Clone()}})
			}
		}
	}
	return tape
}

// clusterLike is the mutation surface shared by Cluster and the bare-engine
// reference (engineRef).
type clusterLike interface {
	AddWithEstimate(trueSvc, estSvc Service) (int, bool, error)
	Remove(id int) bool
	UpdateNeeds(id int, a, b, c, d Vec) error
	SetThreshold(th float64) error
	Reallocate() *ClusterEpoch
	Repair(budget int) *ClusterEpoch
	MinYield(policy SchedPolicy) float64
}

// driveTape applies the tape and returns the per-epoch min yields plus the
// final live id set, both fully determined by the tape.
func driveTape(t *testing.T, c clusterLike, tape []shardedTapeOp) (yields []float64, live []int) {
	t.Helper()
	for i := range tape {
		o := &tape[i]
		switch o.kind {
		case "add":
			id, ok, err := c.AddWithEstimate(o.svc, o.est)
			if err != nil {
				t.Fatalf("op %d add: %v", i, err)
			}
			if ok {
				live = append(live, id)
			}
		case "remove":
			if len(live) == 0 {
				continue
			}
			idx := o.pick % len(live)
			if !c.Remove(live[idx]) {
				t.Fatalf("op %d remove %d failed", i, live[idx])
			}
			live = append(live[:idx], live[idx+1:]...)
		case "update":
			if len(live) == 0 {
				continue
			}
			id := live[o.pick%len(live)]
			if err := c.UpdateNeeds(id, o.needs[0], o.needs[1], o.needs[2], o.needs[3]); err != nil {
				t.Fatalf("op %d update: %v", i, err)
			}
		case "threshold":
			if err := c.SetThreshold(o.th); err != nil {
				t.Fatalf("op %d threshold: %v", i, err)
			}
		case "realloc":
			ce := c.Reallocate()
			yields = append(yields, ce.Result.MinYield, c.MinYield(PolicyAllocCaps))
		case "repair":
			ce := c.Repair(o.budget)
			yields = append(yields, ce.Result.MinYield)
		}
	}
	return yields, live
}

// engineRef drives a bare engine.Engine through the clusterLike surface: the
// reference a one-domain Cluster is held bit-identical to. The engine knows
// nothing of routers, shards or hooks — it is the single-platform arithmetic
// the K=1 cluster must reduce to.
type engineRef struct{ e *engine.Engine }

func (r engineRef) AddWithEstimate(trueSvc, estSvc Service) (int, bool, error) {
	id, _, ok := r.e.Add(trueSvc, estSvc)
	return id, ok, nil
}
func (r engineRef) Remove(id int) bool { return r.e.Remove(id) }
func (r engineRef) UpdateNeeds(id int, a, b, c, d Vec) error {
	if !r.e.UpdateNeeds(id, a, b, c, d) {
		return ErrUnknownService
	}
	return nil
}
func (r engineRef) SetThreshold(th float64) error { r.e.SetThreshold(th); return nil }
func (r engineRef) Reallocate() *ClusterEpoch {
	return &ClusterEpoch{Result: r.e.Reallocate().Result}
}
func (r engineRef) Repair(budget int) *ClusterEpoch {
	return &ClusterEpoch{Result: r.e.Repair(budget).Result}
}
func (r engineRef) MinYield(policy SchedPolicy) float64 { return r.e.EvaluateMinYield(policy) }

// TestShardedK1Equivalence is the acceptance gate for "the one-domain cluster
// is the cluster": a K=1 Cluster must follow a fixed-seed
// mutate/reallocate/repair trajectory bit-identically to a bare
// engine.Engine over the same nodes — same admissions, same epoch min
// yields, same final durable state bytes.
func TestShardedK1Equivalence(t *testing.T) {
	nodes := clusterNodes(12)
	eng, err := engine.New(engine.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	plain := engineRef{eng}
	shd, err := NewShardedCluster(nodes, &ShardedOptions{Shards: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	tape := shardedTape(400, 17)
	py, plive := driveTape(t, plain, tape)
	sy, slive := driveTape(t, shd, tape)

	if len(py) != len(sy) {
		t.Fatalf("epoch count differs: %d vs %d", len(py), len(sy))
	}
	for i := range py {
		if py[i] != sy[i] {
			t.Fatalf("epoch sample %d: engine %v != cluster %v (must be bit-identical)", i, py[i], sy[i])
		}
	}
	if len(plive) != len(slive) {
		t.Fatalf("live sets differ: %d vs %d services", len(plive), len(slive))
	}
	for i := range plive {
		if plive[i] != slive[i] {
			t.Fatalf("live id %d differs: %d vs %d", i, plive[i], slive[i])
		}
		pn, _ := eng.Node(plive[i])
		sn, _ := shd.Node(slive[i])
		if pn != sn {
			t.Fatalf("service %d placed on node %d vs %d", plive[i], pn, sn)
		}
	}

	pj, err := json.Marshal(&ClusterState{Nodes: nodes, State: *eng.State()})
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(shd.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, sj) {
		t.Fatalf("final states differ:\nengine:  %s\ncluster: %s", pj, sj)
	}
}

// TestShardedDeterministicTrajectory runs the same tape through two
// four-shard clusters with the same seed and requires identical outcomes;
// a third cluster with another seed must still satisfy all invariants while
// (almost surely) routing differently.
func TestShardedDeterministicTrajectory(t *testing.T) {
	nodes := clusterNodes(16)
	tape := shardedTape(300, 5)
	mk := func(seed int64) *Cluster {
		c, err := NewShardedCluster(nodes, &ShardedOptions{Shards: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(1234), mk(1234)
	ay, alive := driveTape(t, a, tape)
	by, blive := driveTape(t, b, tape)
	if len(ay) != len(by) || len(alive) != len(blive) {
		t.Fatalf("trajectories diverged in shape")
	}
	for i := range ay {
		if ay[i] != by[i] {
			t.Fatalf("epoch sample %d differs under one seed: %v vs %v", i, ay[i], by[i])
		}
	}
	for i := range alive {
		as, _ := a.Shard(alive[i])
		bs, _ := b.Shard(blive[i])
		if alive[i] != blive[i] || as != bs {
			t.Fatalf("service %d routed to shard %d vs %d", alive[i], as, bs)
		}
	}
	// Structural invariants under any seed.
	c := mk(777)
	_, clive := driveTape(t, c, tape)
	p, pl, ids := c.Snapshot()
	if len(ids) != len(clive) || len(pl) != len(clive) {
		t.Fatalf("snapshot covers %d services, want %d", len(ids), len(clive))
	}
	if p.NumNodes() != len(nodes) {
		t.Fatalf("snapshot park has %d nodes, want %d", p.NumNodes(), len(nodes))
	}
	for i, id := range ids {
		lo, hi := 0, len(nodes)
		if pl[i] != Unplaced && (pl[i] < lo || pl[i] >= hi) {
			t.Fatalf("service %d on out-of-park node %d", id, pl[i])
		}
		s, ok := c.Shard(id)
		if !ok {
			t.Fatalf("snapshot id %d not live", id)
		}
		slo, shi := c.NodeRange(s)
		if pl[i] != Unplaced && (pl[i] < slo || pl[i] >= shi) {
			t.Fatalf("service %d on node %d outside its shard %d range [%d,%d)", id, pl[i], s, slo, shi)
		}
	}
	stats := c.ShardStats()
	total := 0
	for _, st := range stats {
		total += st.Services
	}
	if total != len(clive) {
		t.Fatalf("shard stats count %d services, live set has %d", total, len(clive))
	}
}

// TestShardedStateRoundTrip restores a multi-shard cluster from its
// per-shard states and checks the merged state and future behavior agree.
func TestShardedStateRoundTrip(t *testing.T) {
	nodes := clusterNodes(8)
	opts := &ShardedOptions{Shards: 2, Seed: 3}
	c, err := NewShardedCluster(nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	tape := shardedTape(150, 21)
	driveTape(t, c, tape)

	states := make([]*ClusterState, c.Shards())
	for s := range states {
		states[s] = c.ShardState(s)
	}
	rc, err := RestoreShardedCluster(nodes, states, opts)
	if err != nil {
		t.Fatal(err)
	}
	restored, warnings, err := rc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("clean restore produced warnings: %v", warnings)
	}
	cj, _ := json.Marshal(c.State())
	rj, _ := json.Marshal(restored.State())
	if !bytes.Equal(cj, rj) {
		t.Fatalf("restored merged state differs:\n%s\n%s", cj, rj)
	}
	// Both must continue identically: same admissions and epoch outcome.
	rng := rand.New(rand.NewSource(404))
	for i := 0; i < 20; i++ {
		svc := clusterService(rng)
		id1, ok1, _ := c.Add(svc)
		id2, ok2, _ := restored.Add(svc)
		if id1 != id2 || ok1 != ok2 {
			t.Fatalf("post-restore admission %d diverged: (%d,%v) vs (%d,%v)", i, id1, ok1, id2, ok2)
		}
	}
	e1, e2 := c.Reallocate(), restored.Reallocate()
	if e1.Result.MinYield != e2.Result.MinYield || e1.Migrations != e2.Migrations {
		t.Fatalf("post-restore epoch diverged: %v/%d vs %v/%d",
			e1.Result.MinYield, e1.Migrations, e2.Result.MinYield, e2.Migrations)
	}
}

// TestShardedRestoreReadView: the never-finished restore (a replication
// follower's serving state) answers reads identically to the live cluster it
// mirrors, and Finish afterwards still produces the identical cluster.
func TestShardedRestoreReadView(t *testing.T) {
	nodes := clusterNodes(8)
	opts := &ShardedOptions{Shards: 2, Seed: 3}
	c, err := NewShardedCluster(nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	driveTape(t, c, shardedTape(120, 33))

	states := make([]*ClusterState, c.Shards())
	for s := range states {
		states[s] = c.ShardState(s)
	}
	rc, err := RestoreShardedCluster(nodes, states, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Reads BEFORE Finish — what a follower serves while tailing.
	if rc.Shards() != c.Shards() || rc.Len() != c.Len() {
		t.Fatalf("read view shape: shards %d/%d len %d/%d",
			rc.Shards(), c.Shards(), rc.Len(), c.Len())
	}
	if got, want := rc.MinYield(PolicyAllocCaps), c.MinYield(PolicyAllocCaps); got != want {
		t.Fatalf("read view MinYield %g, want %g", got, want)
	}
	cj, _ := json.Marshal(c.State())
	rj, _ := json.Marshal(rc.State())
	if !bytes.Equal(cj, rj) {
		t.Fatalf("read view merged state differs:\n%s\n%s", cj, rj)
	}
	for s := 0; s < c.Shards(); s++ {
		cs, _ := json.Marshal(c.ShardState(s))
		rs, _ := json.Marshal(rc.ShardState(s))
		if !bytes.Equal(cs, rs) {
			t.Fatalf("read view shard %d state differs", s)
		}
	}
	stats := rc.ShardStats()
	total := 0
	for _, st := range stats {
		total += st.Services
	}
	if total != c.Len() {
		t.Fatalf("read view stats count %d services, want %d", total, c.Len())
	}
	// The read view did not disturb the restore: Finish still works.
	restored, warnings, err := rc.Finish()
	if err != nil || len(warnings) != 0 {
		t.Fatalf("finish after reads: %v, warnings %v", err, warnings)
	}
	fj, _ := json.Marshal(restored.State())
	if !bytes.Equal(cj, fj) {
		t.Fatal("finish after reads diverged from the live cluster")
	}
}

// TestShardedValidation mirrors the Cluster boundary checks.
func TestShardedValidation(t *testing.T) {
	c, err := NewShardedCluster(clusterNodes(4), &ShardedOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := Service{ReqElem: Of(0.1), ReqAgg: Of(0.1, 0.1), NeedElem: Of(0, 0), NeedAgg: Of(0, 0)}
	if _, _, err := c.Add(bad); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := c.SetThreshold(-1); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if err := c.UpdateNeeds(99, Of(0, 0), Of(0, 0), Of(0, 0), Of(0, 0)); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := NewShardedCluster(clusterNodes(2), &ShardedOptions{Shards: 5}); err == nil {
		t.Fatal("more shards than nodes accepted")
	}
}
