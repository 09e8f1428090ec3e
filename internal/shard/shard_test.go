package shard

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/engine"
	"vmalloc/internal/vec"
	"vmalloc/internal/workload"
)

func testPark(hosts int, seed int64) []core.Node {
	return workload.Platform(workload.Scenario{
		Hosts: hosts, COV: 0.4, Mode: workload.HeteroBoth, Seed: seed,
	}, rand.New(rand.NewSource(seed)))
}

// Engine returns shard s's engine.
func (r *Router) Engine(s int) *engine.Engine { return r.domains[s].eng }

func randService(rng *rand.Rand) core.Service {
	req := vec.Of(0.02+0.05*rng.Float64(), 0.02+0.05*rng.Float64())
	need := vec.Of(0.05+0.2*rng.Float64(), 0.02*rng.Float64())
	return core.Service{
		ReqElem: req.Clone(), ReqAgg: req.Clone(),
		NeedElem: need.Clone(), NeedAgg: need.Clone(),
	}
}

// uniformService builds a service with the given CPU need and tiny
// requirements, for hand-built scenarios.
func uniformService(cpuNeed float64) core.Service {
	req := vec.Of(0.001, 0.001)
	return core.Service{
		ReqElem: req.Clone(), ReqAgg: req.Clone(),
		NeedElem: vec.Of(cpuNeed, 0), NeedAgg: vec.Of(cpuNeed, 0),
	}
}

// uniformPark builds h identical nodes with unit capacity in both
// dimensions.
func uniformPark(h int) []core.Node {
	nodes := make([]core.Node, h)
	for i := range nodes {
		nodes[i] = core.Node{
			Name:       "n",
			Elementary: vec.Of(1, 1),
			Aggregate:  vec.Of(1, 1),
		}
	}
	return nodes
}

// TestAdmissionDeterministic pins the best-of-two-choices admission: two
// routers with the same seed and history assign every service to the same
// shard and node; the hash is stateless, so determinism survives arbitrary
// interleaving with reads.
func TestAdmissionDeterministic(t *testing.T) {
	nodes := testPark(16, 7)
	mk := func() *Router {
		r, err := New(Config{Nodes: nodes, Shards: 4, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	rng := rand.New(rand.NewSource(3))
	svcs := make([]core.Service, 200)
	for i := range svcs {
		svcs[i] = randService(rng)
	}
	admitted := 0
	for i, svc := range svcs {
		idA, shardA, nodeA, okA := a.Add(svc, svc)
		// Interleave reads on b only — they must not perturb admission.
		b.Stats()
		b.MinYield(0)
		idB, shardB, nodeB, okB := b.Add(svc, svc)
		if okA != okB || idA != idB || shardA != shardB || nodeA != nodeB {
			t.Fatalf("service %d: router a got (id=%d shard=%d node=%d ok=%v), router b (id=%d shard=%d node=%d ok=%v)",
				i, idA, shardA, nodeA, okA, idB, shardB, nodeB, okB)
		}
		if okA {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("no service admitted")
	}
	// The two-choice rule must actually spread load across shards.
	used := 0
	for _, st := range a.Stats() {
		if st.Services > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("admission used %d shards, want >= 2", used)
	}
}

// TestAdmissionSpillsToOtherShards verifies a feasible service is not
// rejected just because both sampled shards are full: fill one tiny shard,
// then admit more than it can take.
func TestAdmissionSpillsToOtherShards(t *testing.T) {
	r, err := New(Config{Nodes: uniformPark(4), Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Each service fills most of a node: only 4 fit in the park, one per
	// shard, whatever the hashed choices say.
	big := core.Service{
		ReqElem: vec.Of(0.9, 0.9), ReqAgg: vec.Of(0.9, 0.9),
		NeedElem: vec.Of(0.5, 0), NeedAgg: vec.Of(0.5, 0),
	}
	for i := 0; i < 4; i++ {
		if _, _, _, ok := r.Add(big, big); !ok {
			t.Fatalf("admission %d rejected with free shards left", i)
		}
	}
	if _, _, _, ok := r.Add(big, big); ok {
		t.Fatal("admission into a full park succeeded")
	}
}

// TestRebalanceBottleneck hand-builds a bottleneck shard (all load in shard
// 0, shard 1 nearly idle) and checks the rebalance pass fires: services
// migrate out of the bottleneck and the merged min yield improves over an
// epoch without rebalance — each shard's engine restored from the same
// state and reallocated alone.
func TestRebalanceBottleneck(t *testing.T) {
	nodes := uniformPark(4) // 2 nodes per shard
	states := func() []*engine.State {
		return []*engine.State{
			{NextID: 100, Services: mkStates(0, 10, 0.30)}, // 10 heavy services on shard 0
			{NextID: 100, Services: mkStates(50, 1, 0.10)}, // 1 light service on shard 1
		}
	}

	base := math.Inf(1)
	for s, st := range states() {
		lo, hi := Partition(len(nodes), 2, s)
		eng, err := engine.Restore(engine.Config{Nodes: nodes[lo:hi]}, st)
		if err != nil {
			t.Fatal(err)
		}
		rep := eng.Reallocate()
		if !rep.Result.Solved {
			t.Fatalf("shard %d: baseline epoch failed", s)
		}
		base = math.Min(base, rep.Result.MinYield)
	}

	rc, err := Restore(Config{Nodes: nodes, Shards: 2, Seed: 1}, states())
	if err != nil {
		t.Fatal(err)
	}
	r, warnings, err := rc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) > 0 {
		t.Fatalf("unexpected recovery warnings: %v", warnings)
	}
	ep := r.Reallocate()
	if !ep.Result.Solved {
		t.Fatal("rebalanced epoch failed")
	}
	// The bottleneck holds far more movable services than one pass may
	// move, so the pass uses its whole cap: 2 services.
	if ep.RebalanceMoves != 2 {
		t.Fatalf("rebalance moved %d services on a hand-built bottleneck, want 2", ep.RebalanceMoves)
	}
	stats := r.Stats()
	if stats[0].MovedOut != 2 || stats[1].MovedIn != 2 {
		t.Fatalf("moves not reflected in stats: %+v", stats)
	}
	if stats[0].Services != 8 {
		t.Fatalf("bottleneck shard holds %d services, want 8", stats[0].Services)
	}
	if ep.Result.MinYield <= base {
		t.Fatalf("rebalance did not improve min yield: %.4f <= %.4f", ep.Result.MinYield, base)
	}
	// Every live service must still be tracked consistently.
	if got := stats[0].Services + stats[1].Services; got != 11 {
		t.Fatalf("park holds %d services after rebalance, want 11", got)
	}
	for _, id := range ep.IDs {
		if _, ok := r.Node(id); !ok {
			t.Fatalf("service %d lost its node after rebalance", id)
		}
	}
}

// mkStates builds n placed service states with ids starting at base,
// round-robin across the two nodes of a shard.
func mkStates(base, n int, cpuNeed float64) []engine.ServiceState {
	out := make([]engine.ServiceState, n)
	for i := range out {
		svc := uniformService(cpuNeed)
		out[i] = engine.ServiceState{ID: base + i, Node: i % 2, True: svc, Est: svc}
	}
	return out
}

// TestRepairSkipsRebalance pins that bounded repair epochs never move
// services across shards.
func TestRepairSkipsRebalance(t *testing.T) {
	states := []*engine.State{
		{NextID: 100, Services: mkStates(0, 10, 0.30)},
		{NextID: 100, Services: mkStates(50, 1, 0.10)},
	}
	rc, err := Restore(Config{Nodes: uniformPark(4), Shards: 2, Seed: 1}, states)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := rc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ep := r.Repair(2)
	if !ep.Result.Solved {
		t.Fatal("repair epoch failed")
	}
	if ep.RebalanceMoves != 0 {
		t.Fatalf("repair moved %d services across shards", ep.RebalanceMoves)
	}
}

// TestFinishResolvesTornMove replays the one cross-WAL state a crash can
// produce — a move-in durable in the destination, the matching move-out
// lost from the source — and checks Finish keeps exactly the destination
// copy.
func TestFinishResolvesTornMove(t *testing.T) {
	svc := uniformService(0.2)
	states := []*engine.State{
		{NextID: 5, Services: []engine.ServiceState{{ID: 3, Node: 0, True: svc, Est: svc}}},
		{NextID: 5},
	}
	rc, err := Restore(Config{Nodes: uniformPark(4), Shards: 2, Seed: 1}, states)
	if err != nil {
		t.Fatal(err)
	}
	// Destination WAL replays the move-in; the source WAL lost its
	// move-out, so shard 0 still holds the stale copy.
	if err := rc.ShardMoveIn(1, 3, 1, 1, svc, svc); err != nil {
		t.Fatal(err)
	}
	r, warnings, err := rc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "stale copy") {
		t.Fatalf("warnings = %v, want one stale-copy repair", warnings)
	}
	if s, ok := r.Shard(3); !ok || s != 1 {
		t.Fatalf("service 3 recovered in shard %d (ok=%v), want 1", s, ok)
	}
	if r.Len() != 1 {
		t.Fatalf("park holds %d services, want 1", r.Len())
	}
	// The stale copy must be gone from shard 0's engine (its loads too).
	if got := r.Stats()[0].Services; got != 0 {
		t.Fatalf("shard 0 still holds %d services", got)
	}
	if hr0, hr1 := r.Stats()[0].Headroom, r.Stats()[1].Headroom; hr0 <= hr1 {
		t.Fatalf("headroom not restored after drop: shard0 %.3f <= shard1 %.3f", hr0, hr1)
	}
}

// TestFinishDropsResurrectedService replays a departure durable in one WAL
// while the source WAL of an earlier torn move still holds the service, and
// checks the tombstone wins.
func TestFinishDropsResurrectedService(t *testing.T) {
	svc := uniformService(0.2)
	states := []*engine.State{
		{NextID: 5, Services: []engine.ServiceState{{ID: 3, Node: 0, True: svc, Est: svc}}},
		{NextID: 5},
	}
	rc, err := Restore(Config{Nodes: uniformPark(4), Shards: 2, Seed: 1}, states)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1: move-in then client remove, both durable. Shard 0: move-out
	// lost.
	if err := rc.ShardMoveIn(1, 3, 1, 1, svc, svc); err != nil {
		t.Fatal(err)
	}
	if err := rc.ShardRemove(1, 3); err != nil {
		t.Fatal(err)
	}
	r, warnings, err := rc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "departure") {
		t.Fatalf("warnings = %v, want one resurrection drop", warnings)
	}
	if r.Len() != 0 {
		t.Fatalf("park holds %d services, want 0", r.Len())
	}
}

// TestFinishThresholdReconciliation pins the torn-SetThreshold rule: shards
// recovered at different thresholds realign to the maximum.
func TestFinishThresholdReconciliation(t *testing.T) {
	states := []*engine.State{
		{NextID: 1, Threshold: 0.1},
		{NextID: 1, Threshold: 0.3},
	}
	rc, err := Restore(Config{Nodes: uniformPark(4), Shards: 2, Seed: 1}, states)
	if err != nil {
		t.Fatal(err)
	}
	r, warnings, err := rc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 {
		t.Fatalf("warnings = %v, want one threshold repair", warnings)
	}
	if th := r.Threshold(); th != 0.3 {
		t.Fatalf("threshold = %g, want 0.3", th)
	}
}

// TestMinYieldDecomposes checks the park-global min yield equals the
// minimum over per-shard evaluations on a populated router.
func TestMinYieldDecomposes(t *testing.T) {
	r, err := New(Config{Nodes: testPark(8, 11), Shards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if y := r.MinYield(0); y != 1 {
		t.Fatalf("empty park min yield = %g, want 1", y)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		svc := randService(rng)
		r.Add(svc, svc)
	}
	r.Reallocate()
	y := r.MinYield(0)
	if math.IsNaN(y) || y < 0 || y > 1 {
		t.Fatalf("min yield %g out of range", y)
	}
	min := math.Inf(1)
	for s := 0; s < r.Shards(); s++ {
		if r.Engine(s).Len() == 0 {
			continue
		}
		if v := r.Engine(s).EvaluateMinYield(0); v < min {
			min = v
		}
	}
	if y != min {
		t.Fatalf("router min yield %g != min over shards %g", y, min)
	}
}
