package engine

import (
	"math"
	"math/rand"
	"testing"

	"vmalloc/internal/core"
	"vmalloc/internal/hvp"
	"vmalloc/internal/sched"
	"vmalloc/internal/vec"
	"vmalloc/internal/workload"
)

func testNodes(n int) []core.Node {
	nodes := make([]core.Node, n)
	for i := range nodes {
		nodes[i] = core.Node{
			Elementary: vec.Of(0.25, 1.0),
			Aggregate:  vec.Of(1.0, 1.0),
		}
	}
	return nodes
}

func randService(rng *rand.Rand) core.Service {
	mem := 0.02 + rng.Float64()*0.1
	need := rng.Float64() * 0.25
	return core.Service{
		ReqElem:  vec.Of(0.01, mem),
		ReqAgg:   vec.Of(0.01, mem),
		NeedElem: vec.Of(need/4, 0),
		NeedAgg:  vec.Of(need, 0),
	}
}

func perturb(rng *rand.Rand, s core.Service, maxErr float64) core.Service {
	est := s.Clone()
	e := (rng.Float64()*2 - 1) * maxErr
	est.NeedAgg[0] = math.Max(0.001, est.NeedAgg[0]+e)
	est.NeedElem[0] = est.NeedAgg[0] / 4
	return est
}

// NodeLoad returns clones of node h's aggregate requirement and need loads
// over its live services.
func (e *Engine) NodeLoad(h int) (req, need vec.Vec) {
	return e.reqLoads[h].Clone(), e.needLoads[h].Clone()
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted empty node list")
	}
	if _, err := New(Config{Nodes: []core.Node{{}}}); err == nil {
		t.Fatal("accepted nodes without a CPU dimension")
	}
	bad := testNodes(2)
	bad[1].Aggregate = vec.Of(1, 1, 1)
	if _, err := New(Config{Nodes: bad}); err == nil {
		t.Fatal("accepted mixed dimensionality")
	}
}

// TestLoadBookkeeping drives random churn and checks the incrementally
// maintained loads against a from-scratch recomputation after every event.
func TestLoadBookkeeping(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := newTestEngine(t, Config{Nodes: testNodes(4)})
	var liveIDs []int
	check := func() {
		req := make([]vec.Vec, 4)
		need := make([]vec.Vec, 4)
		for h := range req {
			req[h], need[h] = vec.New(2), vec.New(2)
		}
		for _, id := range liveIDs {
			h, ok := e.Node(id)
			if !ok {
				t.Fatalf("id %d vanished", id)
			}
			si := e.byID[id]
			req[h].AccumAdd(e.slots[si].trueSvc.ReqAgg)
			need[h].AccumAdd(e.slots[si].trueSvc.NeedAgg)
		}
		for h := range req {
			gr, gn := e.NodeLoad(h)
			for d := 0; d < 2; d++ {
				if math.Abs(gr[d]-req[h][d]) > 1e-12 || math.Abs(gn[d]-need[h][d]) > 1e-12 {
					t.Fatalf("node %d load drift: req %v vs %v, need %v vs %v", h, gr, req[h], gn, need[h])
				}
			}
		}
	}
	for step := 0; step < 400; step++ {
		if len(liveIDs) == 0 || rng.Float64() < 0.6 {
			s := randService(rng)
			if id, node, ok := e.Add(s, perturb(rng, s, 0.1)); ok {
				if node < 0 || node >= 4 {
					t.Fatalf("bad node %d", node)
				}
				liveIDs = append(liveIDs, id)
			}
		} else {
			i := rng.Intn(len(liveIDs))
			if !e.Remove(liveIDs[i]) {
				t.Fatalf("remove of live id %d failed", liveIDs[i])
			}
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
		}
		if e.Len() != len(liveIDs) {
			t.Fatalf("Len %d, want %d", e.Len(), len(liveIDs))
		}
		if step%20 == 0 {
			check()
		}
		if step%60 == 0 && e.Len() > 0 {
			e.Reallocate() // canonical recompute path interleaves with churn
		}
	}
	check()
	if e.Remove(-5) {
		t.Fatal("removed a never-admitted id")
	}
}

// rebuildReallocate is the pre-engine epoch path: rebuild both views and run
// METAHVPLIGHT from a cold solver. The engine must match it exactly.
func rebuildReallocate(e *Engine, th float64) *core.Result {
	trueP := &core.Problem{Nodes: e.cfg.Nodes}
	estP := &core.Problem{Nodes: e.cfg.Nodes}
	e.buildViews() // only to get ids ordering for the oracle
	for _, id := range append([]int(nil), e.ids...) {
		sl := &e.slots[e.byID[id]]
		trueP.Services = append(trueP.Services, sl.trueSvc)
		estP.Services = append(estP.Services, sl.estSvc)
	}
	if th > 0 {
		estP = sched.ApplyThreshold(estP, 0, th)
	}
	return hvp.MetaHVPLight(estP, 0)
}

// TestReallocateMatchesRebuildPath is the engine's core equivalence claim:
// across epochs of churn, with and without an estimation threshold, the
// persistent-solver reallocation returns exactly the placement the
// rebuild-per-epoch path computes.
func TestReallocateMatchesRebuildPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, th := range []float64{0, 0.08} {
		e := newTestEngine(t, Config{Nodes: testNodes(4)})
		e.SetThreshold(th)
		var liveIDs []int
		for epoch := 0; epoch < 8; epoch++ {
			for i := 0; i < 10; i++ {
				s := randService(rng)
				if id, _, ok := e.Add(s, perturb(rng, s, 0.15)); ok {
					liveIDs = append(liveIDs, id)
				}
			}
			for i := 0; i < 5 && len(liveIDs) > 0; i++ {
				k := rng.Intn(len(liveIDs))
				e.Remove(liveIDs[k])
				liveIDs = append(liveIDs[:k], liveIDs[k+1:]...)
			}
			want := rebuildReallocate(e, th)
			rep := e.Reallocate()
			if rep.Result.Solved != want.Solved {
				t.Fatalf("th=%v epoch %d: solved=%v, rebuild %v", th, epoch, rep.Result.Solved, want.Solved)
			}
			if !want.Solved {
				continue
			}
			if rep.Result.MinYield != want.MinYield {
				t.Fatalf("th=%v epoch %d: MinYield %v, rebuild %v", th, epoch, rep.Result.MinYield, want.MinYield)
			}
			for i := range want.Placement {
				if rep.Result.Placement[i] != want.Placement[i] {
					t.Fatalf("th=%v epoch %d: placement[%d]=%d, rebuild %d",
						th, epoch, i, rep.Result.Placement[i], want.Placement[i])
				}
			}
			// Applied state must agree with the placement.
			for i, id := range rep.IDs {
				if h, _ := e.Node(id); h != rep.Result.Placement[i] {
					t.Fatalf("slot node %d != placement %d", h, rep.Result.Placement[i])
				}
			}
		}
	}
}

// TestDomainWorkers pins the worker policy: the cores are split across the
// concurrently solving domains, and every domain keeps at least one worker.
func TestDomainWorkers(t *testing.T) {
	for _, tc := range []struct{ procs, domains, want int }{
		{2, 4, 1}, {2, 1, 2}, {8, 3, 2}, {1, 1, 1}, {4, 4, 1}, {16, 4, 4},
	} {
		if got := domainWorkers(tc.procs, tc.domains); got != tc.want {
			t.Errorf("domainWorkers(%d procs, %d domains) = %d, want %d", tc.procs, tc.domains, got, tc.want)
		}
	}
}

// TestParallelMatchesSequential runs the same churn trace through a
// one-worker and a four-worker engine: every epoch must produce identical
// results (the deterministic reduction), including under -race.
func TestParallelMatchesSequential(t *testing.T) {
	mk := func(workers int) *Engine {
		e, _ := New(Config{Nodes: testNodes(4), Workers: workers})
		return e
	}
	seq, par := mk(1), mk(4)
	rng1 := rand.New(rand.NewSource(31))
	rng2 := rand.New(rand.NewSource(31))
	var ids1, ids2 []int
	for epoch := 0; epoch < 6; epoch++ {
		for i := 0; i < 8; i++ {
			s1 := randService(rng1)
			s2 := randService(rng2)
			if id, _, ok := seq.Add(s1, perturb(rng1, s1, 0.1)); ok {
				ids1 = append(ids1, id)
			}
			if id, _, ok := par.Add(s2, perturb(rng2, s2, 0.1)); ok {
				ids2 = append(ids2, id)
			}
		}
		for i := 0; i < 4 && len(ids1) > 0 && len(ids2) > 0; i++ {
			k := rng1.Intn(len(ids1))
			seq.Remove(ids1[k])
			ids1 = append(ids1[:k], ids1[k+1:]...)
			k = rng2.Intn(len(ids2))
			par.Remove(ids2[k])
			ids2 = append(ids2[:k], ids2[k+1:]...)
		}
		a, b := seq.Reallocate(), par.Reallocate()
		if a.Result.Solved != b.Result.Solved || a.Result.MinYield != b.Result.MinYield ||
			a.Migrations != b.Migrations {
			t.Fatalf("epoch %d: sequential (%v, %v, %d migrations) vs parallel (%v, %v, %d)",
				epoch, a.Result.Solved, a.Result.MinYield, a.Migrations,
				b.Result.Solved, b.Result.MinYield, b.Migrations)
		}
		for i := range a.Result.Placement {
			if a.Result.Placement[i] != b.Result.Placement[i] {
				t.Fatalf("epoch %d: placement[%d] %d vs %d", epoch, i, a.Result.Placement[i], b.Result.Placement[i])
			}
		}
	}
}

func TestRepairRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	e := newTestEngine(t, Config{Nodes: testNodes(4)})
	for i := 0; i < 20; i++ {
		s := randService(rng)
		e.Add(s, s.Clone())
	}
	e.Reallocate()
	// Churn, then repair with a tight budget.
	for i := 0; i < 6; i++ {
		s := randService(rng)
		e.Add(s, s.Clone())
	}
	rep := e.Repair(2)
	if rep.Result.Solved && rep.Migrations > 2 {
		t.Fatalf("repair moved %d services, budget 2", rep.Migrations)
	}
}

func TestUpdateNeedsAdjustsLoadsAndViews(t *testing.T) {
	e := newTestEngine(t, Config{Nodes: testNodes(2)})
	s := randService(rand.New(rand.NewSource(1)))
	id, node, ok := e.Add(s, s.Clone())
	if !ok {
		t.Fatal("admission failed on an empty cluster")
	}
	if !e.UpdateNeeds(id, vec.Of(0.05, 0), vec.Of(0.2, 0), vec.Of(0.075, 0), vec.Of(0.3, 0)) {
		t.Fatal("update of live id failed")
	}
	_, need := e.NodeLoad(node)
	if need[0] != 0.2 {
		t.Fatalf("need load %v after update, want 0.2", need[0])
	}
	rep := e.Reallocate()
	if !rep.Result.Solved {
		t.Fatal("single-service cluster must solve")
	}
	if e.EstView().Services[0].NeedAgg[0] != 0.3 {
		t.Fatalf("est view need %v, want 0.3", e.EstView().Services[0].NeedAgg[0])
	}
	if e.UpdateNeeds(999, nil, nil, nil, nil) {
		t.Fatal("update of unknown id succeeded")
	}
}

func TestSnapshotIsDetached(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := newTestEngine(t, Config{Nodes: testNodes(3)})
	var ids []int
	for i := 0; i < 9; i++ {
		s := randService(rng)
		if id, _, ok := e.Add(s, s.Clone()); ok {
			ids = append(ids, id)
		}
	}
	p, pl, snapIDs := e.Snapshot()
	if p.NumServices() != len(ids) || len(pl) != len(ids) || len(snapIDs) != len(ids) {
		t.Fatalf("snapshot shape %d/%d/%d, want %d", p.NumServices(), len(pl), len(snapIDs), len(ids))
	}
	// Mutating the cluster must not affect the snapshot.
	before := p.Services[0].ReqAgg.Clone()
	e.Remove(snapIDs[0])
	e.Reallocate()
	for d := range before {
		if p.Services[0].ReqAgg[d] != before[d] {
			t.Fatal("snapshot aliases engine state")
		}
	}
	if res := core.EvaluatePlacement(p, pl); !res.Solved {
		t.Fatal("snapshot placement must be feasible")
	}
}

// TestEmptyAndRejection covers the empty-epoch fast path and admission
// rejection under overload.
func TestEmptyAndRejection(t *testing.T) {
	e := newTestEngine(t, Config{Nodes: testNodes(1)})
	rep := e.Reallocate()
	if !rep.Result.Solved || rep.Services != 0 {
		t.Fatalf("empty epoch: %+v", rep)
	}
	big := core.Service{
		ReqElem:  vec.Of(0.2, 0.9),
		ReqAgg:   vec.Of(0.2, 0.9),
		NeedElem: vec.Of(0, 0),
		NeedAgg:  vec.Of(0, 0),
	}
	if _, _, ok := e.Add(big, big.Clone()); !ok {
		t.Fatal("first big service must fit")
	}
	if _, _, ok := e.Add(big, big.Clone()); ok {
		t.Fatal("second big service must be rejected (memory full)")
	}
}

// TestGeneratedWorkload sanity-checks the engine against the §4 generator at
// a platform-like scale with the adaptive usage pattern of the simulator.
func TestGeneratedWorkload(t *testing.T) {
	nodes := workload.Platform(workload.Scenario{
		Hosts: 8, COV: 0.5, Mode: workload.HeteroBoth, Seed: 1,
	}, rand.New(rand.NewSource(1)))
	e := newTestEngine(t, Config{Nodes: nodes})
	rng := rand.New(rand.NewSource(2))
	admitted := 0
	for i := 0; i < 60; i++ {
		s := randService(rng)
		if _, _, ok := e.Add(s, perturb(rng, s, 0.2)); ok {
			admitted++
		}
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	rep := e.Reallocate()
	if !rep.Result.Solved {
		t.Fatalf("reallocation failed for %d services", admitted)
	}
	min := sched.EvaluatePlacement(e.TrueView(), e.EstView(), rep.Result.Placement, sched.AllocWeights, 0)
	if min < 0 || min > 1 {
		t.Fatalf("evaluated min yield %v out of range", min)
	}
}
