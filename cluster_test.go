package vmalloc

import (
	"math"
	"math/rand"
	"testing"
)

func clusterNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			Elementary: Of(0.25, 1.0),
			Aggregate:  Of(1.0, 1.0),
		}
	}
	return nodes
}

func clusterService(rng *rand.Rand) Service {
	mem := 0.02 + rng.Float64()*0.1
	need := rng.Float64() * 0.25
	return Service{
		ReqElem:  Of(0.01, mem),
		ReqAgg:   Of(0.01, mem),
		NeedElem: Of(need/4, 0),
		NeedAgg:  Of(need, 0),
	}
}

func TestClusterLifecycle(t *testing.T) {
	c, err := NewCluster(clusterNodes(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(nil, nil); err == nil {
		t.Fatal("accepted an empty platform")
	}
	rng := rand.New(rand.NewSource(1))
	var ids []int
	for i := 0; i < 24; i++ {
		if id, ok, _ := c.Add(clusterService(rng)); ok {
			ids = append(ids, id)
		}
	}
	if c.Len() != len(ids) || len(ids) == 0 {
		t.Fatalf("Len %d, admitted %d", c.Len(), len(ids))
	}
	ep := c.Reallocate()
	if !ep.Result.Solved {
		t.Fatal("reallocation failed")
	}
	if len(ep.IDs) != len(ids) {
		t.Fatalf("%d ids in epoch, want %d", len(ep.IDs), len(ids))
	}
	for i, id := range ep.IDs {
		h, ok := c.Node(id)
		if !ok || h != ep.Result.Placement[i] {
			t.Fatalf("id %d on node %d, placement says %d", id, h, ep.Result.Placement[i])
		}
	}
	if y := c.MinYield(PolicyAllocWeights); y < 0 || y > 1 {
		t.Fatalf("min yield %v out of range", y)
	}

	// Departures and a bounded repair epoch.
	for i := 0; i < 6; i++ {
		if !c.Remove(ids[i]) {
			t.Fatalf("remove of live id %d failed", ids[i])
		}
	}
	if c.Remove(ids[0]) {
		t.Fatal("double remove succeeded")
	}
	rep := c.Repair(2)
	if rep.Result.Solved && rep.Migrations > 2 {
		t.Fatalf("repair migrated %d services over budget 2", rep.Migrations)
	}

	p, pl, snapIDs := c.Snapshot()
	if p.NumServices() != c.Len() || len(pl) != c.Len() || len(snapIDs) != c.Len() {
		t.Fatal("snapshot shape mismatch")
	}
	if res := EvaluatePlacement(p, pl); !res.Solved {
		t.Fatal("snapshot placement infeasible")
	}
}

func TestClusterEstimatesAndThreshold(t *testing.T) {
	c, err := NewCluster(clusterNodes(2), &ClusterOptions{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	trueSvc := Service{
		ReqElem: Of(0.01, 0.05), ReqAgg: Of(0.01, 0.05),
		NeedElem: Of(0.05, 0), NeedAgg: Of(0.2, 0),
	}
	estSvc := trueSvc
	estSvc.NeedElem = Of(0.005, 0)
	estSvc.NeedAgg = Of(0.02, 0) // underestimate, below the threshold
	id, ok, err := c.AddWithEstimate(trueSvc, estSvc)
	if err != nil || !ok {
		t.Fatalf("admission failed: ok=%v err=%v", ok, err)
	}
	ep := c.Reallocate()
	if !ep.Result.Solved {
		t.Fatal("reallocation failed")
	}
	// With the 0.1 threshold the floored estimate halves the error; the
	// achieved yield must reflect the true need being undersupplied but
	// nonzero.
	y := c.MinYield(PolicyAllocWeights)
	if y <= 0 || y > 1 {
		t.Fatalf("min yield %v with mitigation", y)
	}
	if err := c.UpdateNeeds(id, Of(0.05, 0), Of(0.2, 0), Of(0.05, 0), Of(0.2, 0)); err != nil {
		t.Fatalf("UpdateNeeds failed: %v", err)
	}
	c.SetThreshold(0)
	c.Reallocate()
	if y := c.MinYield(PolicyAllocWeights); y < 0.999 {
		t.Fatalf("exact estimates should reach yield 1, got %v", y)
	}
}

// TestClusterRejectsMalformedInput pins the public-boundary validation:
// wrong dimensionality or NaN entries must surface as errors, never reach
// the engine, and leave the cluster untouched.
func TestClusterRejectsMalformedInput(t *testing.T) {
	c, err := NewCluster(clusterNodes(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	threeDim := Service{
		ReqElem: Of(0.1, 0.1, 0.1), ReqAgg: Of(0.1, 0.1, 0.1),
		NeedElem: Of(0, 0, 0), NeedAgg: Of(0, 0, 0),
	}
	if _, _, err := c.Add(threeDim); err == nil {
		t.Fatal("accepted a 3-dimensional service on a 2-dimensional platform")
	}
	bad := clusterService(rand.New(rand.NewSource(1)))
	bad.NeedAgg[0] = math.NaN()
	if _, _, err := c.Add(bad); err == nil {
		t.Fatal("accepted a NaN need")
	}
	good := clusterService(rand.New(rand.NewSource(2)))
	bad2 := good
	bad2.NeedElem = Of(-0.1, 0)
	if _, _, err := c.AddWithEstimate(good, bad2); err == nil {
		t.Fatal("accepted a negative estimated need")
	}
	if c.Len() != 0 {
		t.Fatalf("rejected input still mutated the cluster: Len=%d", c.Len())
	}
	id, ok, err := c.Add(good)
	if err != nil || !ok {
		t.Fatalf("valid service rejected: ok=%v err=%v", ok, err)
	}
	if err := c.UpdateNeeds(id, Of(0.1), Of(0.1), Of(0.1), Of(0.1)); err == nil {
		t.Fatal("accepted 1-dimensional need vectors")
	}
	if err := c.UpdateNeeds(id+999, Of(0.1, 0), Of(0.1, 0), Of(0.1, 0), Of(0.1, 0)); err == nil {
		t.Fatal("accepted an unknown id")
	}
}

func TestClusterCustomPlacer(t *testing.T) {
	calls := 0
	c, err := NewCluster(clusterNodes(2), &ClusterOptions{
		Placer: func(p *Problem) *Result {
			calls++
			res, err := Solve(AlgoMetaHVPLight, p, nil)
			if err != nil {
				return &Result{}
			}
			return res
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		c.Add(clusterService(rng))
	}
	if ep := c.Reallocate(); !ep.Result.Solved {
		t.Fatal("custom placer epoch failed")
	}
	if calls == 0 {
		t.Fatal("custom placer never invoked")
	}
}

func TestClusterLPBoundPath(t *testing.T) {
	c, err := NewCluster(clusterNodes(3), &ClusterOptions{UseLPBound: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 5; i++ {
			c.Add(clusterService(rng))
		}
		ep := c.Reallocate()
		if !ep.Result.Solved {
			t.Fatalf("LP-bracketed epoch %d failed", epoch)
		}
		if ep.Result.MinYield < 0 || ep.Result.MinYield > 1 {
			t.Fatalf("yield %v out of range", ep.Result.MinYield)
		}
	}
}
