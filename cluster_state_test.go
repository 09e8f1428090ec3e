package vmalloc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func stateTestNodes() []Node {
	return []Node{
		{Name: "a", Elementary: Of(1, 1), Aggregate: Of(4, 2)},
		{Name: "b", Elementary: Of(0.5, 0.5), Aggregate: Of(2, 1)},
		{Elementary: Of(2, 2), Aggregate: Of(2, 2)},
	}
}

func stateTestService(cpu float64) Service {
	return Service{
		ReqElem: Of(cpu, cpu/2), ReqAgg: Of(cpu, cpu/2),
		NeedElem: Of(cpu, 0), NeedAgg: Of(cpu, 0),
	}
}

// TestClusterHookReplayReproducesState drives a cluster while recording hook
// events, replays the recorded decisions into a second cluster through the
// restore API, and demands identical durable state — the contract the
// journal's log-the-decision design rests on.
func TestClusterHookReplayReproducesState(t *testing.T) {
	src, err := NewCluster(stateTestNodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := RestoreShardedCluster(stateTestNodes(), []*ClusterState{nil}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var replayErr error
	src.SetHook(func(ev *ClusterEvent) {
		if replayErr != nil {
			return
		}
		switch ev.Op {
		case ClusterOpAdd:
			replayErr = dst.ShardAdd(ev.Shard, ev.ID, ev.Node, *ev.TrueSvc, *ev.EstSvc)
		case ClusterOpRemove:
			replayErr = dst.ShardRemove(ev.Shard, ev.ID)
		case ClusterOpUpdateNeeds:
			replayErr = dst.ShardUpdateNeeds(ev.Shard, ev.ID, ev.Needs)
		case ClusterOpSetThreshold:
			replayErr = dst.ShardSetThreshold(ev.Shard, ev.Threshold)
		case ClusterOpEpoch:
			replayErr = dst.ShardApplyPlacement(ev.Shard, ev.IDs, ev.Placement)
		}
	})

	ids := make([]int, 0, 8)
	for i := 0; i < 6; i++ {
		id, ok, err := src.Add(stateTestService(0.2 + 0.05*float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			ids = append(ids, id)
		}
	}
	src.SetThreshold(0.3)
	src.Reallocate()
	if err := src.UpdateNeeds(ids[1], Of(0.4, 0), Of(0.4, 0), Of(0.4, 0), Of(0.4, 0)); err != nil {
		t.Fatal(err)
	}
	src.Remove(ids[0])
	src.Repair(1)
	if replayErr != nil {
		t.Fatalf("replay: %v", replayErr)
	}

	if !reflect.DeepEqual(src.State(), dst.State()) {
		t.Fatal("replayed cluster state differs from source")
	}

	// Rejected admissions emit no event: an impossible service leaves the
	// replayed twin untouched.
	events := 0
	src.SetHook(func(*ClusterEvent) { events++ })
	if _, ok, err := src.Add(stateTestService(100)); err != nil || ok {
		t.Fatalf("impossible admission: ok=%v err=%v", ok, err)
	}
	if events != 0 {
		t.Fatalf("rejected admission emitted %d events", events)
	}
}

func TestClusterStateJSONRoundTrip(t *testing.T) {
	c, err := NewCluster(stateTestNodes(), &ClusterOptions{Threshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := c.Add(stateTestService(0.1 + 0.1*float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Reallocate()
	st := c.State()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ClusterState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, st) {
		t.Fatalf("state JSON round trip lost information:\n got  %+v\n want %+v", &back, st)
	}
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("state JSON re-encoding not byte-identical")
	}

	// A restored cluster serializes to the same bytes.
	rc, err := RestoreCluster(&back, nil)
	if err != nil {
		t.Fatal(err)
	}
	data3, err := json.Marshal(rc.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data3) {
		t.Fatal("restored cluster state differs from source bytes")
	}
}

// TestClusterStateSurvivesLoadDrift churns arrivals and departures until the
// engine's running per-node sums leave a load a rounding error below zero
// (a node that emptied out at -5.6e-17 is what vmallocd served from GET
// /v1/snapshot and then refused to decode), and requires the state to
// validate, round-trip byte for byte, and restore.
func TestClusterStateSurvivesLoadDrift(t *testing.T) {
	c, err := NewCluster(stateTestNodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	drifted := func(st *ClusterState) bool {
		for h := range st.Nodes {
			for dd := range st.ReqLoads[h] {
				if st.ReqLoads[h][dd] < 0 || st.NeedLoads[h][dd] < 0 {
					return true
				}
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(1))
	var live []int
	var st *ClusterState
	for step := 0; step < 20000; step++ {
		if len(live) < 6 && (len(live) == 0 || rng.Intn(2) == 0) {
			if id, _, err := c.Add(stateTestService(0.01 + 0.3*rng.Float64())); err == nil {
				live = append(live, id)
			}
			continue
		}
		k := rng.Intn(len(live))
		c.Remove(live[k])
		live = append(live[:k], live[k+1:]...)
		if st = c.State(); drifted(st) {
			break
		}
	}
	if st == nil || !drifted(st) {
		t.Fatal("churn never drove a load below zero; the regression is not exercised")
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("the cluster's own state does not validate: %v", err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ClusterState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	rc, err := RestoreCluster(&back, nil)
	if err != nil {
		t.Fatalf("restoring the drifted state: %v", err)
	}
	if again, err := json.Marshal(rc.State()); err != nil || !bytes.Equal(data, again) {
		t.Fatalf("drifted state did not survive the round trip byte for byte (err %v)", err)
	}

	// Rounding explains a load a hair below zero, not one far below it.
	back.NeedLoads[0][0] = -1e-6
	if err := back.Validate(); err == nil {
		t.Fatal("a load of -1e-6 validated")
	}
}

func TestClusterStateValidateRejects(t *testing.T) {
	good := func() *ClusterState {
		c, err := NewCluster(stateTestNodes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Add(stateTestService(0.2)); err != nil {
			t.Fatal(err)
		}
		return c.State()
	}
	for _, tc := range []struct {
		name   string
		break_ func(*ClusterState)
	}{
		{"no nodes", func(st *ClusterState) { st.Nodes = nil }},
		{"negative capacity", func(st *ClusterState) { st.Nodes[0].Aggregate[0] = -1 }},
		{"bad node index", func(st *ClusterState) { st.Services[0].Node = 99 }},
		{"next id too low", func(st *ClusterState) { st.NextID = 0 }},
		{"negative need", func(st *ClusterState) { st.Services[0].True.NeedAgg[0] = -0.5 }},
		{"dim mismatch", func(st *ClusterState) { st.Services[0].Est.ReqElem = Of(1) }},
		{"load count", func(st *ClusterState) { st.ReqLoads = st.ReqLoads[:1] }},
		{"negative threshold", func(st *ClusterState) { st.Threshold = -0.1 }},
	} {
		st := good()
		tc.break_(st)
		if err := st.Validate(); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

func TestSetThresholdRejectsInvalid(t *testing.T) {
	c, err := NewCluster(stateTestNodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if err := c.SetThreshold(th); err == nil {
			t.Fatalf("threshold %v accepted", th)
		}
	}
	if err := c.SetThreshold(0.3); err != nil {
		t.Fatalf("valid threshold rejected: %v", err)
	}
	if _, err := NewCluster(stateTestNodes(), &ClusterOptions{Threshold: math.Inf(1)}); err == nil {
		t.Fatal("NewCluster accepted an infinite threshold")
	}
}
