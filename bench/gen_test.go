package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// inputs renders every generated input of a seed as bytes: the instance sets,
// a park's node file and pool, and the three op schedules.
func inputs(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	enc := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	pk := genPark(seed, "serve-churn/park-0")
	open, sat := churnSchedule(seed, "serve-churn/park-0/schedule", 2*time.Second, churnLoRate, churnHiRate)
	return map[string][]byte{
		"heur rounds":    enc(heurRounds(seed, 2)),
		"lp rounds":      enc(lpRounds(seed, 2)),
		"node file":      nodeFile(pk.Nodes),
		"pool":           enc(pk.Pool),
		"churn schedule": []byte(fmt.Sprint(open, sat)),
		"park cycles":    []byte(fmt.Sprint(parkCycles(seed, "epoch-park/park-0/schedule", 3))),
		"ingest bodies":  bytes.Join(ingestRequests(seed), nil),
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputs(t, 7), inputs(t, 7), inputs(t, 8)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s: same seed gave different bytes", name)
		}
		if bytes.Equal(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 gave identical bytes", name)
		}
	}
}

// The schedule must be executable as written: removes and updates only name
// services that are resident at that point, adds only ones that are not, and
// the per-service ordinals the two connections synchronise on are 0, 1, 2, ...
func TestChurnScheduleIsConsistent(t *testing.T) {
	open, sat := churnSchedule(3, "x", 3*time.Second, churnLoRate, churnHiRate)
	resident := make([]bool, parkPool)
	for j := 0; j < parkLive; j++ {
		resident[j] = true
	}
	nth := make([]int, parkPool)
	epochs, last := 0, time.Duration(0)
	for i, o := range open {
		if o.Due < last {
			t.Fatalf("op %d due %v before its predecessor %v", i, o.Due, last)
		}
		last = o.Due
		if o.Kind == opEpoch {
			epochs++
			if o.Leg != 1 {
				t.Errorf("epoch at %v on the lo leg", o.Due)
			}
			continue
		}
		if o.Nth != nth[o.Svc] {
			t.Fatalf("op %d: ordinal %d on service %d, want %d", i, o.Nth, o.Svc, nth[o.Svc])
		}
		nth[o.Svc]++
		if (o.Kind == opAdd) == resident[o.Svc] {
			t.Fatalf("op %d: %v of service %d while resident=%v", i, o.Kind, o.Svc, resident[o.Svc])
		}
		if o.Kind != opUpdate {
			resident[o.Svc] = o.Kind == opAdd
		}
	}
	if epochs != 3 {
		t.Errorf("%d epochs on a 3 s hi leg, want 3", epochs)
	}
	seen := map[int]int{}
	for w := range sat {
		for i, o := range sat[w] {
			if resident[o.Svc] {
				t.Fatalf("saturation op on resident service %d", o.Svc)
			}
			if want := []opKind{opAdd, opUpdate, opRemove}[i%3]; o.Kind != want {
				t.Fatalf("saturation op %d is %v, want %v", i, o.Kind, want)
			}
			if owner, ok := seen[o.Svc]; ok && owner != w {
				t.Fatalf("service %d used by connections %d and %d", o.Svc, owner, w)
			}
			seen[o.Svc] = w
		}
	}
}

func TestParkLoadsLikeThePaper(t *testing.T) {
	pk := genPark(5, "p")
	if len(pk.Nodes) != parkHosts || len(pk.Pool) != parkPool {
		t.Fatalf("park is %d hosts x %d pool", len(pk.Nodes), len(pk.Pool))
	}
	var cpuCap, memCap, cpuNeed, memReq float64
	for _, n := range pk.Nodes {
		cpuCap += n.Aggregate[0]
		memCap += n.Aggregate[1]
	}
	for _, s := range pk.Pool {
		cpuNeed += s.NeedAgg[0]
		memReq += s.ReqAgg[1]
	}
	share := float64(parkLive) / parkPool
	if got := cpuNeed * share / cpuCap; got < parkCPULoad-0.01 || got > parkCPULoad+0.01 {
		t.Errorf("resident CPU need is %.3f of capacity, want %.2f", got, parkCPULoad)
	}
	if got := memReq * share / memCap; got < 0.49 || got > 0.51 {
		t.Errorf("resident memory is %.3f of capacity, want 0.50 (slack 0.5)", got)
	}
}
