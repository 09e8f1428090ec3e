package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"vmalloc"
	"vmalloc/internal/engine"
)

// epoch-park's op is one full reallocate epoch. A 64x512 paper-scale epoch
// takes ~0.35 s unsharded, so the parks of a run see about 60 epochs; p75
// needs 40 to have ten samples beyond it and is flagged when it has not.
// The window is read in blocks of parkBlock park visits (six epochs): each
// block gives its own median epoch and its own cycle rate.
const (
	parkTailPct   = 75
	parkMaxCycles = 64 // of the traced run's one park
	// The end-to-end run visits a new park every parkVisit cycles: how long
	// an epoch takes follows the park as well as the lottery of its yield
	// search, and booting one costs 20 ms, so many short visits average both.
	parkVisit    = 2
	parkBlock    = 3
	parkMaxParks = 256
	// replayCycles bounds the traced run's layer replay: three in-process
	// stacks each re-run this many cycles, epochs included.
	replayCycles = 4
)

// cycleStats pools what the closed loop measured over the parks of one run.
type cycleStats struct {
	writeMs, epochMs, repairMs, cycleMs []float64
	migrations, yields                  []float64
	solved, epochs                      int
}

// driveCycles runs whole cycles against sv on one connection until the next
// would overrun the window, and returns how many ran. After every epoch it
// checks the reply against the snapshots taken before and after it, outside
// the timed calls.
func driveCycles(e *env, res *result, sv *served, cycles [][]op, window time.Duration, cs *cycleStats) (int, error) {
	var fatal error
	n := roundsIn(window, len(cycles), func(c int) {
		if fatal != nil {
			return
		}
		t0 := time.Now()
		untimed := time.Duration(0)
		for i, o := range cycles[c] {
			request := c*len(cycles[c]) + i
			if o.Kind != opEpoch && o.Kind != opRepair {
				t := time.Now()
				out, why := sv.exec(o, e.rec, request, 0)
				cs.writeMs = append(cs.writeMs, float64(time.Since(t))/float64(time.Millisecond))
				res.check(out != failed, "%s", why)
				continue
			}
			tc := time.Now()
			before, err := sv.snapshot()
			if err != nil {
				fatal = err
				return
			}
			untimed += time.Since(tc)
			ep, d, err := sv.c.epoch(o.Kind, e.rec, request, 0)
			res.check(err == nil, "%s: %v", o.Kind, err)
			if err != nil {
				continue
			}
			tc = time.Now()
			after, err := sv.snapshot()
			if err != nil {
				fatal = err
				return
			}
			checkEpoch(res, sv, ep, before, after)
			if ep.Solved {
				cs.solved++
				cs.yields = append(cs.yields, stateYield(after))
			}
			untimed += time.Since(tc)
			ms := float64(d) / float64(time.Millisecond)
			if o.Kind == opRepair {
				cs.repairMs = append(cs.repairMs, ms)
			} else {
				cs.epochMs = append(cs.epochMs, ms)
				cs.migrations = append(cs.migrations, float64(ep.Migrations))
			}
			cs.epochs++
		}
		cs.cycleMs = append(cs.cycleMs, float64(time.Since(t0)-untimed)/float64(time.Millisecond))
	})
	return n, fatal
}

// checkEpoch verifies one epoch reply on a quiescent daemon: its ids are
// exactly the residents the bench was acked, the daemon's state now holds the
// replied placement, its migration count is the number of services the two
// snapshots disagree on, and its min-yield equals the yield recomputed from
// the placement.
func checkEpoch(res *result, sv *served, ep *epochReply, before, after *state) {
	checkEpochShape(res, ep, len(sv.pk.Nodes))
	want := sv.residents()
	same := len(want) == len(ep.IDs)
	for i := 0; same && i < len(want); i++ {
		same = want[i] == ep.IDs[i]
	}
	res.check(same, "epoch ids differ from the %d acked residents", len(want))
	if !ep.Solved {
		return // the previous placement was kept; nothing moved
	}
	was := map[int]int{}
	for _, s := range before.Services {
		was[s.ID] = s.Node
	}
	moved, applied := 0, len(after.Services) == len(ep.IDs)
	for i, s := range after.Services {
		if applied && (s.ID != ep.IDs[i] || s.Node != ep.Placement[i]) {
			applied = false
		}
		if was[s.ID] != s.Node {
			moved++
		}
	}
	res.check(applied, "snapshot after the epoch does not hold the replied placement")
	res.check(moved == ep.Migrations, "epoch reports %d migrations, snapshots differ on %d services", ep.Migrations, moved)
	y := stateYield(after)
	res.check(math.Abs(y-ep.MinYield) <= yieldTol, "epoch reports min-yield %.12g, recomputed %.12g", ep.MinYield, y)
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// bootCycles boots park k of the run and returns it with its cycle schedule.
func bootCycles(e *env, res *result, k, cycles int) (*served, [][]op, float64, error) {
	name := fmt.Sprintf("epoch-park/park-%d", k)
	pk := genPark(e.seed, name)
	sv, setup, err := e.bootPark(res, pk) // unsharded: Store + Cluster
	return sv, parkCycles(e.seed, name+"/schedule", cycles), setup, err
}

func runEpochPark(e *env) (*result, error) {
	res := newResult("epoch-park", e.traced())
	cs := &cycleStats{}
	if e.traced() {
		// One park for a quarter of the window, then one bounded repair on
		// the state the cycles left; the layer replay takes the rest.
		sv, cycles, _, err := bootCycles(e, res, 0, parkMaxCycles)
		if err != nil {
			return nil, err
		}
		n, err := driveCycles(e, res, sv, cycles, e.window()/4, cs)
		if err == nil {
			_, err = driveCycles(e, res, sv, [][]op{{{Kind: opRepair}}}, time.Hour, cs)
		}
		sv.stop()
		if err != nil {
			return nil, err
		}
		traceEpochPark(e, res, sv.pk, cycles[:min(n, replayCycles)], cs)
		return res, nil
	}
	// Park after park, parkCycles cycles on each, until the next park would
	// overrun the window.
	var setup, rss, blockP50, blockRate []float64
	var fatal error
	roundsIn(e.window(), parkMaxParks, func(k int) {
		if fatal != nil {
			return
		}
		sv, cycles, s, err := bootCycles(e, res, k, parkVisit)
		if err == nil {
			_, err = driveCycles(e, res, sv, cycles, time.Hour, cs)
			sv.stop()
			setup, rss = append(setup, s), append(rss, sv.d.peakMB)
		}
		fatal = err
		if n := parkBlock * parkVisit; (k+1)%parkBlock == 0 && len(cs.cycleMs) >= n {
			cycles := cs.cycleMs[len(cs.cycleMs)-n:]
			blockP50 = append(blockP50, median(cs.epochMs[max(len(cs.epochMs)-n, 0):]))
			blockRate = append(blockRate, float64(n)/(sum(cycles)/1000))
		}
	})
	if fatal != nil {
		return nil, fatal
	}
	all := summarise(cs.epochMs, parkTailPct)
	allRate := float64(len(cs.cycleMs)) / (sum(cs.cycleMs) / 1000)
	res.set("setup_s", median(setup), len(setup))
	// Gated: the undisturbed quartile over the blocks.
	res.set("op_p50_ms", lowQuartile(blockP50, all.P50), len(blockP50))
	res.set("ops_per_s", highQuartile(blockRate, allRate), len(blockRate))
	res.set("min_yield", mean(cs.yields), len(cs.yields))
	res.set("peak_rss_mb", median(rss), len(rss))
	// Not gated, printed for the reader: the whole window at once.
	res.setTiming("all_p50_ms", "op_tail_ms", all)
	res.set("all_per_s", allRate, len(cs.cycleMs))
	res.set("write_p50_ms", median(cs.writeMs), len(cs.writeMs))
	res.set("epoch_cycle_frac", sum(cs.epochMs)/sum(cs.cycleMs), len(cs.cycleMs))
	res.set("solved_frac", float64(cs.solved)/float64(max(cs.epochs, 1)), cs.epochs)
	res.set("migrations_per_epoch", mean(cs.migrations), len(cs.migrations))
	return res, nil
}

// traceEpochPark reports the traced daemon run's client view and replays the
// same cycles against the unsharded store, the bare Cluster and the bare
// engine.
func traceEpochPark(e *env, res *result, pk *park, cycles [][]op, cs *cycleStats) {
	var flat []op
	for _, c := range cycles {
		flat = append(flat, c...)
	}
	daemonEpoch := median(cs.epochMs)
	res.set("server.epoch_p50_ms", daemonEpoch, len(cs.epochMs))
	res.set("server.repair_p50_ms", median(cs.repairMs), len(cs.repairMs))
	res.set("server.write_p50_ms", median(cs.writeMs), len(cs.writeMs))
	res.set("server.epoch_cycle_frac", (sum(cs.epochMs)+sum(cs.repairMs))/sum(cs.cycleMs), len(cs.cycleMs))
	res.set("engine.migrations_per_epoch", mean(cs.migrations), len(cs.migrations))
	res.set("engine.solved_frac", float64(cs.solved)/float64(max(cs.epochs, 1)), cs.epochs)

	dir, err := e.tempDir("replay-")
	res.check(err == nil, "replay dir: %v", err)
	if err != nil {
		return
	}
	store, err := openStore(dir, pk.Nodes, 0)
	res.check(err == nil, "server.Open: %v", err)
	if err != nil {
		return
	}
	stStore := replay(e, res, "server", 2, storeStack{store}, pk, flat)
	res.check(store.Close() == nil, "closing the replay store")

	cluster, err := vmalloc.NewCluster(pk.Nodes, nil)
	res.check(err == nil, "NewCluster: %v", err)
	if err != nil {
		return
	}
	stCluster := replay(e, res, "cluster", 3, clusterStack{cluster}, pk, flat)

	eng, err := engine.New(engine.Config{Nodes: pk.Nodes, Now: time.Now})
	res.check(err == nil, "engine.New: %v", err)
	if err != nil {
		return
	}
	stEngine := replay(e, res, "engine", 4, engineStack{eng}, pk, append(flat, op{Kind: opRepair}))

	storeWrite := median(slices.Concat(stStore.addUs, stStore.removeUs, stStore.updateUs))
	res.set("server.store_add_us", median(stStore.addUs), len(stStore.addUs))
	res.set("server.http_self_us", median(cs.writeMs)*1000-storeWrite, len(cs.writeMs))
	res.set("server.epoch_overhead_ms", daemonEpoch-median(stCluster.epochMs), len(stCluster.epochMs))
	res.set("cluster.add_us", median(stCluster.addUs), len(stCluster.addUs))
	res.set("engine.epoch_ms", median(stEngine.epochMs), len(stEngine.epochMs))
	res.set("opt.repair_ms", median(stEngine.repairMs), len(stEngine.repairMs))
	res.set("engine.add_us", median(stEngine.addUs), len(stEngine.addUs))
	res.set("engine.remove_us", median(stEngine.removeUs), len(stEngine.removeUs))
	res.set("engine.update_us", median(stEngine.updateUs), len(stEngine.updateUs))
	res.set("engine.rejected_frac", float64(stEngine.rejected)/float64(max(stEngine.adds, 1)), stEngine.adds)
	// What the daemon's epoch costs beyond the engine's, as a share: HTTP,
	// journaling the placement, encoding the id list. The in-process stacks
	// run without spans inside them, so the tracing overhead is the client
	// span per request and not separately measurable here.
	res.set("bench.unattributed_frac", (daemonEpoch-median(stEngine.epochMs))/daemonEpoch, len(cs.epochMs))
}
