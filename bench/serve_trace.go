package main

import (
	"time"

	"vmalloc"
	"vmalloc/internal/engine"
	"vmalloc/internal/shard"
)

// closedLoop issues n add/remove pairs on one connection, back to back, and
// returns each request's latency in µs: the daemon's per-write cost with no
// arrival process in front of it, which is what the in-process stacks are
// compared against. Pairs alternate between running without and with the
// recorder, so that the two sets see the same machine and their ratio is the
// tracing overhead.
func closedLoop(res *result, sv *served, rec *recorder, n int) (plain, traced []float64) {
	free := 0
	for sv.ids[free].Load() >= 0 { // any pool service not resident right now
		free++
	}
	for i := 0; i < n; i++ {
		r, us := rec, &traced
		if i%2 == 0 {
			r, us = nil, &plain
		}
		for _, k := range []opKind{opAdd, opRemove} {
			t := time.Now()
			out, why := sv.exec(op{Kind: k, Svc: free}, r, i, 0)
			*us = append(*us, float64(time.Since(t))/float64(time.Microsecond))
			res.check(out != failed, "closed-loop %s: %s", k, why)
		}
	}
	return plain, traced
}

// loLeg returns the ops of the lo leg: the replayed slice of the schedule.
func loLeg(ops []op) []op {
	for i, o := range ops {
		if o.Leg != 0 {
			return ops[:i]
		}
	}
	return ops
}

// traceServeChurn derives serve-churn's per-layer metrics: the client-side
// numbers of the traced daemon window, the daemon's own counters over it, and
// the layer replay of the lo leg followed by four epochs.
func traceServeChurn(e *env, res *result, sv *served, ops []op, run *churnRun) {
	lo, hi, within, counts := run.split()
	res.setTiming("server.hi_p50_ms", "server.hi_p99_ms", summarise(hi, 99))
	res.set("server.write_p50_ms", median(lo), len(lo))
	res.set("server.epoch_p50_ms", median(run.epochMs), len(run.epochMs))
	res.set("server.within_limit_frac", float64(within)/float64(run.scheduled), run.scheduled)
	res.set("loadgen.late_p99_ms", summarise(run.lateMs, 99).Tail, len(run.lateMs))
	res.set("loadgen.dropped", float64(run.dropped), len(ops))
	res.set("loadgen.skipped", float64(counts[skipped]), run.scheduled)

	// The daemon's own counters over the same window.
	fsyncs, records := run.delta["vmallocd_journal_fsyncs_total"], run.delta["vmallocd_journal_records_total"]
	res.set("journal.fsyncs_per_op", fsyncs/float64(counts[done]), counts[done])
	res.set("journal.records_per_fsync", records/fsyncs, int(fsyncs))
	res.set("journal.snapshots", run.delta["vmallocd_snapshots_total"], 1)
	res.set("journal.disk_mb", dirSizeMB(sv.dir), 1)

	// The daemon's per-write cost with the arrival process taken away.
	plain, traced := closedLoop(res, sv, e.rec, 400)
	daemonUs := median(traced)
	res.set("bench.trace_overhead_frac", (daemonUs-median(plain))/median(plain), len(traced))

	// Layer replay, thinnest stack last.
	writes := loLeg(ops)
	leg := append(append([]op(nil), writes...), op{Kind: opEpoch}, op{Kind: opEpoch}, op{Kind: opEpoch}, op{Kind: opEpoch})
	pk := sv.pk
	dir, err := e.tempDir("replay-")
	res.check(err == nil, "replay dir: %v", err)
	if err != nil {
		return
	}
	store, err := openStore(dir, pk.Nodes, churnShards)
	res.check(err == nil, "server.OpenSharded: %v", err)
	if err != nil {
		return
	}
	stStore := replay(e, res, "server", 2, storeStack{store}, pk, leg)
	res.check(store.Close() == nil, "closing the replay store")

	cluster, err := vmalloc.NewShardedCluster(pk.Nodes, &vmalloc.ShardedOptions{Shards: churnShards, Seed: daemonSeed})
	res.check(err == nil, "NewShardedCluster: %v", err)
	if err != nil {
		return
	}
	stCluster := replay(e, res, "cluster", 3, clusterStack{cluster}, pk, leg)

	router, err := shard.New(shard.Config{Nodes: pk.Nodes, Shards: churnShards, Seed: daemonSeed, Now: time.Now})
	res.check(err == nil, "shard.New: %v", err)
	if err != nil {
		return
	}
	rs := &routerStack{r: router}
	stRouter := replay(e, res, "shard", 4, rs, pk, leg)

	eng, err := engine.New(engine.Config{Nodes: pk.Nodes, Now: time.Now})
	res.check(err == nil, "engine.New: %v", err)
	if err != nil {
		return
	}
	stEngine := replay(e, res, "engine", 5, engineStack{eng}, pk, writes)

	jp, err := probeJournal(e, res, 6, stEngine.records)
	res.check(err == nil, "journal probe: %v", err)
	if err != nil {
		return
	}

	storeAdd := median(stStore.addUs)
	res.set("server.store_add_us", storeAdd, len(stStore.addUs))
	res.set("server.http_self_us", daemonUs-storeAdd, len(traced))
	res.set("cluster.add_us", median(stCluster.addUs), len(stCluster.addUs))
	res.set("shard.add_us", median(stRouter.addUs), len(stRouter.addUs))
	res.set("shard.epoch_ms", median(stRouter.epochMs), len(stRouter.epochMs))
	res.set("shard.epoch_slowest_frac", mean(rs.slowest), len(rs.slowest))
	res.set("shard.rebalance_moves", float64(stRouter.moves), 1)
	res.set("engine.add_us", median(stEngine.addUs), len(stEngine.addUs))
	res.set("engine.remove_us", median(stEngine.removeUs), len(stEngine.removeUs))
	res.set("engine.update_us", median(stEngine.updateUs), len(stEngine.updateUs))
	res.set("engine.rejected_frac", float64(stEngine.rejected)/float64(max(stEngine.adds, 1)), stEngine.adds)
	res.set("journal.append_us", median(jp.appendUs), len(jp.appendUs))
	res.set("journal.bytes_per_record", jp.bytesPerRecord, len(jp.appendUs))
	// Adjacent stacks telescope to the daemon's closed-loop write; what they
	// leave of the open-loop median is the arrival process (timer wake-ups,
	// cold connections, queueing behind the other connection).
	loP50 := median(lo) * 1000
	res.set("bench.unattributed_frac", (loP50-daemonUs)/loP50, len(lo))
}
