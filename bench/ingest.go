package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/server"
	"vmalloc/internal/workload"
)

const (
	ingestShards  = 2
	ingestTailPct = 99 // >= 1 000 batch requests in the window
	// The window is split: ingest runs for ingestShare of it and the crash
	// recovery that proves the acks durable takes the rest.
	ingestShare = 0.5
	bootRepeats = 3
	// The traced run ingests for a fifth of the window and spends the rest
	// on repeats of everything after the crash. Each repeat re-reads a state
	// of tens of thousands of services and takes seconds, so there are few.
	recoverRepeats = 2
	followRepeats  = 1
)

// ingestPlatform is the platform ingest-recover boots: the services are tiny,
// so which 64 hosts it is does not matter and it is not re-drawn per repeat.
func ingestPlatform(seed int64) []byte {
	rng := stream(seed, "ingest-recover/platform")
	return nodeFile(workload.Platform(workload.Scenario{Hosts: parkHosts, COV: parkCOV, Mode: workload.HeteroBoth}, rng))
}

// bootEmpty execs a daemon on a fresh directory holding only the node file
// and returns it with its data directory and the time to /healthz.
func (e *env) bootEmpty(nodes []byte, args ...string) (*daemon, string, time.Duration, error) {
	dir, err := e.tempDir("data-")
	if err != nil {
		return nil, "", 0, err
	}
	file := filepath.Join(dir, "nodes.json")
	if err := os.WriteFile(file, nodes, 0o644); err != nil {
		return nil, "", 0, err
	}
	data := filepath.Join(dir, "journal")
	d, err := e.startDaemon(data, append([]string{"-nodes", file}, args...)...)
	if err != nil {
		return nil, "", 0, err
	}
	boot, err := d.waitFor("/healthz", 30*time.Second)
	return d, data, boot, err
}

// ingestSlice is the stretch of the ingest window one median batch latency
// is taken over (~140 requests, checkpoint stalls included).
const ingestSlice = time.Second

// ingest is one closed-loop batch admission pass.
type ingest struct {
	batchMs  []float64
	sliceP50 []float64 // median batch latency of every ingestSlice
	acked    []int     // every id the daemon acknowledged
	seconds  float64
}

// driveIngest posts batch requests back to back on maxConns connections for
// the given time. Every entry of every batch must be admitted: the services
// are tiny and the park never fills.
func driveIngest(e *env, res *result, c *client, bodies [][]byte, window time.Duration) *ingest {
	type worker struct {
		ms    []float64
		sent  []time.Duration // when each acknowledged batch was sent
		ids   []int
		fails []string
	}
	ws := make([]worker, maxConns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range ws {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me := &ws[w]
			for i := w; time.Since(start) < window; i += maxConns {
				span := e.rec.begin("http batch", -1, i, w)
				t := time.Now()
				code, reply, err := c.do("POST", "/v1/services:batch", bodies[i%len(bodies)])
				d := time.Since(t)
				e.rec.end(span)
				var out batchReply
				if err != nil || code != http.StatusOK || json.Unmarshal(reply, &out) != nil || out.Admitted != ingestBatch {
					me.fails = append(me.fails, fmt.Sprintf("batch %d: status %d, admitted %d, err %v", i, code, out.Admitted, err))
					continue
				}
				me.ms = append(me.ms, float64(d)/float64(time.Millisecond))
				me.sent = append(me.sent, t.Sub(start))
				for _, r := range out.Results {
					me.ids = append(me.ids, *r.ID)
				}
			}
		}(w)
	}
	wg.Wait()
	in := &ingest{seconds: time.Since(start).Seconds()}
	slices := newSliced(ingestSlice)
	for w := range ws {
		for i, ms := range ws[w].ms {
			slices.add(ws[w].sent[i], ms)
		}
		in.batchMs = append(in.batchMs, ws[w].ms...)
		in.acked = append(in.acked, ws[w].ids...)
		res.attempt(len(ws[w].ms) + len(ws[w].fails))
		for _, why := range ws[w].fails {
			res.fail("%s", why)
		}
	}
	slices.each(window, func(ms []float64) {
		if len(ms) > 0 { // a second in which both connections sat in one stall sent nothing
			in.sliceP50 = append(in.sliceP50, median(ms))
		}
	})
	return in
}

func getSnapshot(c *client) ([]byte, error) {
	code, data, err := c.do("GET", "/v1/snapshot", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/snapshot: status %d", code)
	}
	return data, err
}

// crashAndRecover kills d with SIGKILL, restarts vmallocd on the same
// directory and waits for /readyz. It checks that the recovered snapshot is
// byte-identical to want, and returns the new daemon and exec-to-ready time.
func crashAndRecover(e *env, res *result, d *daemon, data string, want []byte) (*daemon, time.Duration, error) {
	d.kill()
	next, err := e.startDaemon(data)
	if err != nil {
		return nil, 0, err
	}
	ready, err := next.waitFor("/readyz", 60*time.Second)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(next.url)
	defer c.close()
	got, err := getSnapshot(c)
	if err != nil {
		return nil, 0, err
	}
	res.check(bytes.Equal(got, want), "snapshot after kill -9 differs from the one before it (%d vs %d bytes)", len(got), len(want))
	return next, ready, nil
}

func runIngestRecover(e *env) (*result, error) {
	res := newResult("ingest-recover", e.traced())
	var nodes []byte
	var bodies [][]byte
	var d *daemon
	var data string
	var setup, bootMs []float64
	for i := 0; i < bootRepeats; i++ {
		if d != nil {
			d.kill()
		}
		gen := timeSetup(1, func() {
			nodes = ingestPlatform(e.seed)
			bodies = ingestRequests(e.seed)
		})
		var boot time.Duration
		var err error
		if d, data, boot, err = e.bootEmpty(nodes, "-shards", fmt.Sprint(ingestShards)); err != nil {
			return nil, err
		}
		setup = append(setup, gen+boot.Seconds())
		bootMs = append(bootMs, float64(boot)/float64(time.Millisecond))
	}
	c := newClient(d.url)
	defer c.close()

	window := time.Duration(float64(e.window()) * ingestShare)
	if e.traced() {
		window = e.window() / 5
	}
	before, err := c.scrape()
	if err != nil {
		return nil, err
	}
	in := driveIngest(e, res, c, bodies, window)
	after, err := c.scrape()
	if err != nil {
		return nil, err
	}

	// Acked means durable: kill -9, restart on the same directory, and the
	// state must come back byte for byte, holding every acknowledged id.
	want, err := getSnapshot(c)
	if err != nil {
		return nil, err
	}
	rss := []float64{}
	var recoverMs []float64
	repeats := 1
	if e.traced() {
		repeats = recoverRepeats
	}
	for i := 0; i < repeats; i++ {
		next, ready, err := crashAndRecover(e, res, d, data, want)
		rss = append(rss, d.peakMB)
		if err != nil {
			return nil, err
		}
		d = next
		recoverMs = append(recoverMs, float64(ready)/float64(time.Millisecond))
	}
	st, err := decodeState(want)
	if err != nil {
		return nil, err
	}
	held := make(map[int]bool, len(st.Services))
	for _, s := range st.Services {
		held[s.ID] = true
	}
	missing := 0
	for _, id := range in.acked {
		if !held[id] {
			missing++
		}
	}
	res.check(missing == 0 && len(st.Services) == len(in.acked), "%d of %d acked ids missing after kill -9 (state holds %d)", missing, len(in.acked), len(st.Services))

	// Best-fit admission alone fills the smallest nodes to the brim (yield 0
	// there by construction); the yield a user sees is the one the next epoch
	// leaves. One epoch on the recovered daemon, checked against the state
	// that was recovered: tiny services all fit at yield 1, so the search
	// ends at its first probe.
	rc := newClient(d.url)
	defer rc.close()
	ep, _, err := rc.epoch(opEpoch, e.rec, 0, 0)
	if err != nil {
		return nil, err
	}
	checkEpochShape(res, ep, parkHosts)
	p := &vmalloc.Problem{Nodes: st.Nodes}
	same := len(ep.IDs) == len(st.Services)
	for i, s := range st.Services {
		p.Services = append(p.Services, s.True)
		same = same && ep.IDs[i] == s.ID
	}
	res.check(same, "epoch on the recovered daemon lists other ids than the recovered state")
	yield := 0.0
	if same {
		yield = vmalloc.EvaluatePlacement(p, ep.Placement).MinYield
	}
	res.check(ep.Solved && math.Abs(yield-ep.MinYield) <= yieldTol, "epoch after recovery: solved=%v, reported min-yield %.12g, recomputed %.12g", ep.Solved, ep.MinYield, yield)

	if e.traced() {
		err := traceIngestRecover(e, res, d, data, want, in, before, after, bootMs, recoverMs)
		d.kill()
		return res, err
	}
	d.kill()
	rss = append(rss, d.peakMB)
	res.set("setup_s", median(setup), len(setup))
	// Gated: the undisturbed quartile of the per-second medians, and the
	// rate of the whole window (checkpoints grow with the state, so no
	// stretch of the window stands for the rest).
	res.set("op_p50_ms", lowQuartile(in.sliceP50, median(in.batchMs)), len(in.sliceP50))
	res.set("ops_per_s", float64(len(in.batchMs))/in.seconds, len(in.batchMs))
	res.set("min_yield", yield, 1)
	// The recovered process: it holds the same state as the ingesting one,
	// whose own peak follows where its collector happened to be when each
	// checkpoint was encoded (35% between runs against 10%).
	res.set("peak_rss_mb", rss[len(rss)-1], 1)
	// Not gated, printed for the reader.
	res.setTiming("batch_p50_ms", "op_tail_ms", summarise(in.batchMs, ingestTailPct))
	res.set("ingest_services_per_s", float64(len(in.acked))/in.seconds, len(in.acked))
	res.set("recover_ms", median(recoverMs), len(recoverMs))
	res.set("rss_ingest_mb", rss[0], 1)
	res.set("records_per_fsync", (after["vmallocd_journal_records_total"]-before["vmallocd_journal_records_total"])/
		(after["vmallocd_journal_fsyncs_total"]-before["vmallocd_journal_fsyncs_total"]), 1)
	return res, nil
}

// traceIngestRecover adds the per-layer view: the daemon's counters over the
// ingest window, follower catch-up against the recovered leader d, and the
// journal and store timed in-process on a copy of the killed directory.
func traceIngestRecover(e *env, res *result, d *daemon, data string, want []byte, in *ingest, before, after map[string]float64, bootMs, recoverMs []float64) error {
	delta := func(name string) float64 { return after[name] - before[name] }
	res.setTiming("server.batch_p50_ms", "server.batch_p99_ms", summarise(in.batchMs, 99))
	res.set("server.ingest_per_s", float64(len(in.acked))/in.seconds, len(in.acked))
	res.set("server.boot_ms", median(bootMs), len(bootMs))
	res.set("server.recover_ms", median(recoverMs), len(recoverMs))
	res.set("journal.records_per_fsync", delta("vmallocd_journal_records_total")/delta("vmallocd_journal_fsyncs_total"), int(delta("vmallocd_journal_fsyncs_total")))
	res.set("journal.fsyncs_per_op", delta("vmallocd_journal_fsyncs_total")/float64(len(in.batchMs)), len(in.batchMs))
	res.set("journal.snapshots", delta("vmallocd_snapshots_total"), 1)
	res.set("journal.disk_mb", dirSizeMB(data), 1)

	// Followers: fresh process, empty directory, until every shard reports
	// lag 0 and the follower's snapshot equals the leader's (which has run
	// one epoch since the recovery check).
	lc := newClient(d.url)
	want, err := getSnapshot(lc)
	lc.close()
	if err != nil {
		return err
	}
	var catchMs, bootstrapMs, rate, batches []float64
	for i := 0; i < followRepeats; i++ {
		dir, err := e.tempDir("follower-")
		if err != nil {
			return err
		}
		f, err := e.startDaemon(filepath.Join(dir, "journal"), "-follow", d.url, "-poll", "20ms")
		if err != nil {
			return err
		}
		fc := newClient(f.url)
		var st server.ReplicationStatus
		bootstrapped := time.Duration(0)
		for caught := false; !caught; {
			if time.Since(f.execAt) > 60*time.Second {
				fc.close()
				return fmt.Errorf("follower not caught up after 60s (see %s)", f.log.Name())
			}
			time.Sleep(5 * time.Millisecond)
			if fc.getJSON("/v1/replica/status", &st) != nil {
				continue
			}
			if bootstrapped == 0 {
				bootstrapped = time.Since(f.execAt)
			}
			caught = len(st.Shards) == ingestShards
			for _, s := range st.Shards {
				caught = caught && s.Lag == 0 && s.AppliedSeq > 0 && s.AppliedSeq == s.LeaderSeq
			}
		}
		took := time.Since(f.execAt)
		got, err := getSnapshot(fc)
		fc.close()
		f.kill()
		if err != nil {
			return err
		}
		res.check(bytes.Equal(got, want), "follower snapshot differs from the leader's (%d vs %d bytes)", len(got), len(want))
		catchMs = append(catchMs, float64(took)/float64(time.Millisecond))
		bootstrapMs = append(bootstrapMs, float64(bootstrapped)/float64(time.Millisecond))
		if stream := (took - bootstrapped).Seconds(); stream > 0 {
			rate = append(rate, float64(st.Records)/stream)
		}
		batches = append(batches, float64(st.Batches))
	}
	res.set("replica.catchup_ms", median(catchMs), len(catchMs))
	res.set("replica.bootstrap_ms", median(bootstrapMs), len(bootstrapMs))
	res.set("replica.stream_records_per_s", median(rate), len(rate))
	res.set("replica.stream_batches", median(batches), len(batches))

	// The killed directory, opened in-process: journal replay alone, then
	// the whole store (replay + apply).
	d.kill()
	scratch, err := e.tempDir("killed-")
	if err != nil {
		return err
	}
	var replayMs []float64
	for i := 0; i < recoverRepeats; i++ {
		total := time.Duration(0)
		for s := 0; s < ingestShards; s++ {
			copyTo := filepath.Join(scratch, fmt.Sprintf("replay-%d-%d", i, s))
			if err := os.CopyFS(copyTo, os.DirFS(server.ShardDir(data, s))); err != nil {
				return err
			}
			var j *journal.Journal
			var err error
			total += e.rec.timed("journal open", -1, i, 1, func() {
				j, _, err = journal.Open(journal.Options{Dir: copyTo, Fsync: journal.FsyncBatch}, func(*journal.Record) error { return nil })
			})
			res.check(err == nil, "journal.Open on the killed shard %d: %v", s, err)
			if err == nil {
				res.check(j.Close() == nil, "closing the replayed journal")
			}
		}
		replayMs = append(replayMs, float64(total)/float64(time.Millisecond))
	}
	res.set("journal.replay_ms", median(replayMs), len(replayMs))

	var openMs []float64
	for i := 0; i < recoverRepeats; i++ {
		copyTo := filepath.Join(scratch, fmt.Sprintf("open-%d", i))
		if err := os.CopyFS(copyTo, os.DirFS(data)); err != nil {
			return err
		}
		var store interface{ Close() error }
		var err error
		took := e.rec.timed("server open", -1, i, 2, func() { store, err = openStore(copyTo, nil, ingestShards) })
		res.check(err == nil, "server.OpenSharded on the killed directory: %v", err)
		if err == nil {
			res.check(store.Close() == nil, "closing the reopened store")
		}
		openMs = append(openMs, float64(took)/float64(time.Millisecond))
	}
	res.set("server.open_ms", median(openMs), len(openMs))

	// A snapshot of the final state size written through a bare journal.
	var snapMs []float64
	snapDir := filepath.Join(scratch, "snap")
	j, _, err := journal.Open(journal.Options{Dir: snapDir, Fsync: journal.FsyncBatch}, func(*journal.Record) error { return nil })
	if err != nil {
		return err
	}
	for i := 0; i < recoverRepeats; i++ {
		var err error
		took := e.rec.timed("journal snapshot", -1, i, 3, func() { err = j.WriteSnapshot(j.ChainHead(), want) })
		res.check(err == nil, "journal.WriteSnapshot: %v", err)
		snapMs = append(snapMs, float64(took)/float64(time.Millisecond))
	}
	res.check(j.Close() == nil, "closing the snapshot journal")
	res.set("journal.snapshot_ms", median(snapMs), len(snapMs))

	// 64-record commit groups against a bare journal.
	st, err := decodeState(want)
	if err != nil {
		return err
	}
	var records []*journal.Record
	for i := 0; i < 50*ingestBatch && i < len(st.Services); i++ {
		s := st.Services[i]
		records = append(records, &journal.Record{Op: journal.OpAdd, ID: s.ID, Node: s.Node, TrueSvc: s.True, EstSvc: s.Est})
	}
	jp, err := probeJournal(e, res, 4, records)
	if err != nil {
		return err
	}
	res.set("journal.append_us", median(jp.appendUs), len(jp.appendUs))
	res.set("journal.batch_commit_us", median(jp.batchUs), len(jp.batchUs))
	res.set("journal.bytes_per_record", jp.bytesPerRecord, len(jp.appendUs))
	// Recovery the in-process open does not explain: exec, runtime start,
	// listening, the first /readyz poll.
	res.set("bench.unattributed_frac", (median(recoverMs)-median(openMs))/median(recoverMs), len(recoverMs))
	return nil
}
