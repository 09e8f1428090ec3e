package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmalloc"
)

// serve-churn's open loop. The box's closed-loop two-connection ceiling for
// single writes is about 2 700 req/s, so lo sits at 15% and hi at 45% of it.
const (
	churnLoRate  = 400.0
	churnHiRate  = 1200.0
	churnLimitMs = 50.0 // latency limit for goodput, from scheduled arrival
	churnDrain   = 5 * time.Second
	// Tail of the lo legs (~4 000 writes). p99 would have 40 samples beyond
	// it, but one 100 ms hiccup of the sandbox's disk or scheduler delays 40
	// arrivals at this rate and would own it; p95 takes three to move.
	churnTailPct = 95
	churnShards  = 4
	// Slice widths of the two gated numbers: the lo leg's median latency is
	// taken per half second of arrivals (~200 writes), the saturation rate
	// per quarter second of completions (~900 writes).
	churnLoSlice  = 500 * time.Millisecond
	churnSatSlice = 250 * time.Millisecond
)

// served is one booted, pre-loaded park daemon plus the bench's view of it.
type served struct {
	d   *daemon
	c   *client
	dir string
	pk  *park
	// ids maps a pool index to its server id, -1 while not resident. Workers
	// on both connections share it.
	ids []atomic.Int64
	// turn counts the completed ops per pool index. The open loop's two
	// connections can overtake each other; an op waits until the schedule's
	// earlier ops on the same service are acked, as one client owning that
	// service would. The wait is inside the op's measured latency.
	turn []atomic.Int32
}

// bootPark writes the node file, execs a daemon on a fresh directory and
// pre-loads the first parkLive pool services in one batch request. It returns
// the set-up time: everything from nothing to a loaded, serving daemon.
func (e *env) bootPark(res *result, pk *park, args ...string) (*served, float64, error) {
	t := time.Now()
	dir, err := e.tempDir("data-")
	if err != nil {
		return nil, 0, err
	}
	nodes := filepath.Join(dir, "nodes.json")
	if err := os.WriteFile(nodes, nodeFile(pk.Nodes), 0o644); err != nil {
		return nil, 0, err
	}
	data := filepath.Join(dir, "journal")
	d, err := e.startDaemon(data, append([]string{"-nodes", nodes}, args...)...)
	if err != nil {
		return nil, 0, err
	}
	if _, err := d.waitFor("/healthz", 30*time.Second); err != nil {
		return nil, 0, err
	}
	sv := &served{
		d: d, c: newClient(d.url), dir: data, pk: pk,
		ids: make([]atomic.Int64, len(pk.Pool)), turn: make([]atomic.Int32, len(pk.Pool)),
	}
	for j := range sv.ids {
		sv.ids[j].Store(-1)
	}
	var batch batchBody
	for j := 0; j < parkLive; j++ {
		batch.Services = append(batch.Services, addBody{True: &pk.Pool[j]})
	}
	var out batchReply
	code, body, err := sv.c.do("POST", "/v1/services:batch", mustJSON(batch))
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &out) != nil {
		return nil, 0, fmt.Errorf("pre-load: status %d: %v", code, err)
	}
	for j, r := range out.Results {
		if r.ID != nil {
			sv.ids[j].Store(int64(*r.ID))
		}
	}
	setup := time.Since(t).Seconds()
	res.check(out.Admitted == parkLive, "pre-load admitted %d of %d", out.Admitted, parkLive)
	return sv, setup, nil
}

// stop kills the daemon and releases the client's connections.
func (sv *served) stop() {
	sv.d.kill()
	sv.c.close()
}

type batchReply struct {
	Results []struct {
		ID *int `json:"id"`
	} `json:"results"`
	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Invalid  int `json:"invalid"`
}

type epochReply struct {
	Solved     bool                `json:"solved"`
	MinYield   float64             `json:"min_yield"`
	Migrations int                 `json:"migrations"`
	Services   int                 `json:"services"`
	IDs        []int               `json:"ids"`
	Placement  vmalloc.Placement   `json:"placement"`
	Stats      *vmalloc.EpochStats `json:"stats"`
}

// outcome of one executed op.
type outcome uint8

const (
	done     outcome = iota // 2xx
	rejected                // 409 on an add: an outcome, not a failure
	skipped                 // target not resident (its add was rejected)
	failed                  // transport error, 5xx, unexpected status
)

// exec sends one write op and maps the reply. lane names the connection for
// the trace.
func (sv *served) exec(o op, rec *recorder, request, lane int) (outcome, string) {
	svc := &sv.pk.Pool[o.Svc]
	var method, path string
	var body []byte
	switch o.Kind {
	case opAdd:
		method, path, body = "POST", "/v1/services", addRequest(svc)
	case opRemove, opUpdate:
		var id int64
		if o.Kind == opRemove {
			id = sv.ids[o.Svc].Swap(-1)
		} else {
			id = sv.ids[o.Svc].Load()
		}
		if id < 0 {
			return skipped, ""
		}
		if o.Kind == opRemove {
			method, path = "DELETE", "/v1/services/"+strconv.FormatInt(id, 10)
		} else {
			method, path, body = "PUT", "/v1/services/"+strconv.FormatInt(id, 10)+"/needs", needsRequest(svc, o.Scale)
		}
	}
	span := rec.begin("http "+o.Kind.String(), -1, request, lane)
	code, reply, err := sv.c.do(method, path, body)
	rec.end(span)
	switch {
	case err != nil:
		return failed, fmt.Sprintf("%s %s: %v", method, path, err)
	case o.Kind == opAdd && code == http.StatusCreated:
		var out struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(reply, &out); err != nil {
			return failed, fmt.Sprintf("%s %s: bad reply: %v", method, path, err)
		}
		sv.ids[o.Svc].Store(int64(out.ID))
		return done, ""
	case o.Kind == opAdd && code == http.StatusConflict:
		return rejected, ""
	case o.Kind != opAdd && code == http.StatusOK:
		return done, ""
	}
	return failed, fmt.Sprintf("%s %s: status %d: %s", method, path, code, reply)
}

// epoch runs one reallocate (or bounded repair) and returns the decoded reply
// with its latency.
func (c *client) epoch(kind opKind, rec *recorder, request, lane int) (*epochReply, time.Duration, error) {
	path, body := "/v1/reallocate", []byte(nil)
	if kind == opRepair {
		path, body = "/v1/repair", mustJSON(map[string]int{"budget": repairBudget})
	}
	span := rec.begin("http "+kind.String(), -1, request, lane)
	t := time.Now()
	code, reply, err := c.do("POST", path, body)
	d := time.Since(t)
	rec.end(span)
	if err != nil {
		return nil, d, err
	}
	if code != http.StatusOK {
		return nil, d, fmt.Errorf("POST %s: status %d: %s", path, code, reply)
	}
	var ep epochReply
	if err := json.Unmarshal(reply, &ep); err != nil {
		return nil, d, fmt.Errorf("POST %s: bad reply: %v", path, err)
	}
	return &ep, d, nil
}

// state is what the bench reads of a GET /v1/snapshot body: the platform and
// every resident service with its node. It is decoded without the server's
// own validation: the daemon's incrementally maintained load vectors can
// drift to -5e-17, which server.DecodeState rejects although the placement
// is sound.
type state struct {
	Nodes    []vmalloc.Node `json:"nodes"`
	Services []struct {
		ID   int             `json:"id"`
		Node int             `json:"node"`
		True vmalloc.Service `json:"true"`
		Est  vmalloc.Service `json:"est"`
	} `json:"services"`
}

func decodeState(data []byte) (*state, error) {
	var st state
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &st, nil
}

// snapshot fetches and decodes the daemon's full state.
func (sv *served) snapshot() (*state, error) {
	data, err := getSnapshot(sv.c)
	if err != nil {
		return nil, err
	}
	return decodeState(data)
}

// residents counts the pool services the bench holds an acked id for.
func (sv *served) residents() []int {
	var ids []int
	for j := range sv.ids {
		if id := sv.ids[j].Load(); id >= 0 {
			ids = append(ids, int(id))
		}
	}
	sort.Ints(ids)
	return ids
}

// stateYield recomputes the minimum yield of a daemon state from outside:
// the true services on the nodes the state says they run on.
func stateYield(st *state) float64 {
	p := &vmalloc.Problem{Nodes: st.Nodes}
	pl := make(vmalloc.Placement, len(st.Services))
	for i, s := range st.Services {
		p.Services = append(p.Services, s.True)
		pl[i] = s.Node
	}
	if len(pl) == 0 {
		return 1
	}
	return vmalloc.EvaluatePlacement(p, pl).MinYield
}

// checkEpochShape verifies what can be verified of an epoch reply without a
// quiescent daemon: parallel ids/placement of the stated length, ascending
// ids, nodes in range.
func checkEpochShape(res *result, ep *epochReply, hosts int) {
	ok := len(ep.IDs) == ep.Services && len(ep.Placement) == ep.Services && sort.IntsAreSorted(ep.IDs)
	for _, h := range ep.Placement {
		ok = ok && h >= 0 && h < hosts
	}
	res.check(ok, "epoch reply malformed: %d ids, %d placements, services %d", len(ep.IDs), len(ep.Placement), ep.Services)
}

// churnSample is one executed write of the open loop.
type churnSample struct {
	due time.Duration // scheduled arrival, from the window start
	ms  float64       // scheduled arrival -> ack
	leg int
	out outcome
}

// churnRun pools what the open loop measured over the parks of one run.
type churnRun struct {
	writes    []churnSample
	epochMs   []float64
	lateMs    []float64
	dropped   int
	scheduled int // writes scheduled (epochs excluded)
	satOps    int // writes completed in the saturation legs
	satSec    float64
	loP50     []float64 // lo-leg median latency of every churnLoSlice
	satRate   []float64 // completions per second of every churnSatSlice
	yields    []float64
	delta     map[string]float64 // daemon /metrics movement over the windows
}

// split returns the executed writes' latencies per leg, the number acked
// within the limit, and the outcome counts.
func (run *churnRun) split() (lo, hi []float64, within int, counts map[outcome]int) {
	counts = map[outcome]int{}
	for _, s := range run.writes {
		counts[s.out]++
		if s.out == failed || s.out == skipped {
			continue
		}
		if s.leg == 0 {
			lo = append(lo, s.ms)
		} else {
			hi = append(hi, s.ms)
		}
		if s.out == done && s.ms <= churnLimitMs {
			within++
		}
	}
	return lo, hi, within, counts
}

// driveChurn runs the open-loop schedule against sv on maxConns connections
// and adds what it measured to run.
func driveChurn(e *env, res *result, sv *served, ops []op, sat [maxConns][]op, half, satFor time.Duration, run *churnRun) error {
	due := make([]time.Duration, len(ops))
	for i, o := range ops {
		due[i] = o.Due
	}
	before, err := sv.c.scrape()
	if err != nil {
		return err
	}
	perWorker := make([][]churnSample, maxConns)
	epochs := make([][]float64, maxConns)
	replies := make([][]*epochReply, maxConns)
	fails := make([][]string, maxConns)
	start := time.Now().Add(20 * time.Millisecond)
	loop := runOpenLoop(start, due, maxConns, churnDrain, func(w, i int, at time.Time) {
		o := ops[i]
		if o.Kind == opEpoch {
			ep, _, err := sv.c.epoch(o.Kind, e.rec, i, w)
			if err != nil {
				fails[w] = append(fails[w], err.Error())
				return
			}
			epochs[w] = append(epochs[w], float64(time.Since(at))/float64(time.Millisecond))
			replies[w] = append(replies[w], ep) // checked after the window, off the request path
			return
		}
		for sv.turn[o.Svc].Load() < int32(o.Nth) {
			time.Sleep(20 * time.Microsecond) // the other connection holds the earlier op
		}
		out, why := sv.exec(o, e.rec, i, w)
		sv.turn[o.Svc].Add(1)
		if out == failed {
			fails[w] = append(fails[w], why)
		}
		perWorker[w] = append(perWorker[w], churnSample{due: o.Due, ms: float64(time.Since(at)) / float64(time.Millisecond), leg: o.Leg, out: out})
	})
	after, err := sv.c.scrape()
	if err != nil {
		return err
	}
	if run.delta == nil {
		run.delta = map[string]float64{}
	}
	for k, v := range after {
		run.delta[k] += v - before[k]
	}
	for _, o := range ops {
		if o.Kind != opEpoch {
			run.scheduled++
		}
	}
	res.attempt(len(ops))
	lo := newSliced(churnLoSlice)
	for w := range perWorker {
		for _, s := range perWorker[w] {
			if s.leg == 0 && (s.out == done || s.out == rejected) {
				lo.add(s.due, s.ms)
			}
		}
		run.writes = append(run.writes, perWorker[w]...)
		run.epochMs = append(run.epochMs, epochs[w]...)
		for _, ep := range replies[w] {
			checkEpochShape(res, ep, len(sv.pk.Nodes))
		}
	}
	lo.each(half, func(ms []float64) {
		if len(ms) > 0 { // no arrival due in half a second: next to impossible at 400/s
			run.loP50 = append(run.loP50, median(ms))
		}
	})
	run.lateMs = append(run.lateMs, loop.LateMs...)
	run.dropped += loop.Dropped
	for i := 0; i < loop.Dropped; i++ {
		res.fail("arrival dropped: still queued %v after the last due time", churnDrain)
	}

	// Saturation leg: closed loop, every connection back to back.
	var wg sync.WaitGroup
	ackedAt := make([][]time.Duration, maxConns) // when each write completed
	t0 := time.Now()
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Since(t0) < satFor; i++ {
				out, why := sv.exec(sat[w][i%len(sat[w])], e.rec, len(ops)+i, w)
				if out == failed {
					fails[w] = append(fails[w], why)
				}
				ackedAt[w] = append(ackedAt[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	run.satSec += time.Since(t0).Seconds()
	rate := newSliced(churnSatSlice)
	for w := range ackedAt {
		run.satOps += len(ackedAt[w])
		res.attempt(len(ackedAt[w]))
		for _, at := range ackedAt[w] {
			rate.add(at, 1)
		}
	}
	rate.each(satFor, func(n []float64) { run.satRate = append(run.satRate, float64(len(n))/churnSatSlice.Seconds()) })

	for w := range fails {
		for _, why := range fails[w] {
			res.fail("%s", why)
		}
	}

	// End state: one last epoch on the now quiet daemon, checked against the
	// snapshot it leaves and against the ids the bench was acked.
	ep, _, err := sv.c.epoch(opEpoch, nil, 0, 0)
	if err != nil {
		return err
	}
	st, err := sv.snapshot()
	if err != nil {
		return err
	}
	yield := stateYield(st)
	res.check(ep.Solved && math.Abs(yield-ep.MinYield) <= yieldTol, "final epoch: solved=%v, reported min-yield %.12g, recomputed %.12g", ep.Solved, ep.MinYield, yield)
	acked := len(sv.residents())
	res.check(acked == len(st.Services), "bench was acked %d resident services, daemon holds %d", acked, len(st.Services))
	run.yields = append(run.yields, yield)
	return nil
}

func runServeChurn(e *env) (*result, error) {
	res := newResult("serve-churn", e.traced())
	// A traced run visits one park for half the window; the layer replay
	// takes the other half.
	parks, window := churnParks, e.window()/churnParks
	if e.traced() {
		parks, window = 1, e.window()/2
	}
	// Per park: lo and hi legs of 40% of its window each, saturation 20%.
	half, satFor := window*2/5, window/5
	run := &churnRun{}
	var setup, rss []float64
	for k := 0; k < parks; k++ {
		name := fmt.Sprintf("serve-churn/park-%d", k)
		pk := genPark(e.seed, name)
		ops, sat := churnSchedule(e.seed, name+"/schedule", half, churnLoRate, churnHiRate)
		sv, s, err := e.bootPark(res, pk, "-shards", strconv.Itoa(churnShards), "-fsync", "batch")
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)
		if err := driveChurn(e, res, sv, ops, sat, half, satFor, run); err != nil {
			return nil, err
		}
		if e.traced() {
			traceServeChurn(e, res, sv, ops, run)
		}
		sv.stop()
		rss = append(rss, sv.d.peakMB)
	}
	if e.traced() {
		return res, nil
	}
	lo, hi, within, counts := run.split()
	res.set("setup_s", median(setup), len(setup))
	// Gated: the undisturbed quartile over the slices of all parks.
	res.set("op_p50_ms", lowQuartile(run.loP50, median(lo)), len(run.loP50))
	res.set("ops_per_s", highQuartile(run.satRate, float64(run.satOps)/run.satSec), len(run.satRate))
	res.set("min_yield", mean(run.yields), len(run.yields))
	res.set("peak_rss_mb", median(rss), len(rss))
	// Not gated, printed for the reader: the whole lo legs and saturation
	// legs at once, and what the rest of the window saw.
	res.setTiming("lo_p50_ms", "op_tail_ms", summarise(lo, churnTailPct))
	res.set("sat_per_s", float64(run.satOps)/run.satSec, run.satOps)
	res.set("epoch_p50_ms", median(run.epochMs), len(run.epochMs))
	res.set("hi_p50_ms", median(hi), len(hi))
	res.set("within_limit_frac", float64(within)/float64(run.scheduled), run.scheduled)
	res.set("late_p99_ms", summarise(run.lateMs, 99).Tail, len(run.lateMs))
	res.set("rejected", float64(counts[rejected]), run.scheduled)
	res.set("skipped", float64(counts[skipped]), run.scheduled)
	return res, nil
}
